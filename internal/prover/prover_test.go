package prover

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"nocap"
	"nocap/internal/faultinject"
	"nocap/internal/jobs"
	"nocap/internal/proofcache"
	"nocap/internal/zkerr"
)

// testParams is the deterministic configuration: ZK masking off, so two
// proofs of one statement must agree byte for byte.
func testParams() nocap.Params {
	p := nocap.TestParams()
	p.PCS.ZK = false
	return p
}

func payload(t *testing.T, req Request) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckValidationTable is the one table for the request policy the
// server, the worker prover, and the CLI used to each carry a copy of.
func TestCheckValidationTable(t *testing.T) {
	p := New(Config{Params: testParams(), MaxN: 1024, Timeout: 10 * time.Second})
	for _, tc := range []struct {
		name    string
		req     Request
		want    error // nil = accepted
		timeout time.Duration
	}{
		{"ok", Request{Circuit: "synthetic", N: 256}, nil, 10 * time.Second},
		{"n at max", Request{Circuit: "synthetic", N: 1024}, nil, 10 * time.Second},
		{"n over max", Request{Circuit: "synthetic", N: 1025}, zkerr.ErrResourceLimit, 0},
		{"reps default", Request{Circuit: "synthetic", N: 256, Reps: 0}, nil, 10 * time.Second},
		{"reps max", Request{Circuit: "synthetic", N: 256, Reps: 64}, nil, 10 * time.Second},
		{"reps over", Request{Circuit: "synthetic", N: 256, Reps: 65}, zkerr.ErrUsage, 0},
		{"reps negative", Request{Circuit: "synthetic", N: 256, Reps: -1}, zkerr.ErrUsage, 0},
		{"unknown circuit", Request{Circuit: "nope", N: 256}, zkerr.ErrUsage, 0},
		{"empty circuit", Request{N: 256}, zkerr.ErrUsage, 0},
		// timeout_ms only ever shortens the cap.
		{"timeout shortens", Request{Circuit: "synthetic", N: 256, TimeoutMS: 1500}, nil, 1500 * time.Millisecond},
		{"timeout cannot extend", Request{Circuit: "synthetic", N: 256, TimeoutMS: 60_000}, nil, 10 * time.Second},
		{"timeout negative ignored", Request{Circuit: "synthetic", N: 256, TimeoutMS: -5}, nil, 10 * time.Second},
	} {
		timeout, err := p.Check(tc.req)
		if tc.want == nil {
			if err != nil || timeout != tc.timeout {
				t.Errorf("%s: Check = (%v, %v), want (%v, nil)", tc.name, timeout, err, tc.timeout)
			}
		} else if !errors.Is(err, tc.want) {
			t.Errorf("%s: Check err = %v, want %v", tc.name, err, tc.want)
		}
		// Build and Exec apply the same policy as Check.
		st, berr := p.Build(tc.req)
		if (berr == nil) != (tc.want == nil) || (tc.want != nil && !errors.Is(berr, tc.want)) {
			t.Errorf("%s: Build err = %v, want %v", tc.name, berr, tc.want)
		}
		if berr == nil && st.timeout != tc.timeout {
			t.Errorf("%s: statement timeout %v, want %v", tc.name, st.timeout, tc.timeout)
		}
		if tc.want != nil {
			if _, eerr := p.Exec(context.Background(), jobs.Spec{Payload: payload(t, tc.req)}); !errors.Is(eerr, tc.want) {
				t.Errorf("%s: Exec err = %v, want %v", tc.name, eerr, tc.want)
			}
		}
	}
	// reps 0 means 1, so the range the error states starts at 0.
	for _, reps := range []int{-1, 65} {
		if _, err := p.Check(Request{Circuit: "synthetic", N: 256, Reps: reps}); err == nil || !strings.Contains(err.Error(), "reps must be in [0,64]") {
			t.Errorf("reps %d: Check err = %v, want the [0,64] range", reps, err)
		}
	}
	if _, err := p.Exec(context.Background(), jobs.Spec{Payload: json.RawMessage(`{nope`)}); !errors.Is(err, zkerr.ErrUsage) {
		t.Errorf("undecodable payload: %v, want usage", err)
	}
	if _, ok := BatchKey(jobs.Spec{Payload: json.RawMessage(`{nope`)}); ok {
		t.Error("undecodable payload produced a batch key")
	}
}

// TestDefaultsAndFit: the zero Config keeps the worker node's documented
// defaults (MaxN 1<<20, 60s), and a built statement carries the
// request's reps, a row count that fits the circuit, and a positive
// deadline.
func TestDefaultsAndFit(t *testing.T) {
	p := New(Config{Params: nocap.DefaultParams()})
	if timeout, err := p.Check(Request{Circuit: "synthetic", N: 1 << 20}); err != nil || timeout != 60*time.Second {
		t.Fatalf("defaults: Check = (%v, %v), want (60s, nil)", timeout, err)
	}
	if _, err := p.Check(Request{Circuit: "synthetic", N: 1<<20 + 1}); !errors.Is(err, zkerr.ErrResourceLimit) {
		t.Fatalf("default MaxN not enforced: %v", err)
	}
	st, err := p.Build(Request{Circuit: "synthetic", N: 64, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if half := st.Bench.Inst.NumVars() / 2; st.Params.Reps != 2 || st.Params.PCS.Rows > half || st.timeout != 60*time.Second {
		t.Errorf("statement reps %d rows %d (witness %d) timeout %v", st.Params.Reps, st.Params.PCS.Rows, half, st.timeout)
	}
}

// TestCacheKeyGolden pins the proof-cache address of two statements to
// the values the pre-refactor server.proveCacheKey produced, so a cache
// populated before this package existed still hits.
func TestCacheKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		n, reps int
		hash    string
		want    string
	}{
		{"synthetic", 256, 1, "sha3", "420d6097b38176985e20cb799e6ea4715006a1ee1c7e6b304b32add57d2a1377"},
		{"auction", 8, 3, "keccak-x4", "d0b8e101a312519d5db5cc3bf37d2b2022ed3c7eb7dec2c35616435cb42304bc"},
	} {
		params, err := nocap.WithHashEngine(nocap.DefaultParams(), tc.hash)
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(Config{Params: params}).Build(Request{Circuit: tc.circuit, N: tc.n, Reps: tc.reps})
		if err != nil {
			t.Fatal(err)
		}
		k := st.cacheKey()
		if got := hex.EncodeToString(k[:]); got != tc.want {
			t.Errorf("%s/%d/%d/%s: cache key %s, want %s", tc.circuit, tc.n, tc.reps, tc.hash, got, tc.want)
		}
	}
}

func stagesOf(t *testing.T, raw json.RawMessage) map[string]StageStats {
	t.Helper()
	var s Stats
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("stats %q: %v", raw, err)
	}
	return s.Stages
}

// TestEntryPointsAgree: the CLI's unbounded cache-less Prover, the solo
// executor, and the live members of a batch produce the same bytes for
// one request, each with its own non-empty per-run stats; a cancelled
// member fails alone.
func TestEntryPointsAgree(t *testing.T) {
	p := New(Config{Params: testParams()})
	req := Request{Circuit: "synthetic", N: 256}
	cli := New(Config{Params: testParams(), MaxN: math.MaxInt, Timeout: math.MaxInt64})
	st, err := cli.Build(req)
	if err != nil {
		t.Fatal(err)
	}
	ref, flight, err := cli.Prove(context.Background(), st)
	if err != nil || flight != nil || len(ref.Stats.Stages) == 0 || ref.Stats.Arena.Outstanding != 0 {
		t.Fatalf("unbounded Prove: %v, flight %v, stats %+v", err, flight, ref.Stats)
	}
	spec := jobs.Spec{Payload: payload(t, req)}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	outs := p.BatchExec(context.Background(), []jobs.BatchMember{
		{ID: "a", Spec: spec, Ctx: context.Background()}, {ID: "b", Spec: spec, Ctx: context.Background()}, {ID: "c", Spec: spec, Ctx: cancelled},
	})
	solo, err := p.Exec(context.Background(), spec)
	outs = append(outs, jobs.BatchOutcome{Result: solo, Err: err})
	if len(outs) != 4 || !errors.Is(outs[2].Err, context.Canceled) {
		t.Fatalf("%d outcomes, cancelled member: %v", len(outs), outs[2].Err)
	}
	for _, i := range []int{0, 1, 3} {
		if outs[i].Err != nil || !bytes.Equal(outs[i].Result.Proof, ref.Proof) || len(stagesOf(t, outs[i].Result.Stats)) == 0 {
			t.Errorf("outcome %d: err %v, identical %v", i, outs[i].Err, bytes.Equal(outs[i].Result.Proof, ref.Proof))
		}
	}
}

// TestCacheProtocol: the first attempt leads and commits (verified), a
// repeat is a hit with no stats, and a concurrent identical Prove is
// handed the leader's flight.
func TestCacheProtocol(t *testing.T) {
	cache := proofcache.New(proofcache.Config{MaxBytes: 8 << 20})
	p := New(Config{Params: testParams(), Cache: cache})
	spec := jobs.Spec{Payload: payload(t, Request{Circuit: "synthetic", N: 256})}
	first, err := p.Exec(context.Background(), spec)
	if err != nil || first.Cached || len(first.Stats) == 0 {
		t.Fatalf("leader: %+v, %v", first.Cached, err)
	}
	again, err := p.Exec(context.Background(), spec)
	if err != nil || !again.Cached || again.Stats != nil || !bytes.Equal(again.Proof, first.Proof) {
		t.Fatalf("repeat: cached %v stats %q err %v", again.Cached, again.Stats, err)
	}
	if m := cache.Metrics(); m.Inserts != 1 || m.Hits != 1 || m.VerifyRejects != 0 {
		t.Fatalf("cache metrics %+v", m)
	}

	// A second statement, led by hand so a follower can be observed.
	st, err := p.Build(Request{Circuit: "synthetic", N: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !cache.Acquire(st.cacheKey()).Leader {
		t.Fatal("hand-held acquire is not the leader")
	}
	out, flight, err := p.Prove(context.Background(), st)
	if err != nil || flight == nil || out.Proof != nil {
		t.Fatalf("follower Prove = (%v, %v, %v), want a flight", out.Proof != nil, flight, err)
	}
	// The leader's request dies: a job following it must see a
	// retryable failure, not inherit the cancellation.
	cache.Abort(st.cacheKey(), context.Canceled)
	if _, err := flight.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after abort: %v", err)
	}
	if !cache.Acquire(st.cacheKey()).Leader {
		t.Fatal("hand-held re-acquire is not the leader")
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Exec(context.Background(), jobs.Spec{Payload: payload(t, Request{Circuit: "synthetic", N: 512})})
		done <- err
	}()
	// Wait until the job is parked on the flight before aborting it.
	deadline := time.Now().Add(5 * time.Second)
	for cache.Metrics().Coalesced < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cache.Abort(st.cacheKey(), context.Canceled)
	if err := <-done; !errors.Is(err, zkerr.ErrInternal) || !zkerr.Retryable(err) {
		t.Fatalf("job following an abandoned leader: %v, want retryable internal", err)
	}
}

// TestLookupBeforeBuild: a repeat request is served by Lookup with no
// build, no prove and no verify, while a miss runs today's sequence —
// build, prove, commit, verify-on-insert — in that order. Without a
// cache Lookup always misses.
func TestLookupBeforeBuild(t *testing.T) {
	req := Request{Circuit: "synthetic", N: 256}
	if _, ok := New(Config{Params: testParams()}).Lookup(req); ok {
		t.Fatal("Lookup hit with no cache configured")
	}
	cache := proofcache.New(proofcache.Config{MaxBytes: 8 << 20})
	p := New(Config{Params: testParams(), Cache: cache})
	if _, ok := p.Lookup(req); ok {
		t.Fatal("Lookup hit on an empty cache")
	}
	exec := func(req Request) (jobs.Result, []string) {
		t.Helper()
		faultinject.StartRecording()
		res, err := p.Exec(context.Background(), jobs.Spec{Payload: payload(t, req)})
		trace := faultinject.StopRecording()
		if err != nil {
			t.Fatal(err)
		}
		return res, trace
	}

	first, trace := exec(req)
	last := func(prefix string) int {
		i := -1
		for j, pt := range trace {
			if strings.HasPrefix(pt, prefix) {
				i = j
			}
		}
		return i
	}
	commit := slices.Index(trace, "proofcache.insert.corrupt")
	if first.Cached || len(trace) == 0 || trace[0] != "prover.build" ||
		faultinject.HitCounts(trace)["prover.build"] != 1 ||
		commit < last("spartan.prove.") || commit > slices.IndexFunc(trace, func(pt string) bool { return strings.HasPrefix(pt, "spartan.verify.") }) {
		t.Fatalf("miss: cached %v, trace %v; want build, prove, commit, verify", first.Cached, trace)
	}

	before := cache.Metrics()
	for _, again := range []Request{req, {Circuit: "synthetic", N: 256, Reps: 1, TimeoutMS: 5000}} {
		res, trace := exec(again)
		if !res.Cached || !bytes.Equal(res.Proof, first.Proof) || len(trace) != 0 {
			t.Fatalf("repeat %+v: cached %v, identical %v, trace %v; want the stored bytes and no work", again, res.Cached, bytes.Equal(res.Proof, first.Proof), trace)
		}
	}
	want := before
	want.Hits += 2
	if m := cache.Metrics(); m != want {
		t.Fatalf("cache metrics %+v, want %+v (two hits, nothing else)", m, want)
	}
}

// TestLookupFindsStatementStoredByAnotherRequest: synthetic n=1 clamps
// to the statement n=64 stored, so the first n=1 request builds once to
// reach that entry's content key; the hit files its request digest, and
// every later n=1 request is answered by Lookup with no build.
func TestLookupFindsStatementStoredByAnotherRequest(t *testing.T) {
	cache := proofcache.New(proofcache.Config{MaxBytes: 8 << 20})
	p := New(Config{Params: testParams(), Cache: cache})
	first, err := p.Exec(context.Background(), jobs.Spec{Payload: payload(t, Request{Circuit: "synthetic", N: 64})})
	if err != nil || first.Cached {
		t.Fatalf("n=64: cached %v, err %v", first.Cached, err)
	}
	faultinject.StartRecording()
	for range 3 {
		res, err := p.Exec(context.Background(), jobs.Spec{Payload: payload(t, Request{Circuit: "synthetic", N: 1})})
		if err != nil || !res.Cached || !bytes.Equal(res.Proof, first.Proof) {
			faultinject.StopRecording()
			t.Fatalf("n=1: cached %v, identical %v, err %v", res.Cached, bytes.Equal(res.Proof, first.Proof), err)
		}
	}
	if builds := faultinject.HitCounts(faultinject.StopRecording())["prover.build"]; builds != 1 {
		t.Fatalf("three n=1 requests built %d times, want 1", builds)
	}
	if m := cache.Metrics(); m.Inserts != 1 || m.Hits != 3 || m.Misses != 1 {
		t.Fatalf("cache metrics %+v, want one insert, one miss, three hits", m)
	}
}
