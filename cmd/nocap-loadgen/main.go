// Command nocap-loadgen hammers a nocap-serve instance with mixed
// traffic — proves, valid verifies, corrupt proofs, malformed JSON,
// oversized bodies, and client-cancelled requests — and checks that
// every answer is a complete, correctly-typed response: 200 with per-
// request stats, 400/413 with a taxonomy code, 429 when the admission
// queue sheds load. Anything else (an untyped error, a 5xx, a proof
// accepted that should not be) counts as a protocol violation and fails
// the run.
//
// With -addr pointing at a running server it is a plain load generator.
// With -addr "" (the default) it starts an in-process server, runs the
// same traffic over loopback, drains it, and additionally asserts the
// process-level invariants only visible from inside: zero leaked
// goroutines (internal/leakcheck) and the arena checkout balance back
// at its baseline. That self-contained mode is what `make serve-smoke`
// runs in CI.
//
// With -jobs (in-process only) the traffic instead exercises the
// durable async API: submit/poll/cancel over POST /jobs, plus a
// crash-window pass that parks jobs in flight, drains the server,
// tears the journal's final record in half the way a crash mid-append
// would, restarts against the same data directory, and checks every
// job lands in exactly one typed terminal state with no lost or
// duplicated proofs. The same leak and arena invariants apply.
//
// With -batch (in-process only) the server runs the async batch
// planner (DESIGN.md §15) with two equal-weight keyed tenants and ZK
// disabled: each tenant pins a solo baseline proof, then all clients
// burst same-key jobs so the planner coalesces them into shared-
// structure batched attempts. Every batched proof must be byte-
// identical to its tenant's solo proof, /metrics must show real
// coalescing, and the scheduler ledger must show zero cross-tenant
// fairness regression — on top of the journal, leak, and arena
// invariants.
//
// With -cluster (in-process only) the server runs as a cluster
// coordinator (DESIGN.md §16) with local fallback off, a short lease
// TTL, and two in-process worker nodes proving with the real prover.
// Two equal-weight keyed tenants drive async jobs through the worker
// plane; mid-run, worker w0 is Kill()ed while holding a lease — node
// death, no goodbye — and a replacement node joins. The lease must
// expire and the parked attempt reassign with its budget refunded,
// clients must never see a 5xx, neither tenant may be shed or
// starved, and the usual journal, leak, and arena invariants close
// the run.
//
// Usage:
//
//	nocap-loadgen                          # in-process smoke, 8 clients, 15s cap
//	nocap-loadgen -requests 64 -clients 8
//	nocap-loadgen -addr 127.0.0.1:8080 -duration 30s
//	nocap-loadgen -jobs -requests 40       # async-jobs + crash-recovery smoke
//	nocap-loadgen -batch -requests 48      # batched-proving byte-identity + fairness soak
//	nocap-loadgen -cluster -requests 32    # distributed proving + node-death soak
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nocap"
	"nocap/internal/cluster"
	"nocap/internal/faultinject"
	"nocap/internal/jobs"
	"nocap/internal/leakcheck"
	"nocap/internal/prover"
	"nocap/internal/server"
	"nocap/internal/tenant"
)

// outcome tallies one traffic kind's results.
type outcome struct {
	sent, ok, shed, violations int64
}

type harness struct {
	base   string
	client *http.Client
	n      int

	mu       sync.Mutex
	outcomes map[string]*outcome
	problems []string
}

func (h *harness) record(kind string, shed, violated bool, detail string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o := h.outcomes[kind]
	if o == nil {
		o = &outcome{}
		h.outcomes[kind] = o
	}
	o.sent++
	switch {
	case violated:
		o.violations++
		if len(h.problems) < 20 {
			h.problems = append(h.problems, fmt.Sprintf("%s: %s", kind, detail))
		}
	case shed:
		o.shed++
	default:
		o.ok++
	}
}

func (h *harness) post(path string, body []byte) (*http.Response, []byte, error) {
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

func (h *harness) do(method, path string) (*http.Response, []byte, error) {
	return h.doAs(method, path, "")
}

func (h *harness) doAs(method, path, key string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, h.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

func (h *harness) get(path string) (*http.Response, []byte, error) {
	return h.do(http.MethodGet, path)
}

func (h *harness) getAs(path, key string) (*http.Response, []byte, error) {
	return h.doAs(http.MethodGet, path, key)
}

func (h *harness) del(path string) (*http.Response, []byte, error) {
	return h.do(http.MethodDelete, path)
}

// submitJob posts one async job and returns its id. On shed (429) or a
// protocol violation it records the outcome itself and reports ok=false.
func (h *harness) submitJob(kind string, n int) (string, bool) {
	return h.submitJobAs(kind, n, "")
}

// submitJobAs is submitJob with a tenant API key.
func (h *harness) submitJobAs(kind string, n int, key string) (string, bool) {
	body, _ := json.Marshal(server.ProveRequest{Circuit: "synthetic", N: n})
	resp, data, err := h.postAs("/jobs", key, body)
	if err != nil {
		h.record(kind, false, true, err.Error())
		return "", false
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var jr server.JobResponse
		if json.Unmarshal(data, &jr) != nil || jr.ID == "" {
			h.record(kind, false, true, "202 without a job id")
			return "", false
		}
		return jr.ID, true
	case http.StatusTooManyRequests:
		h.record(kind, true, !typedError(data), "untyped 429")
		return "", false
	default:
		h.record(kind, false, true, fmt.Sprintf("submit status %d: %.120s", resp.StatusCode, data))
		return "", false
	}
}

// pollJob polls GET /jobs/{id} until the job reaches a terminal state.
// Status polls must come back payload-free (that contract is asserted
// here on every poll); once done, the proof is fetched with ?proof=1
// and the full response returned.
func (h *harness) pollJob(id string, budget time.Duration) (server.JobResponse, error) {
	return h.pollJobAs(id, budget, "")
}

// pollJobAs is pollJob with a tenant API key.
func (h *harness) pollJobAs(id string, budget time.Duration, key string) (server.JobResponse, error) {
	deadline := time.Now().Add(budget)
	for {
		resp, data, err := h.getAs("/jobs/"+id, key)
		if err != nil {
			return server.JobResponse{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return server.JobResponse{}, fmt.Errorf("poll %s: status %d: %.120s", id, resp.StatusCode, data)
		}
		var jr server.JobResponse
		if err := json.Unmarshal(data, &jr); err != nil {
			return server.JobResponse{}, fmt.Errorf("poll %s: %w", id, err)
		}
		if jr.ProofB64 != "" {
			return server.JobResponse{}, fmt.Errorf("poll %s: status poll carried the proof payload", id)
		}
		if jobs.State(jr.State).Terminal() {
			if jr.State != string(jobs.StateDone) {
				return jr, nil
			}
			resp, data, err = h.getAs("/jobs/"+id+"?proof=1", key)
			if err != nil {
				return server.JobResponse{}, err
			}
			if resp.StatusCode != http.StatusOK {
				return server.JobResponse{}, fmt.Errorf("fetch proof %s: status %d: %.120s", id, resp.StatusCode, data)
			}
			if err := json.Unmarshal(data, &jr); err != nil {
				return server.JobResponse{}, fmt.Errorf("fetch proof %s: %w", id, err)
			}
			return jr, nil
		}
		if time.Now().After(deadline) {
			return server.JobResponse{}, fmt.Errorf("job %s still %q after %v", id, jr.State, budget)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// typedError reports whether a non-2xx body carries a taxonomy code.
func typedError(body []byte) bool {
	var er server.ErrorResponse
	return json.Unmarshal(body, &er) == nil && er.Code != ""
}

// fire sends one request of the given kind and records the outcome.
func (h *harness) fire(kind string, seedProof string) {
	switch kind {
	case "prove":
		body, _ := json.Marshal(server.ProveRequest{Circuit: "synthetic", N: h.n})
		resp, data, err := h.post("/prove", body)
		if err != nil {
			h.record(kind, false, true, err.Error())
			return
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var pr server.ProveResponse
			if json.Unmarshal(data, &pr) != nil || pr.ProofB64 == "" {
				h.record(kind, false, true, "200 without a complete proof body")
				return
			}
			if pr.Stats.Arena.Outstanding != 0 {
				h.record(kind, false, true, fmt.Sprintf("request leaked %d arena checkouts", pr.Stats.Arena.Outstanding))
				return
			}
			h.record(kind, false, false, "")
		case http.StatusTooManyRequests:
			h.record(kind, true, !typedError(data), "untyped 429")
		default:
			h.record(kind, false, true, fmt.Sprintf("status %d: %.120s", resp.StatusCode, data))
		}
	case "verify":
		body, _ := json.Marshal(server.VerifyRequest{Circuit: "synthetic", N: h.n, ProofB64: seedProof})
		resp, data, err := h.post("/verify", body)
		if err != nil {
			h.record(kind, false, true, err.Error())
			return
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var vr server.VerifyResponse
			if json.Unmarshal(data, &vr) != nil || !vr.Valid {
				h.record(kind, false, true, fmt.Sprintf("valid proof not accepted: %.120s", data))
				return
			}
			h.record(kind, false, false, "")
		case http.StatusTooManyRequests:
			h.record(kind, true, !typedError(data), "untyped 429")
		default:
			h.record(kind, false, true, fmt.Sprintf("status %d: %.120s", resp.StatusCode, data))
		}
	case "corrupt":
		c := []byte(seedProof)
		i := len(c) / 2
		if c[i] == 'A' {
			c[i] = 'B'
		} else {
			c[i] = 'A'
		}
		body, _ := json.Marshal(server.VerifyRequest{Circuit: "synthetic", N: h.n, ProofB64: string(c)})
		resp, data, err := h.post("/verify", body)
		if err != nil {
			h.record(kind, false, true, err.Error())
			return
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var vr server.VerifyResponse
			if json.Unmarshal(data, &vr) != nil || vr.Valid || vr.Code == "" {
				h.record(kind, false, true, fmt.Sprintf("corrupt proof mishandled: %.120s", data))
				return
			}
			h.record(kind, false, false, "")
		case http.StatusBadRequest:
			// Corruption may break framing instead of a soundness check.
			h.record(kind, false, !typedError(data), "untyped 400")
		case http.StatusTooManyRequests:
			h.record(kind, true, !typedError(data), "untyped 429")
		default:
			h.record(kind, false, true, fmt.Sprintf("status %d: %.120s", resp.StatusCode, data))
		}
	case "malformed":
		resp, data, err := h.post("/prove", []byte("{definitely not json"))
		if err != nil {
			h.record(kind, false, true, err.Error())
			return
		}
		if resp.StatusCode != http.StatusBadRequest || !typedError(data) {
			h.record(kind, false, true, fmt.Sprintf("status %d: %.120s", resp.StatusCode, data))
			return
		}
		h.record(kind, false, false, "")
	case "oversized":
		big := `{"circuit":"synthetic","n":64,"proof_b64":"` + strings.Repeat("A", 9<<20) + `"}`
		resp, data, err := h.post("/verify", []byte(big))
		if err != nil {
			h.record(kind, false, true, err.Error())
			return
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !typedError(data) {
			h.record(kind, false, true, fmt.Sprintf("status %d: %.120s", resp.StatusCode, data))
			return
		}
		h.record(kind, false, false, "")
	case "cancel":
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		defer cancel()
		body, _ := json.Marshal(server.ProveRequest{Circuit: "synthetic", N: 4 * h.n})
		req, _ := http.NewRequestWithContext(ctx, "POST", h.base+"/prove", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := h.client.Do(req)
		if err == nil {
			resp.Body.Close() // finished before the cancel landed; fine
		}
		// Either way the server must survive; violations show up as
		// failures in the other kinds or the final invariants.
		h.record(kind, false, false, "")
	case "job-prove":
		id, ok := h.submitJob(kind, h.n)
		if !ok {
			return
		}
		info, err := h.pollJob(id, time.Minute)
		if err != nil {
			h.record(kind, false, true, err.Error())
			return
		}
		if info.State != string(jobs.StateDone) || info.ProofB64 == "" || info.Attempts < 1 {
			h.record(kind, false, true, fmt.Sprintf("job %s ended %q (code %q), attempts %d",
				id, info.State, info.Code, info.Attempts))
			return
		}
		h.record(kind, false, false, "")
	case "job-cancel":
		id, ok := h.submitJob(kind, 4*h.n)
		if !ok {
			return
		}
		resp, data, err := h.del("/jobs/" + id)
		if err != nil {
			h.record(kind, false, true, err.Error())
			return
		}
		// 202 means the cancel landed on a running job, 200 that the job
		// was already cancelled when the cancel was applied, 409 that it
		// raced to done/failed first. All three are legal — anything else
		// is not.
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK &&
			(resp.StatusCode != http.StatusConflict || !typedError(data)) {
			h.record(kind, false, true, fmt.Sprintf("cancel status %d: %.120s", resp.StatusCode, data))
			return
		}
		info, err := h.pollJob(id, time.Minute)
		if err != nil {
			h.record(kind, false, true, err.Error())
			return
		}
		if info.State != string(jobs.StateCancelled) && info.State != string(jobs.StateDone) {
			h.record(kind, false, true, fmt.Sprintf("cancelled job %s ended %q (code %q)",
				id, info.State, info.Code))
			return
		}
		h.record(kind, false, false, "")
	case "job-bad":
		resp, data, err := h.post("/jobs", []byte(`{"circuit":"no-such-circuit","n":64}`))
		if err != nil {
			h.record(kind, false, true, err.Error())
			return
		}
		// Validation happens before the journal: a bad spec must be a
		// synchronous typed 400, never an accepted job that later fails.
		if resp.StatusCode != http.StatusBadRequest || !typedError(data) {
			h.record(kind, false, true, fmt.Sprintf("status %d: %.120s", resp.StatusCode, data))
			return
		}
		h.record(kind, false, false, "")
	}
}

var trafficMix = []string{
	"prove", "prove", "verify", "verify", "corrupt", "malformed", "oversized", "cancel",
}

// jobTrafficMix drives -jobs runs: mostly full submit→poll→done cycles,
// with cancels and malformed submissions mixed in.
var jobTrafficMix = []string{
	"job-prove", "job-prove", "job-prove", "job-cancel", "job-bad",
}

// drive fans requests out over client goroutines until the request
// count or the time budget runs out, and returns the elapsed wall time.
func (h *harness) drive(clients, requests int, duration time.Duration, mix []string, seedProof string) time.Duration {
	deadline := time.Now().Add(duration)
	var next int64
	var mu sync.Mutex
	take := func() (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		if requests > 0 && next >= int64(requests) {
			return "", false
		}
		if time.Now().After(deadline) {
			return "", false
		}
		kind := mix[next%int64(len(mix))]
		next++
		return kind, true
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				kind, ok := take()
				if !ok {
					return
				}
				h.fire(kind, seedProof)
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func run() (failed bool, err error) {
	addr := flag.String("addr", "", "server address; empty starts an in-process server")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	requests := flag.Int("requests", 64, "total requests to send (0 = until -duration)")
	duration := flag.Duration("duration", 15*time.Second, "time budget for the run")
	n := flag.Int("n", 256, "circuit size parameter for prove/verify traffic")
	workers := flag.Int("workers", 4, "in-process mode: proving workers")
	queue := flag.Int("queue", 4, "in-process mode: admission queue depth")
	jobsMode := flag.Bool("jobs", false, "exercise the durable async /jobs API (in-process only), including a crash-window journal-tear restart")
	tenants := flag.Int("tenants", 0, "multi-tenant fairness mode (in-process only): N keyed tenants, tenant t0 weighted 4x")
	skew := flag.String("skew", "zipf", "-tenants traffic skew: zipf (t0-heavy) or uniform")
	batchMode := flag.Bool("batch", false, "batched-proving soak (in-process only): coalesced async jobs must prove byte-identical to solo with no cross-tenant fairness regression")
	clusterMode := flag.Bool("cluster", false, "distributed-proving soak (in-process only): coordinator + worker nodes with a mid-run node kill; no client may see a 5xx")
	flag.Parse()

	if *clusterMode {
		if *addr != "" {
			return true, fmt.Errorf("-cluster mode is in-process only; drop -addr")
		}
		return runClusterSoak(*clients, *requests, *duration, *n, *workers, *queue)
	}
	if *batchMode {
		if *addr != "" {
			return true, fmt.Errorf("-batch mode is in-process only; drop -addr")
		}
		return runBatchSoak(*clients, *requests, *duration, *n, *workers, *queue)
	}
	if *jobsMode {
		if *addr != "" {
			return true, fmt.Errorf("-jobs mode is in-process only; drop -addr")
		}
		return runJobs(*clients, *requests, *duration, *n, *workers, *queue)
	}
	if *tenants > 0 {
		if *addr != "" {
			return true, fmt.Errorf("-tenants mode is in-process only; drop -addr")
		}
		if *tenants < 2 {
			return true, fmt.Errorf("-tenants needs at least 2 tenants to say anything about fairness")
		}
		if *skew != "zipf" && *skew != "uniform" {
			return true, fmt.Errorf("-skew must be zipf or uniform, got %q", *skew)
		}
		return runTenants(*clients, *requests, *duration, *n, *workers, *queue, *tenants, *skew)
	}

	var snap *leakcheck.Snapshot
	var arenaBefore nocap.ArenaStats
	var srv *server.Server
	base := *addr
	if base == "" {
		snap = leakcheck.Take()
		arenaBefore = nocap.ReadProveStats().Arena
		var nerr error
		srv, nerr = server.New(server.Config{
			Addr:           "127.0.0.1:0",
			Workers:        *workers,
			QueueDepth:     *queue,
			MemoryBudgetMB: 8,
			Params:         nocap.TestParams(),
		})
		if nerr != nil {
			return true, nerr
		}
		bound, lerr := srv.Listen()
		if lerr != nil {
			return true, lerr
		}
		go srv.Serve()
		base = bound.String()
		fmt.Printf("nocap-loadgen: in-process server on %s (%d workers, queue %d)\n",
			base, *workers, *queue)
	}

	h := &harness{
		base:     "http://" + base,
		client:   &http.Client{Timeout: 2 * time.Minute},
		n:        *n,
		outcomes: make(map[string]*outcome),
	}

	// One seed proof for the verify traffic.
	body, _ := json.Marshal(server.ProveRequest{Circuit: "synthetic", N: *n})
	resp, data, err := h.post("/prove", body)
	if err != nil {
		return true, fmt.Errorf("seed prove: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return true, fmt.Errorf("seed prove: status %d: %.200s", resp.StatusCode, data)
	}
	var seed server.ProveResponse
	if err := json.Unmarshal(data, &seed); err != nil {
		return true, fmt.Errorf("seed prove response: %w", err)
	}

	elapsed := h.drive(*clients, *requests, *duration, trafficMix, seed.ProofB64)

	if srv != nil {
		if err := drain(srv); err != nil {
			return true, fmt.Errorf("drain: %w", err)
		}
	}

	_, violations := report(h, *clients, elapsed)
	if srv != nil {
		failed = checkProcessInvariants(snap, arenaBefore)
	}
	if violations > 0 {
		failed = true
	}
	return failed, nil
}

// report prints the per-kind outcome table and returns totals.
func report(h *harness, clients int, elapsed time.Duration) (sent, violations int64) {
	kinds := make([]string, 0, len(h.outcomes))
	for k := range h.outcomes {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("nocap-loadgen: %d clients, %v\n", clients, elapsed.Round(time.Millisecond))
	fmt.Printf("%-10s %6s %6s %6s %10s\n", "kind", "sent", "ok", "shed", "violations")
	for _, k := range kinds {
		o := h.outcomes[k]
		fmt.Printf("%-10s %6d %6d %6d %10d\n", k, o.sent, o.ok, o.shed, o.violations)
		sent += o.sent
		violations += o.violations
	}
	for _, p := range h.problems {
		fmt.Printf("  violation: %s\n", p)
	}
	fmt.Printf("nocap-loadgen: %d requests, %d violations\n", sent, violations)
	return sent, violations
}

// checkProcessInvariants asserts the in-process end state: every
// goroutine the service and the runs started is gone, and no scratch
// is stranded in the arena.
func checkProcessInvariants(snap *leakcheck.Snapshot, arenaBefore nocap.ArenaStats) (failed bool) {
	if leaked := snap.Leaked(5 * time.Second); len(leaked) > 0 {
		failed = true
		fmt.Printf("FAIL: %d leaked goroutine signature(s):\n", len(leaked))
		for _, sig := range leaked {
			fmt.Printf("  %s\n", sig)
		}
	}
	arenaAfter := nocap.ReadProveStats().Arena
	if arenaAfter.Outstanding != arenaBefore.Outstanding ||
		arenaAfter.OutstandingElems != arenaBefore.OutstandingElems {
		failed = true
		fmt.Printf("FAIL: arena checkouts leaked: %d outstanding (%d elems) vs baseline %d (%d)\n",
			arenaAfter.Outstanding, arenaAfter.OutstandingElems,
			arenaBefore.Outstanding, arenaBefore.OutstandingElems)
	}
	if arenaAfter.DoubleReturns != arenaBefore.DoubleReturns {
		failed = true
		fmt.Printf("FAIL: %d arena double returns during the run\n",
			arenaAfter.DoubleReturns-arenaBefore.DoubleReturns)
	}
	return failed
}

func drain(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// postAs is post with a tenant API key attached.
func (h *harness) postAs(path, key string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

// fireTenant sends one prove or verify as the given tenant. Outcomes
// are recorded under the tenant's ID so the fairness report reads per
// tenant, and a 429 naming any OTHER tenant is a protocol violation —
// quota errors must never bleed across tenants.
func (h *harness) fireTenant(tenantID, key, kind, seedProof string) {
	var body []byte
	path := "/prove"
	if kind == "verify" {
		body, _ = json.Marshal(server.VerifyRequest{Circuit: "synthetic", N: h.n, ProofB64: seedProof})
		path = "/verify"
	} else {
		body, _ = json.Marshal(server.ProveRequest{Circuit: "synthetic", N: h.n})
	}
	resp, data, err := h.postAs(path, key, body)
	if err != nil {
		h.record(tenantID, false, true, err.Error())
		return
	}
	switch resp.StatusCode {
	case http.StatusOK:
		h.record(tenantID, false, false, "")
	case http.StatusTooManyRequests:
		var er server.ErrorResponse
		if json.Unmarshal(data, &er) != nil || er.Code == "" {
			h.record(tenantID, true, true, "untyped 429")
			return
		}
		if er.Tenant != tenantID {
			h.record(tenantID, true, true, fmt.Sprintf(
				"429 for tenant %s blamed on %q: cross-tenant quota bleed", tenantID, er.Tenant))
			return
		}
		h.record(tenantID, true, false, "")
	default:
		h.record(tenantID, false, true, fmt.Sprintf("status %d: %.120s", resp.StatusCode, data))
	}
}

// runTenants is the -tenants mode: an in-process server with N keyed
// tenants (t0 carries DRR weight 4, the rest weight 1), skewed traffic
// (zipf concentrates most load on t0), and fairness assertions on top
// of the usual typed-response, leak, and arena invariants:
//
//   - light tenants are never shed by t0's backlog (zero queue-full
//     429s on their queues — per-tenant isolation),
//   - every light-tenant request admitted is served (no starvation),
//   - light tenants do not queue dramatically longer than the heavy
//     tenant that is causing all the contention.
func runTenants(clients, requests int, duration time.Duration, n, workers, queue, nTenants int, skew string) (failed bool, err error) {
	snap := leakcheck.Take()
	arenaBefore := nocap.ReadProveStats().Arena

	cfgs := make([]tenant.Config, nTenants)
	keys := make([]string, nTenants)
	for i := range cfgs {
		w := 1
		depth := clients // a light tenant can absorb every client at once
		if i == 0 {
			w = 4
			depth = queue // the heavy tenant's queue is the one meant to overflow
		}
		keys[i] = fmt.Sprintf("key-t%d", i)
		cfgs[i] = tenant.Config{ID: fmt.Sprintf("t%d", i), Key: keys[i], Weight: w, QueueDepth: depth}
	}
	srv, err := server.New(server.Config{
		Addr:           "127.0.0.1:0",
		Workers:        workers,
		QueueDepth:     queue,
		MemoryBudgetMB: 8,
		Params:         nocap.TestParams(),
		Tenants:        cfgs,
	})
	if err != nil {
		return true, err
	}
	bound, err := srv.Listen()
	if err != nil {
		return true, err
	}
	go srv.Serve()
	fmt.Printf("nocap-loadgen: in-process multi-tenant server on %s (%d tenants, %s skew, %d workers)\n",
		bound, nTenants, skew, workers)

	h := &harness{
		base:     "http://" + bound.String(),
		client:   &http.Client{Timeout: 2 * time.Minute},
		n:        n,
		outcomes: make(map[string]*outcome),
	}
	body, _ := json.Marshal(server.ProveRequest{Circuit: "synthetic", N: n})
	resp, data, err := h.post("/prove", body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return true, fmt.Errorf("seed prove: %v status %v: %.200s", err, resp.StatusCode, data)
	}
	var seed server.ProveResponse
	if err := json.Unmarshal(data, &seed); err != nil {
		return true, fmt.Errorf("seed prove response: %w", err)
	}

	start := time.Now()
	deadline := start.Add(duration)
	var next int64
	var mu sync.Mutex
	take := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if requests > 0 && next >= int64(requests) {
			return false
		}
		next++
		return !time.Now().After(deadline)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			// Zipf rank 0 is tenant t0: the heavy hitter.
			zipf := rand.NewZipf(rng, 1.5, 1, uint64(nTenants-1))
			for i := 0; take(); i++ {
				ti := int(zipf.Uint64())
				if skew == "uniform" {
					ti = rng.Intn(nTenants)
				}
				kind := "prove"
				if i%3 == 2 {
					kind = "verify"
				}
				h.fireTenant(cfgs[ti].ID, keys[ti], kind, seed.ProofB64)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stats := srv.TenantStats()
	if err := drain(srv); err != nil {
		return true, fmt.Errorf("drain: %w", err)
	}

	_, violations := report(h, clients, elapsed)
	if violations > 0 {
		failed = true
	}

	// Fairness assertions over the scheduler's own ledger.
	var heavy tenantStat
	lights := make([]tenantStat, 0, nTenants-1)
	for _, qs := range stats {
		ts := tenantStat{id: qs.ID, stats: qs}
		if qs.ID == "t0" {
			heavy = ts
		} else if qs.ID != "default" {
			lights = append(lights, ts)
		}
	}
	heavyWait := meanWait(heavy.stats)
	fmt.Printf("nocap-loadgen: heavy %s served %d (shed %d, mean wait %v)\n",
		heavy.id, heavy.stats.Dequeued, heavy.stats.RejectedFull, heavyWait.Round(time.Microsecond))
	for _, l := range lights {
		w := meanWait(l.stats)
		fmt.Printf("nocap-loadgen: light %s served %d (shed %d, mean wait %v)\n",
			l.id, l.stats.Dequeued, l.stats.RejectedFull, w.Round(time.Microsecond))
		if l.stats.RejectedFull != 0 {
			failed = true
			fmt.Printf("FAIL: light tenant %s shed %d requests queue-full; the heavy tenant's backlog leaked into its queue\n",
				l.id, l.stats.RejectedFull)
		}
		if l.stats.Dequeued != l.stats.Enqueued {
			failed = true
			fmt.Printf("FAIL: light tenant %s admitted %d but served %d: starved work left behind\n",
				l.id, l.stats.Enqueued, l.stats.Dequeued)
		}
		// The starvation bound, loosely: a weight-1 tenant under a 4x
		// heavy neighbour still gets served within a small number of
		// rotations, so its queue wait stays within a small multiple of
		// the wait the heavy tenant imposes on itself. The factor is
		// deliberately generous — this is a soak, not a microbenchmark.
		if l.stats.Dequeued > 0 && w > 4*heavyWait+200*time.Millisecond {
			failed = true
			fmt.Printf("FAIL: light tenant %s mean queue wait %v vs heavy %v: starvation bound violated\n",
				l.id, w, heavyWait)
		}
	}
	if checkProcessInvariants(snap, arenaBefore) {
		failed = true
	}
	if !failed {
		fmt.Printf("nocap-loadgen: tenants run clean (%d tenants, %s skew)\n", nTenants, skew)
	}
	return failed, nil
}

type tenantStat struct {
	id    string
	stats tenant.QueueStats
}

func meanWait(qs tenant.QueueStats) time.Duration {
	if qs.Dequeued == 0 {
		return 0
	}
	return time.Duration(qs.QueueWaitNs / qs.Dequeued)
}

// runJobs is the -jobs mode: an in-process server with a durable data
// dir, async submit/poll/cancel traffic, then a crash-window pass that
// parks jobs in flight, drains the server (crash-equivalent: interrupted
// attempts leave no terminal record), tears the journal's final record
// in half, restarts against the same directory, and checks every job
// comes back with exactly one typed terminal state.
func runJobs(clients, requests int, duration time.Duration, n, workers, queue int) (failed bool, err error) {
	snap := leakcheck.Take()
	arenaBefore := nocap.ReadProveStats().Arena
	dir, err := os.MkdirTemp("", "nocap-loadgen-jobs-")
	if err != nil {
		return true, err
	}
	defer os.RemoveAll(dir)

	boot := func() (*server.Server, string, error) {
		srv, err := server.New(server.Config{
			Addr:           "127.0.0.1:0",
			Workers:        workers,
			QueueDepth:     queue,
			MemoryBudgetMB: 8,
			Params:         nocap.TestParams(),
			DataDir:        dir,
			JobBackoffBase: 5 * time.Millisecond,
			JobBackoffMax:  50 * time.Millisecond,
		})
		if err != nil {
			return nil, "", err
		}
		bound, err := srv.Listen()
		if err != nil {
			return nil, "", err
		}
		go srv.Serve()
		base := "http://" + bound.String()
		if err := waitReady(base, 10*time.Second); err != nil {
			return nil, "", err
		}
		return srv, base, nil
	}
	srv, base, err := boot()
	if err != nil {
		return true, err
	}
	fmt.Printf("nocap-loadgen: in-process jobs server on %s (journal in %s)\n", base, dir)

	h := &harness{
		base:     base,
		client:   &http.Client{Timeout: 2 * time.Minute},
		n:        n,
		outcomes: make(map[string]*outcome),
	}
	elapsed := h.drive(clients, requests, duration, jobTrafficMix, "")

	// Crash window: park a few jobs in flight and drain mid-run. The
	// drain is deliberately crash-equivalent — interrupted attempts
	// revert in memory without terminal journal records — and the tear
	// below adds the torn write a real crash can leave mid-append.
	var crashIDs []string
	for i := 0; i < 3; i++ {
		if id, ok := h.submitJob("job-crash", 4*n); ok {
			crashIDs = append(crashIDs, id)
		}
	}
	if err := drain(srv); err != nil {
		return true, fmt.Errorf("drain before crash window: %w", err)
	}
	journalPath := filepath.Join(dir, "journal.jsonl")
	if err := tearJournal(journalPath); err != nil {
		return true, fmt.Errorf("tear journal: %w", err)
	}

	srv, base, err = boot()
	if err != nil {
		return true, fmt.Errorf("restart after crash window: %w", err)
	}
	h.base = base

	// The restarted server must have noticed exactly the one tear.
	if resp, data, merr := h.get("/metrics"); merr != nil || resp.StatusCode != http.StatusOK {
		h.record("job-crash", false, true, fmt.Sprintf("metrics after restart: %v", merr))
	} else if !strings.Contains(string(data), "nocap_jobs_torn_records_total 1") {
		h.record("job-crash", false, true, "restarted server did not report exactly one torn journal record")
	}

	// Every crash-window job must land in exactly one typed terminal
	// state: done (recovered and re-proved, or proved before the drain),
	// or a typed 404 if the torn record was its own accepted record —
	// tearing one record can lose at most one job.
	notFound := 0
	for _, id := range crashIDs {
		resp, data, gerr := h.get("/jobs/" + id)
		if gerr != nil {
			h.record("job-crash", false, true, gerr.Error())
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			if !typedError(data) {
				h.record("job-crash", false, true, "untyped 404 after restart")
				continue
			}
			notFound++
			h.record("job-crash", false, false, "")
			continue
		}
		info, perr := h.pollJob(id, time.Minute)
		if perr != nil {
			h.record("job-crash", false, true, perr.Error())
			continue
		}
		if info.State != string(jobs.StateDone) || info.ProofB64 == "" {
			h.record("job-crash", false, true, fmt.Sprintf("job %s ended %q (code %q) after recovery",
				id, info.State, info.Code))
			continue
		}
		h.record("job-crash", false, false, "")
	}
	if notFound > 1 {
		h.record("job-crash", false, true,
			fmt.Sprintf("%d jobs lost, but tearing one record can lose at most one", notFound))
	}

	if err := drain(srv); err != nil {
		return true, fmt.Errorf("final drain: %w", err)
	}

	// With everything drained, the journal is the proof ledger: at most
	// one terminal record per job, ever.
	if msg := journalTerminalViolation(journalPath); msg != "" {
		h.record("journal", false, true, msg)
	}

	// Durable-state lifecycle soak (DESIGN.md §13): compaction keeps the
	// journal bounded with zero lost terminal states, and sustained disk
	// failure degrades — then recovers — the durable path only.
	if err := durabilitySoak(h, n, workers, queue); err != nil {
		return true, err
	}

	_, violations := report(h, clients, elapsed)
	failed = checkProcessInvariants(snap, arenaBefore)
	if violations > 0 {
		failed = true
	}
	return failed, nil
}

// runBatchSoak is the -batch mode: an in-process server with the async
// batch planner on (DESIGN.md §15), two equal-weight keyed tenants, and
// ZK disabled so proofs are deterministic. Each tenant first proves one
// job solo (a singleton group bypasses BatchExec), then all clients
// burst same-key jobs for both tenants. Every batched proof must be
// byte-identical to its tenant's solo proof, coalescing must actually
// have happened (batch counters on /metrics), and the scheduler ledger
// must show no cross-tenant fairness regression: no queue-full sheds,
// no stranded work, no wait-time divergence under equal load. The
// usual journal, leak, and arena invariants close the run.
func runBatchSoak(clients, requests int, duration time.Duration, n, workers, queue int) (failed bool, err error) {
	snap := leakcheck.Take()
	arenaBefore := nocap.ReadProveStats().Arena
	dir, err := os.MkdirTemp("", "nocap-loadgen-batch-")
	if err != nil {
		return true, err
	}
	defer os.RemoveAll(dir)

	// ZK off so batched output can be byte-compared against the solo
	// path. The plan never shares witness randomness, so this only makes
	// the equality checkable — it does not paper over a leak.
	params := nocap.TestParams()
	params.PCS.ZK = false
	keys := []string{"key-t0", "key-t1"}
	cfgs := []tenant.Config{
		{ID: "t0", Key: keys[0], Weight: 1, QueueDepth: clients + queue},
		{ID: "t1", Key: keys[1], Weight: 1, QueueDepth: clients + queue},
	}
	srv, err := server.New(server.Config{
		Addr:           "127.0.0.1:0",
		Workers:        workers,
		QueueDepth:     queue,
		MemoryBudgetMB: 8,
		Params:         params,
		Tenants:        cfgs,
		DataDir:        dir,
		JobBackoffBase: 5 * time.Millisecond,
		JobBackoffMax:  50 * time.Millisecond,
		JobBatchWindow: 20 * time.Millisecond,
		JobBatchMax:    8,
	})
	if err != nil {
		return true, err
	}
	bound, err := srv.Listen()
	if err != nil {
		return true, err
	}
	go srv.Serve()
	base := "http://" + bound.String()
	if err := waitReady(base, 10*time.Second); err != nil {
		return true, err
	}
	fmt.Printf("nocap-loadgen: in-process batch server on %s (window 20ms, max 8, journal in %s)\n",
		bound, dir)

	h := &harness{
		base:     base,
		client:   &http.Client{Timeout: 2 * time.Minute},
		n:        n,
		outcomes: make(map[string]*outcome),
	}

	// Per-tenant solo baselines: a lone job's group times out alone and
	// proves through the solo Exec path, pinning the reference bytes.
	solo := make([]string, len(keys))
	for ti, key := range keys {
		kind := "batch-" + cfgs[ti].ID
		id, ok := h.submitJobAs(kind, n, key)
		if !ok {
			return true, fmt.Errorf("solo baseline submit for %s failed", cfgs[ti].ID)
		}
		jr, perr := h.pollJobAs(id, time.Minute, key)
		if perr != nil {
			return true, fmt.Errorf("solo baseline for %s: %w", cfgs[ti].ID, perr)
		}
		if jr.State != string(jobs.StateDone) || jr.ProofB64 == "" {
			return true, fmt.Errorf("solo baseline for %s ended %q (code %q)", cfgs[ti].ID, jr.State, jr.Code)
		}
		h.record(kind, false, false, "")
		solo[ti] = jr.ProofB64
	}

	// Burst: every client alternates tenants submitting the same job key,
	// so the planner sees coalescing opportunities under contention.
	start := time.Now()
	deadline := start.Add(duration)
	var next int64
	var mu sync.Mutex
	take := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if requests > 0 && next >= int64(requests) {
			return false
		}
		next++
		return !time.Now().After(deadline)
	}
	ids := make([][]string, len(keys))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; take(); i++ {
				ti := (c + i) % len(keys)
				if id, ok := h.submitJobAs("batch-"+cfgs[ti].ID, n, keys[ti]); ok {
					mu.Lock()
					ids[ti] = append(ids[ti], id)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()

	// Every admitted job must land done with the solo proof bytes: the
	// shared-structure plan may amortize work, never change output — and
	// batching one tenant's jobs must not strand the other's.
	for ti, tenantIDs := range ids {
		kind := "batch-" + cfgs[ti].ID
		for _, id := range tenantIDs {
			jr, perr := h.pollJobAs(id, time.Minute, keys[ti])
			if perr != nil {
				h.record(kind, false, true, perr.Error())
				continue
			}
			switch {
			case jr.State != string(jobs.StateDone):
				h.record(kind, false, true, fmt.Sprintf("job %s ended %q (code %q)", id, jr.State, jr.Code))
			case jr.ProofB64 != solo[ti]:
				h.record(kind, false, true, fmt.Sprintf(
					"job %s proof differs from the solo baseline (%d vs %d b64 bytes)",
					id, len(jr.ProofB64), len(solo[ti])))
			default:
				h.record(kind, false, false, "")
			}
		}
	}
	elapsed := time.Since(start)

	// The run only says something if coalescing actually happened.
	if resp, data, merr := h.get("/metrics"); merr != nil || resp.StatusCode != http.StatusOK {
		h.record("batch-metrics", false, true, fmt.Sprintf("metrics: %v", merr))
	} else {
		text := string(data)
		batches := metricValue(text, "nocap_batches_total")
		saves := metricValue(text, "nocap_batch_amortized_saves_total")
		if batches < 1 || saves < 1 {
			h.record("batch-metrics", false, true, fmt.Sprintf(
				"no coalescing observed (%d batches, %d amortized saves): widen -batch window or raise -clients",
				batches, saves))
		} else {
			h.record("batch-metrics", false, false, "")
			fmt.Printf("nocap-loadgen: %d batches coalesced, %d member setups amortized away\n",
				batches, saves)
		}
	}

	// Fairness over the scheduler's own ledger: equal weights and equal
	// load, so batching must not shed, strand, or slow either tenant
	// relative to the other.
	stats := srv.TenantStats()
	if err := drain(srv); err != nil {
		return true, fmt.Errorf("drain: %w", err)
	}
	waits := make(map[string]time.Duration, len(stats))
	for _, qs := range stats {
		if qs.ID == "default" {
			continue
		}
		w := meanWait(qs)
		waits[qs.ID] = w
		fmt.Printf("nocap-loadgen: tenant %s served %d (shed %d, mean wait %v)\n",
			qs.ID, qs.Dequeued, qs.RejectedFull, w.Round(time.Microsecond))
		if qs.RejectedFull != 0 {
			failed = true
			fmt.Printf("FAIL: tenant %s shed %d queue-full under equal load: batching broke per-tenant isolation\n",
				qs.ID, qs.RejectedFull)
		}
		if qs.Dequeued != qs.Enqueued {
			failed = true
			fmt.Printf("FAIL: tenant %s admitted %d but served %d: the batch planner stranded work\n",
				qs.ID, qs.Enqueued, qs.Dequeued)
		}
	}
	// The divergence bound is deliberately generous — this is a soak,
	// not a microbenchmark — but a batching path that bypassed the DRR
	// charge would blow way past it.
	if w0, w1 := waits["t0"], waits["t1"]; w0 > 4*w1+200*time.Millisecond || w1 > 4*w0+200*time.Millisecond {
		failed = true
		fmt.Printf("FAIL: tenant queue waits diverged under equal load (t0 %v vs t1 %v): batching skewed fairness\n",
			w0, w1)
	}

	// Drained, the journal is the ledger: one terminal record per job.
	if msg := journalTerminalViolation(filepath.Join(dir, "journal.jsonl")); msg != "" {
		h.record("journal", false, true, msg)
	}

	_, violations := report(h, clients, elapsed)
	if checkProcessInvariants(snap, arenaBefore) {
		failed = true
	}
	if violations > 0 {
		failed = true
	}
	if !failed {
		fmt.Printf("nocap-loadgen: batch run clean (byte-identical proofs, fairness intact)\n")
	}
	return failed, nil
}

// runClusterSoak is the -cluster mode: the in-process server runs as a
// cluster coordinator (DESIGN.md §16) with local fallback OFF and a
// short lease TTL, and two in-process worker nodes prove with the real
// prover over the h2c worker plane. Two equal-weight keyed tenants
// drive async jobs end to end; mid-run, worker w0 is Kill()ed while it
// provably holds a lease (its exec is trapped first), and a
// replacement node joins. The soak asserts:
//
//   - zero 5xx ever reaches a client — every submit is a 202 (or a
//     typed 429 shed) and every poll a 200; the node death is absorbed
//     entirely by lease expiry + reassignment,
//   - the parked attempt is refunded and re-proved (lease-expiry and
//     reassign counters move; local fallback stays at zero),
//   - neither tenant is shed queue-full or leaves stranded work, and
//     their mean queue waits do not diverge under equal load,
//   - the drained journal holds at most one terminal record per job,
//   - zero leaked goroutines and a balanced arena.
func runClusterSoak(clients, requests int, duration time.Duration, n, workers, queue int) (failed bool, err error) {
	snap := leakcheck.Take()
	arenaBefore := nocap.ReadProveStats().Arena
	dir, err := os.MkdirTemp("", "nocap-loadgen-cluster-")
	if err != nil {
		return true, err
	}
	defer os.RemoveAll(dir)

	const leaseTTL = 500 * time.Millisecond
	params := nocap.TestParams()
	keys := []string{"key-t0", "key-t1"}
	cfgs := []tenant.Config{
		{ID: "t0", Key: keys[0], Weight: 1, QueueDepth: clients + queue},
		{ID: "t1", Key: keys[1], Weight: 1, QueueDepth: clients + queue},
	}
	srv, err := server.New(server.Config{
		Addr:                 "127.0.0.1:0",
		Workers:              workers,
		QueueDepth:           queue,
		MemoryBudgetMB:       8,
		Params:               params,
		Tenants:              cfgs,
		DataDir:              dir,
		JobBackoffBase:       5 * time.Millisecond,
		JobBackoffMax:        50 * time.Millisecond,
		ClusterEnabled:       true,
		ClusterLeaseTTL:      leaseTTL,
		ClusterLocalFallback: false,
		ClusterSeed:          1,
	})
	if err != nil {
		return true, err
	}
	bound, err := srv.Listen()
	if err != nil {
		return true, err
	}
	go srv.Serve()
	base := "http://" + bound.String()
	if err := waitReady(base, 10*time.Second); err != nil {
		return true, err
	}
	fmt.Printf("nocap-loadgen: in-process cluster coordinator on %s (lease TTL %v, no local fallback, journal in %s)\n",
		bound, leaseTTL, dir)

	// The nodes prove with the real prover — the same Params the
	// coordinator would use in-process, fitted per circuit.
	node := prover.New(prover.Config{Params: params, Timeout: time.Minute})

	// w0's exec can be "trapped": once armed, its next assignment parks
	// until the node dies. That pins a lease on w0 at kill time, so the
	// death deterministically exercises expiry + reassignment instead of
	// racing the prover.
	var trap atomic.Bool
	var trapOnce sync.Once
	trapped := make(chan struct{})
	trapExec := func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		if trap.Load() {
			trapOnce.Do(func() { close(trapped) })
			<-ctx.Done()
			return jobs.Result{}, ctx.Err()
		}
		return node.Exec(ctx, spec)
	}
	startWorker := func(id string, exec jobs.Exec, seed int64) (*cluster.Worker, error) {
		w, werr := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: base,
			ID:          id,
			Slots:       2,
			PollWait:    200 * time.Millisecond,
			RetryBase:   5 * time.Millisecond,
			Exec:        exec,
			BatchExec:   node.BatchExec,
			Seed:        seed,
		})
		if werr != nil {
			return nil, werr
		}
		w.Start()
		return w, nil
	}
	w0, err := startWorker("w0", trapExec, 21)
	if err != nil {
		return true, err
	}
	w1, err := startWorker("w1", node.Exec, 22)
	if err != nil {
		return true, err
	}

	h := &harness{
		base:     base,
		client:   &http.Client{Timeout: 2 * time.Minute},
		n:        n,
		outcomes: make(map[string]*outcome),
	}

	// A node only exists once its first poll lands; traffic before that
	// would be shed no_workers. Gate each phase on the health table.
	waitLive := func(want int) error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, data, gerr := h.get("/healthz")
			if gerr == nil && resp.StatusCode == http.StatusOK {
				var body struct {
					Cluster struct {
						LiveNodes int `json:"live_nodes"`
					} `json:"cluster"`
				}
				if json.Unmarshal(data, &body) == nil && body.Cluster.LiveNodes >= want {
					return nil
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster never reached %d live nodes", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := waitLive(2); err != nil {
		return true, err
	}

	// Full submit→poll→done cycles as alternating tenants. Any non-202
	// submit (beyond a typed 429 shed) and any non-200 poll is recorded
	// as a violation — that is the zero-5xx assertion.
	fireCluster := func(ti, nn int) {
		kind := "cluster-" + cfgs[ti].ID
		id, ok := h.submitJobAs(kind, nn, keys[ti])
		if !ok {
			return
		}
		info, perr := h.pollJobAs(id, time.Minute, keys[ti])
		if perr != nil {
			h.record(kind, false, true, perr.Error())
			return
		}
		if info.State != string(jobs.StateDone) || info.ProofB64 == "" || info.Attempts < 1 {
			h.record(kind, false, true, fmt.Sprintf("job %s ended %q (code %q), attempts %d",
				id, info.State, info.Code, info.Attempts))
			return
		}
		h.record(kind, false, false, "")
	}
	deadline := time.Now().Add(duration)
	driveCluster := func(total int) {
		var next int64
		var mu sync.Mutex
		take := func() (int, bool) {
			mu.Lock()
			defer mu.Unlock()
			if next >= int64(total) || time.Now().After(deadline) {
				return 0, false
			}
			ti := int(next) % len(cfgs)
			next++
			return ti, true
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ti, ok := take()
					if !ok {
						return
					}
					fireCluster(ti, n)
				}
			}()
		}
		wg.Wait()
	}

	start := time.Now()
	driveCluster(requests / 2)

	// Node death. Arm the trap, then queue enough work that w0's free
	// slots must pull an assignment; once it provably holds one, kill it
	// without a goodbye and bring up a replacement. The parked jobs must
	// still finish — through w1 or the replacement — after the lease
	// expires and the attempt is refunded.
	trap.Store(true)
	var victims [][2]string // id, tenant key
	for i := 0; i < 4; i++ {
		ti := i % len(cfgs)
		if id, ok := h.submitJobAs("cluster-kill", 4*n, keys[ti]); ok {
			victims = append(victims, [2]string{id, keys[ti]})
		}
	}
	select {
	case <-trapped:
	case <-time.After(15 * time.Second):
		return true, fmt.Errorf("worker w0 never picked up a kill-window assignment")
	}
	w0.Kill()
	fmt.Printf("nocap-loadgen: killed worker w0 holding a lease; starting replacement w0b\n")
	w0b, err := startWorker("w0b", node.Exec, 23)
	if err != nil {
		return true, err
	}
	if err := waitLive(2); err != nil { // w1 + w0b; w0 decays to dead
		return true, err
	}
	for _, v := range victims {
		id, key := v[0], v[1]
		info, perr := h.pollJobAs(id, time.Minute, key)
		switch {
		case perr != nil:
			h.record("cluster-kill", false, true, perr.Error())
		case info.State != string(jobs.StateDone) || info.ProofB64 == "":
			h.record("cluster-kill", false, true, fmt.Sprintf("job %s ended %q (code %q) after node death",
				id, info.State, info.Code))
		default:
			h.record("cluster-kill", false, false, "")
		}
	}

	// Second traffic phase over the reshaped fleet (w1 + w0b).
	driveCluster(requests - requests/2)
	elapsed := time.Since(start)

	// The run only says something if the death was actually absorbed by
	// the lease machinery — and never papered over by local fallback.
	if resp, data, merr := h.get("/metrics"); merr != nil || resp.StatusCode != http.StatusOK {
		h.record("cluster-metrics", false, true, fmt.Sprintf("metrics: %v", merr))
	} else {
		text := string(data)
		expiries := metricValue(text, "nocap_cluster_lease_expiries_total")
		reassigns := metricValue(text, "nocap_jobs_lease_reassigns_total")
		fallbacks := metricValue(text, "nocap_cluster_local_fallbacks_total")
		completions := metricValue(text, "nocap_cluster_completions_total")
		switch {
		case expiries < 1 || reassigns < 1:
			h.record("cluster-metrics", false, true, fmt.Sprintf(
				"node death left no trace (%d lease expiries, %d reassigns)", expiries, reassigns))
		case fallbacks != 0:
			h.record("cluster-metrics", false, true, fmt.Sprintf(
				"%d local fallbacks with fallback disabled", fallbacks))
		case completions < 1:
			h.record("cluster-metrics", false, true, "no completions went through the worker plane")
		default:
			h.record("cluster-metrics", false, false, "")
			fmt.Printf("nocap-loadgen: %d worker completions, %d lease expiries, %d attempt refunds, 0 local fallbacks\n",
				completions, expiries, reassigns)
		}
	}

	// Starvation-freedom, per tenant: under equal load every admitted
	// job must have run to done. (Cluster attempts execute on worker
	// nodes under the coordinator's stride scheduler, so the server's
	// local DRR ledger below only carries work the cluster hands back.)
	for ti := range cfgs {
		kind := "cluster-" + cfgs[ti].ID
		o := h.outcomes[kind]
		if o == nil || o.ok == 0 || o.ok != o.sent {
			failed = true
			var okN, sent int64
			if o != nil {
				okN, sent = o.ok, o.sent
			}
			fmt.Printf("FAIL: tenant %s finished %d of %d cluster jobs: starved under equal load\n",
				cfgs[ti].ID, okN, sent)
		}
	}

	// Fairness over the scheduler's ledger: equal weights, equal load —
	// distribution must not shed, strand, or skew either tenant.
	stats := srv.TenantStats()
	waits := make(map[string]time.Duration, len(stats))
	for _, qs := range stats {
		if qs.ID == "default" {
			continue
		}
		w := meanWait(qs)
		waits[qs.ID] = w
		fmt.Printf("nocap-loadgen: tenant %s served %d (shed %d, mean wait %v)\n",
			qs.ID, qs.Dequeued, qs.RejectedFull, w.Round(time.Microsecond))
		if qs.RejectedFull != 0 {
			failed = true
			fmt.Printf("FAIL: tenant %s shed %d queue-full under equal load\n", qs.ID, qs.RejectedFull)
		}
		if qs.Dequeued != qs.Enqueued {
			failed = true
			fmt.Printf("FAIL: tenant %s admitted %d but served %d: distribution stranded work\n",
				qs.ID, qs.Enqueued, qs.Dequeued)
		}
	}
	if w0t, w1t := waits["t0"], waits["t1"]; w0t > 4*w1t+200*time.Millisecond || w1t > 4*w0t+200*time.Millisecond {
		failed = true
		fmt.Printf("FAIL: tenant queue waits diverged under equal load (t0 %v vs t1 %v)\n", w0t, w1t)
	}

	// Tear down the fleet before the leak check: live workers drain,
	// the killed one just needs its goroutines reaped.
	stopCtx, stopCancel := context.WithTimeout(context.Background(), 15*time.Second)
	for _, w := range []*cluster.Worker{w1, w0b, w0} {
		if serr := w.Stop(stopCtx); serr != nil {
			failed = true
			fmt.Printf("FAIL: worker stop: %v\n", serr)
		}
	}
	stopCancel()
	if err := drain(srv); err != nil {
		return true, fmt.Errorf("drain: %w", err)
	}

	// Drained, the journal is the ledger: at most one terminal record
	// per job, node death or not.
	if msg := journalTerminalViolation(filepath.Join(dir, "journal.jsonl")); msg != "" {
		h.record("journal", false, true, msg)
	}

	_, violations := report(h, clients, elapsed)
	if checkProcessInvariants(snap, arenaBefore) {
		failed = true
	}
	if violations > 0 {
		failed = true
	}
	if !failed {
		fmt.Printf("nocap-loadgen: cluster run clean (node death absorbed, zero 5xx, fairness intact)\n")
	}
	return failed, nil
}

// metricValue extracts a numeric Prometheus sample by exact metric
// name, or 0 if absent.
func metricValue(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, perr := strconv.ParseFloat(strings.TrimSpace(rest), 64); perr == nil {
				return int64(v)
			}
		}
	}
	return 0
}

// durabilitySoak runs the durable-state lifecycle passes on a fresh
// data directory (DESIGN.md §13):
//
//  1. Compaction soak — a tight journal record cap with a fast
//     compaction tick while jobs churn. The journal must stay bounded,
//     compactions must actually happen, and a restart over the
//     compacted state (snapshot + tail) must recover every terminal
//     job with byte-identical proofs: zero lost terminal states.
//  2. Degraded-mode pass — injected journal-append failure (the
//     ENOSPC equivalent) must fail the first DegradedThreshold
//     submissions loudly, then flip POST /jobs to a typed 503
//     "degraded" with Retry-After while synchronous /prove and polls
//     of done jobs keep serving; disarming the fault must exit
//     degraded mode through the background probe with no restart.
func durabilitySoak(h *harness, n, workers, queue int) error {
	const recordCap = 16
	const degradedThreshold = 3
	dir, err := os.MkdirTemp("", "nocap-loadgen-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	boot := func() (*server.Server, string, error) {
		srv, err := server.New(server.Config{
			Addr:                 "127.0.0.1:0",
			Workers:              workers,
			QueueDepth:           queue,
			MemoryBudgetMB:       8,
			Params:               nocap.TestParams(),
			DataDir:              dir,
			JobBackoffBase:       5 * time.Millisecond,
			JobBackoffMax:        50 * time.Millisecond,
			JobJournalMaxRecords: recordCap,
			JobCompactCheck:      10 * time.Millisecond,
			JobDegradedThreshold: degradedThreshold,
			JobProbeInterval:     10 * time.Millisecond,
		})
		if err != nil {
			return nil, "", err
		}
		bound, err := srv.Listen()
		if err != nil {
			return nil, "", err
		}
		go srv.Serve()
		base := "http://" + bound.String()
		if err := waitReady(base, 10*time.Second); err != nil {
			return nil, "", err
		}
		return srv, base, nil
	}
	srv, base, err := boot()
	if err != nil {
		return fmt.Errorf("durability soak boot: %w", err)
	}
	h.base = base
	fmt.Printf("nocap-loadgen: durability soak on %s (record cap %d, journal in %s)\n", base, recordCap, dir)

	// Pass 1: churn enough jobs that the journal overruns its cap
	// several times over, keeping every proof for the restart check.
	proofs := make(map[string]string)
	ids := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		id, ok := h.submitJob("job-compact", n)
		if !ok {
			continue
		}
		info, perr := h.pollJob(id, time.Minute)
		if perr != nil || info.State != string(jobs.StateDone) || info.ProofB64 == "" {
			h.record("job-compact", false, true, fmt.Sprintf("job %s: %v state %q", id, perr, info.State))
			continue
		}
		ids = append(ids, id)
		proofs[id] = info.ProofB64
		h.record("job-compact", false, false, "")
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		jm := srv.JobsMetrics()
		if jm.Compactions >= 1 && jm.JournalRecords < 2*recordCap {
			fmt.Printf("nocap-loadgen: %d compactions, journal at %d records (cap %d), %d B snapshot\n",
				jm.Compactions, jm.JournalRecords, recordCap, jm.SnapshotBytes)
			break
		}
		if time.Now().After(deadline) {
			h.record("job-compact", false, true,
				fmt.Sprintf("journal never compacted under cap: %d compactions, %d records", jm.Compactions, jm.JournalRecords))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := drain(srv); err != nil {
		return fmt.Errorf("drain before compacted restart: %w", err)
	}

	// Restart over snapshot + tail: every terminal job must come back
	// with the exact proof bytes it finished with.
	srv, base, err = boot()
	if err != nil {
		return fmt.Errorf("restart over compacted state: %w", err)
	}
	h.base = base
	for _, id := range ids {
		info, perr := h.pollJob(id, time.Minute)
		switch {
		case perr != nil:
			h.record("job-compact", false, true, fmt.Sprintf("job %s after compacted restart: %v", id, perr))
		case info.State != string(jobs.StateDone):
			h.record("job-compact", false, true, fmt.Sprintf("job %s after compacted restart: state %q", id, info.State))
		case info.ProofB64 != proofs[id]:
			h.record("job-compact", false, true, fmt.Sprintf("job %s proof changed across compacted restart", id))
		default:
			h.record("job-compact", false, false, "")
		}
	}

	// Pass 2: sustained disk failure. All workers are idle (every job is
	// terminal), so the only journal writes are the submissions below
	// and, once degraded, the recovery probe.
	defer faultinject.Disarm()
	faultinject.MustArm(faultinject.Plan{
		Point: "jobs.journal.append",
		Kind:  faultinject.Error,
		Count: 1 << 30,
	})
	body, _ := json.Marshal(server.ProveRequest{Circuit: "synthetic", N: n})
	for i := 0; i < degradedThreshold; i++ {
		resp, data, perr := h.post("/jobs", body)
		if perr != nil {
			h.record("job-degraded", false, true, perr.Error())
		} else if resp.StatusCode != http.StatusInternalServerError || !typedError(data) {
			h.record("job-degraded", false, true,
				fmt.Sprintf("submit %d during disk failure: status %d: %.120s", i, resp.StatusCode, data))
		} else {
			h.record("job-degraded", false, false, "")
		}
	}
	resp, data, perr := h.post("/jobs", body)
	switch {
	case perr != nil:
		h.record("job-degraded", false, true, perr.Error())
	case resp.StatusCode != http.StatusServiceUnavailable:
		h.record("job-degraded", false, true, fmt.Sprintf("degraded submit: status %d: %.120s", resp.StatusCode, data))
	case resp.Header.Get("Retry-After") == "":
		h.record("job-degraded", false, true, "degraded 503 missing Retry-After")
	default:
		var er server.ErrorResponse
		if json.Unmarshal(data, &er) != nil || er.Code != "degraded" {
			h.record("job-degraded", false, true, fmt.Sprintf("degraded 503 code %q", er.Code))
		} else {
			h.record("job-degraded", false, false, "")
		}
	}
	// The non-durable surface must not notice: sync prove and polls of
	// already-terminal jobs keep answering 200.
	if resp, data, perr := h.post("/prove", body); perr != nil || resp.StatusCode != http.StatusOK {
		h.record("job-degraded", false, true, fmt.Sprintf("sync /prove during degraded: %v status %d: %.120s", perr, respStatus(resp), data))
	} else {
		h.record("job-degraded", false, false, "")
	}
	if len(ids) > 0 {
		if _, perr := h.pollJob(ids[0], time.Minute); perr != nil {
			h.record("job-degraded", false, true, fmt.Sprintf("poll during degraded: %v", perr))
		} else {
			h.record("job-degraded", false, false, "")
		}
	}

	// Disk heals: the probe's first successful write exits degraded mode
	// and submissions are accepted again, with the job running to done.
	faultinject.Disarm()
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, data, perr := h.post("/jobs", body)
		if perr == nil && resp.StatusCode == http.StatusAccepted {
			var jr server.JobResponse
			if json.Unmarshal(data, &jr) != nil || jr.ID == "" {
				h.record("job-degraded", false, true, "post-recovery 202 without a job id")
				break
			}
			info, perr := h.pollJob(jr.ID, time.Minute)
			if perr != nil || info.State != string(jobs.StateDone) {
				h.record("job-degraded", false, true, fmt.Sprintf("post-recovery job: %v state %q", perr, info.State))
			} else {
				h.record("job-degraded", false, false, "")
			}
			break
		}
		if time.Now().After(deadline) {
			h.record("job-degraded", false, true,
				fmt.Sprintf("server never recovered from degraded mode (last status %d: %.120s)", respStatus(resp), data))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return drain(srv)
}

// respStatus is a nil-safe status accessor for violation messages.
func respStatus(resp *http.Response) int {
	if resp == nil {
		return 0
	}
	return resp.StatusCode
}

// waitReady polls /readyz until the server finishes journal recovery
// and reports ready.
func waitReady(base string, budget time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready within %v", budget)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tearJournal simulates a crash mid-append: it cuts the journal's final
// record in half, leaving an unterminated JSON prefix with no newline.
func tearJournal(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	trimmed := bytes.TrimSuffix(data, []byte("\n"))
	idx := bytes.LastIndexByte(trimmed, '\n') + 1
	last := trimmed[idx:]
	if len(last) < 2 {
		return fmt.Errorf("journal too small to tear (%d bytes)", len(data))
	}
	return os.Truncate(path, int64(idx+len(last)/2))
}

// journalTerminalViolation scans the journal for the exactly-once
// ledger invariant: at most one done/failed/cancelled record per job.
func journalTerminalViolation(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Sprintf("read journal: %v", err)
	}
	terminal := make(map[string]int)
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Job   string `json:"job"`
			State string `json:"state"`
		}
		if json.Unmarshal(line, &rec) != nil {
			continue // a torn tail is the parser's problem, not ours
		}
		if jobs.State(rec.State).Terminal() {
			terminal[rec.Job]++
		}
	}
	for job, count := range terminal {
		if count > 1 {
			return fmt.Sprintf("job %s has %d terminal journal records", job, count)
		}
	}
	return ""
}

func main() {
	failed, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocap-loadgen: %v\n", err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "nocap-loadgen: FAIL")
		os.Exit(1)
	}
	fmt.Println("nocap-loadgen: PASS")
}
