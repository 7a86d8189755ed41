package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"nocap"
	"nocap/internal/cluster"
	"nocap/internal/code"
	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/jobs"
	"nocap/internal/kernel"
	"nocap/internal/merkle"
	"nocap/internal/ntt"
	"nocap/internal/pcs"
	"nocap/internal/poly"
	"nocap/internal/proofcache"
	"nocap/internal/sumcheck"
	"nocap/internal/tenant"
	"nocap/internal/transcript"
)

// The layers probe pass: a single caller timing direct calls into each
// internal package's exported functions, on inputs shaped like
// lib-prove-2p16's commitment (2^17 witness entries as 128 rows of
// 1024, padded with the 189 ZK columns to 2048-entry messages, encoded
// to 8192; 12 mask rows), so a layer's number can be set beside its
// share of that workload.
const (
	probeLogWitness = 17
	probeRows       = 128
	probeMsgLen     = 2048
	probeEncLen     = 8192
	probeDepth      = 140 // rows + ZK mask rows hashed into one column leaf
)

// probeCalls and probeFor end a probe, whichever comes first, but never
// before probeMin calls; the reported figure is the median call.
const (
	probeCalls = 20
	probeMin   = 3
	probeFor   = 150 * time.Millisecond
)

type probeDef struct {
	name string
	unit string
}

// probeDefs lists the probes in print order; runProbes measures exactly
// these.
var probeDefs = []probeDef{
	{"field.vecmul_ns_per_elem", "ns"}, {"field.batchinv_ns_per_elem", "ns"},
	{"ntt.forward_ms", "ms"}, {"ntt.fourstep_ms", "ms"}, {"code.rs_encode_ms", "ms"},
	{"kernel.fold_ms", "ms"}, {"kernel.eqexpand_ms", "ms"}, {"kernel.veccombine_ms", "ms"},
	{"kernel.spmv_ms", "ms"}, {"kernel.column_leaves_ms", "ms"}, {"kernel.merkle_level_ms", "ms"},
	{"hashfn.sha3.hash2_ns", "ns"}, {"hashfn.keccak-x4.hash2_ns", "ns"}, {"hashfn.hashelems_ns_per_elem", "ns"},
	{"merkle.build_ms", "ms"}, {"merkle.open_verify_us", "us"},
	{"poly.eqtable_ms", "ms"}, {"poly.mle_fold_ms", "ms"},
	{"sumcheck.prove_deg3_ms", "ms"}, {"sumcheck.prove_deg2_ms", "ms"},
	{"r1cs.spmv_ms", "ms"}, {"r1cs.digest_ms", "ms"},
	{"pcs.commit_ms", "ms"}, {"pcs.open_ms", "ms"}, {"pcs.verify_ms", "ms"},
	{"transcript.challenge_ns", "ns"}, {"proofcache.acquire_hit_us", "us"}, {"tenant.sched_roundtrip_ns", "ns"},
	{"jobs.noop_submit_ms", "ms"}, {"jobs.noop_submit_to_done_ms", "ms"}, {"cluster.noop_dispatch_ms", "ms"},
}

// timeCall runs call under the probe's stopping rule and returns the
// median duration. call does its own untimed preparation and returns
// only the time of the call being probed.
func timeCall(call func() time.Duration) time.Duration {
	var samples []float64
	start := time.Now()
	for len(samples) < probeMin || (len(samples) < probeCalls && time.Since(start) < probeFor) {
		samples = append(samples, float64(call()))
	}
	return time.Duration(median(samples))
}

// timed is the common case: nothing to prepare per call.
func timed(fn func()) func() time.Duration {
	return func() time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	}
}

func randElems(rng *rand.Rand, n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i] = field.New(rng.Uint64())
	}
	return out
}

// runProbes measures every probe in probeDefs. Inputs are fixed (seed
// 1): the probes compare commits, not request mixes.
func runProbes(workDir string) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	out := map[string]float64{}
	// put records a probe whose call does `per` units of work, in unit.
	put := func(name string, unit time.Duration, per int, call func() time.Duration) {
		out[name] = float64(timeCall(call)) / float64(unit) / float64(per)
	}
	inMS := func(name string, call func() time.Duration) { put(name, time.Millisecond, 1, call) }
	inNS := func(name string, per int, call func() time.Duration) { put(name, time.Nanosecond, per, call) }

	n := 1 << probeLogWitness
	a, b, scratch := randElems(rng, n), randElems(rng, n), make([]field.Element, n)
	inNS("field.vecmul_ns_per_elem", n, timed(func() { field.VecMul(scratch, a, b) }))
	inNS("field.batchinv_ns_per_elem", n, func() time.Duration {
		copy(scratch, a)
		return timed(func() { field.BatchInv(scratch) })()
	})

	row := randElems(rng, probeEncLen)
	enc := make([]field.Element, probeEncLen)
	inMS("ntt.forward_ms", func() time.Duration {
		copy(enc, row)
		return timed(func() { ntt.Forward(enc) })()
	})
	inMS("ntt.fourstep_ms", func() time.Duration {
		copy(enc, row)
		return timed(func() { ntt.FourStep(enc, 64, probeEncLen/64) })()
	})
	rs := code.NewReedSolomon()
	inMS("code.rs_encode_ms", timed(func() { rs.Encode(row[:probeMsgLen]) }))

	point := randElems(rng, probeLogWitness)
	inMS("kernel.fold_ms", func() time.Duration {
		copy(scratch, a)
		return timed(func() { kernel.Fold(scratch, point[0]) })()
	})
	inMS("kernel.eqexpand_ms", timed(func() { kernel.EqExpand(scratch, point) }))
	rows := make([][]field.Element, probeDepth)
	for i := range rows {
		rows[i] = randElems(rng, probeEncLen)
	}
	coeffs := randElems(rng, probeRows)
	inMS("kernel.veccombine_ms", func() time.Duration {
		dst := scratch[:probeMsgLen]
		clear(dst)
		return timed(func() { kernel.VecCombine(dst, coeffs, rows[:probeRows]) })()
	})

	bm := nocap.Synthetic(1 << 16)
	inst := bm.Inst
	z := inst.AssembleZ(bm.IO, bm.Witness)
	az := make([]field.Element, inst.NumConstraints())
	var err error
	inMS("kernel.spmv_ms", timed(func() { err = firstErr(err, kernel.SpMVCtx(ctx, az, inst.A.Rows, z)) }))

	sha3, _ := hashfn.ByName("sha3")
	x4, ok := hashfn.ByName("keccak-x4")
	if !ok {
		return nil, fmt.Errorf("hash engine keccak-x4 is not registered")
	}
	leaves := make([]hashfn.Digest, probeEncLen)
	inMS("kernel.column_leaves_ms", timed(func() { err = firstErr(err, kernel.ColumnLeavesCtx(ctx, sha3, leaves, rows)) }))
	level := make([]hashfn.Digest, probeEncLen/2)
	inMS("kernel.merkle_level_ms", timed(func() { err = firstErr(err, kernel.MerkleLevelCtx(ctx, sha3, level, leaves)) }))
	inNS("hashfn.sha3.hash2_ns", len(level), timed(func() { sha3.CompressMany(level, leaves) }))
	inNS("hashfn.keccak-x4.hash2_ns", len(level), timed(func() { x4.CompressMany(level, leaves) }))
	column := randElems(rng, probeDepth)
	inNS("hashfn.hashelems_ns_per_elem", probeDepth*64, timed(func() {
		for range 64 {
			hashfn.HashElems(column)
		}
	}))

	var tree *merkle.Tree
	inMS("merkle.build_ms", timed(func() {
		var terr error
		tree, terr = merkle.NewEngineCtx(ctx, sha3, leaves)
		err = firstErr(err, terr)
	}))
	if err != nil {
		return nil, err
	}
	put("merkle.open_verify_us", time.Microsecond, 1, timed(func() {
		i := rng.Intn(len(leaves))
		err = firstErr(err, merkle.Verify(tree.Root(), leaves[i], tree.Open(i)))
	}))

	inMS("poly.eqtable_ms", timed(func() { poly.EqTable(point) }))
	inMS("poly.mle_fold_ms", func() time.Duration {
		copy(scratch, a)
		m := poly.NewMLE(scratch)
		return timed(func() { m.Fold(point[0]) })()
	})

	// The two sumchecks of one Spartan repetition: degree 3 over the
	// constraints (eq·(a·b−c)), degree 2 over the variables (m·z).
	outer := [][]field.Element{randElems(rng, 1<<16), randElems(rng, 1<<16), randElems(rng, 1<<16), randElems(rng, 1<<16)}
	inMS("sumcheck.prove_deg3_ms", func() time.Duration {
		mles := make([]*poly.MLE, len(outer))
		for i, v := range outer {
			mles[i] = poly.NewMLE(append([]field.Element(nil), v...))
		}
		tr := transcript.New("probe")
		return timed(func() {
			sumcheck.Prove(tr, "outer", field.Zero, mles, 3, func(v []field.Element) field.Element {
				return field.Mul(v[0], field.Sub(field.Mul(v[1], v[2]), v[3]))
			})
		})()
	})
	inner := [][]field.Element{randElems(rng, 1<<18), z}
	inMS("sumcheck.prove_deg2_ms", func() time.Duration {
		mles := make([]*poly.MLE, len(inner))
		for i, v := range inner {
			mles[i] = poly.NewMLE(append([]field.Element(nil), v...))
		}
		tr := transcript.New("probe")
		return timed(func() {
			sumcheck.Prove(tr, "inner", field.Zero, mles, 2, func(v []field.Element) field.Element {
				return field.Mul(v[0], v[1])
			})
		})()
	})

	inMS("r1cs.spmv_ms", timed(func() {
		_, merr := inst.A.MulCtx(ctx, z)
		err = firstErr(err, merr)
	}))
	// Instance.Digest caches; the keccak-x4 engine hashes the same
	// serialization afresh on every call.
	inMS("r1cs.digest_ms", timed(func() { inst.DigestEngine(x4) }))

	pp := pcs.DefaultParams()
	var st *pcs.ProverState
	inMS("pcs.commit_ms", func() time.Duration {
		if st != nil {
			st.Close()
		}
		return timed(func() {
			var cerr error
			st, cerr = pcs.CommitCtx(ctx, pp, bm.Witness)
			err = firstErr(err, cerr)
		})()
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	points := [][]field.Element{randElems(rng, probeLogWitness), randElems(rng, probeLogWitness), randElems(rng, probeLogWitness)}
	var opening *pcs.OpeningProof
	var values []field.Element
	inMS("pcs.open_ms", timed(func() {
		var oerr error
		opening, values, oerr = st.OpenCtx(ctx, transcript.New("probe"), points)
		err = firstErr(err, oerr)
	}))
	if err != nil {
		return nil, err
	}
	inMS("pcs.verify_ms", timed(func() {
		err = firstErr(err, pcs.VerifyCtx(ctx, pp, st.Commitment(), transcript.New("probe"), points, values, opening))
	}))

	tr := transcript.New("probe")
	inNS("transcript.challenge_ns", 256, timed(func() {
		for range 256 {
			tr.Challenge("c")
		}
	}))

	cache := proofcache.New(proofcache.Config{MaxBytes: 64 << 20})
	var key proofcache.Key
	if acq := cache.Acquire(key); acq.Leader {
		_, cerr := cache.Commit(ctx, key, make([]byte, 400<<10), func(context.Context, []byte) error { return nil })
		err = firstErr(err, cerr)
	}
	put("proofcache.acquire_hit_us", time.Microsecond, 256, timed(func() {
		for range 256 {
			if !cache.Acquire(key).Hit {
				err = firstErr(err, fmt.Errorf("proofcache probe missed"))
			}
		}
	}))

	sched := tenant.NewScheduler([]tenant.QueueConfig{{ID: tenant.DefaultID, Weight: 1, Depth: 4}})
	inNS("tenant.sched_roundtrip_ns", 256, timed(func() {
		for range 256 {
			err = firstErr(err, sched.Enqueue(tenant.DefaultID, 0, 1))
			sched.Dequeue()
			sched.Done(tenant.DefaultID)
		}
	}))
	sched.Stop()
	if err != nil {
		return nil, err
	}

	if err := probeJobs(filepath.Join(workDir, "probe-jobs"), out); err != nil {
		return nil, err
	}
	if err := probeCluster(out); err != nil {
		return nil, err
	}
	return out, nil
}

func firstErr(err, next error) error {
	if err != nil {
		return err
	}
	return next
}

func noopExec(context.Context, jobs.Spec) (jobs.Result, error) { return jobs.Result{}, nil }

// probeJobs times a job that proves nothing through a real journal on a
// real directory: what is left is append+fsync, the dispatcher and the
// terminal record.
func probeJobs(dir string, out map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mgr, err := jobs.Open(jobs.Config{Dir: dir, Exec: noopExec, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	ctx := context.Background()
	var submit, done []float64
	start := time.Now()
	for len(done) < probeMin || (len(done) < probeCalls && time.Since(start) < probeFor) {
		t0 := time.Now()
		id, err := mgr.Submit(jobs.Spec{Payload: []byte(`{}`)})
		if err != nil {
			return err
		}
		submit = append(submit, ms(time.Since(t0)))
		if _, err := mgr.Wait(ctx, id); err != nil {
			return err
		}
		done = append(done, ms(time.Since(t0)))
	}
	out["jobs.noop_submit_ms"] = median(submit)
	out["jobs.noop_submit_to_done_ms"] = median(done)
	return mgr.Close(ctx)
}

// probeCluster times one lease round trip: a coordinator served over
// h2c on loopback, one worker whose Exec does nothing.
func probeCluster(out map[string]float64) error {
	coord := cluster.New(cluster.Config{Seed: 1})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/poll", coord.HandlePoll)
	mux.HandleFunc("POST /cluster/heartbeat", coord.HandleHeartbeat)
	mux.HandleFunc("POST /cluster/complete", coord.HandleComplete)
	protos := new(http.Protocols)
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	srv := &http.Server{Handler: mux, Protocols: protos}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: "http://" + ln.Addr().String(), ID: "probe-w0", Exec: noopExec, Seed: 1,
	})
	if err == nil {
		w.Start()
		for !coord.HasLiveWorkers() && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		var execErr error
		out["cluster.noop_dispatch_ms"] = ms(timeCall(timed(func() {
			_, eerr := coord.Exec(ctx, jobs.Spec{Payload: []byte(`{}`)})
			execErr = firstErr(execErr, eerr)
		})))
		err = firstErr(execErr, w.Stop(ctx))
	}
	coord.Close()
	err = firstErr(err, srv.Shutdown(ctx))
	if serr := <-served; serr != http.ErrServerClosed {
		err = firstErr(err, serr)
	}
	return err
}
