package nocap_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"nocap"
	"nocap/internal/leakcheck"
)

// deterministic reduces a ProveStats to the counters that depend only on
// the circuit and parameters: kernel calls and element counts, arena
// checkout and return counts. Wall time and the pool hit/miss split vary
// with scheduling and pool state, so equality assertions exclude them.
func deterministic(s nocap.ProveStats) nocap.ProveStats {
	for _, ss := range []*nocap.StageStats{
		&s.Stages.Sumcheck, &s.Stages.Encode, &s.Stages.Merkle,
		&s.Stages.SpMV, &s.Stages.Poly,
	} {
		ss.Wall = 0
	}
	s.Arena.Hits, s.Arena.Misses = 0, 0
	return s
}

// soloStats proves the benchmark once under its own collector with
// nothing else running, returning the per-run stats — the ground truth
// a concurrent run of the same circuit must reproduce exactly.
func soloStats(t *testing.T, params nocap.Params, bm *nocap.Benchmark) nocap.ProveStats {
	t.Helper()
	col := nocap.NewCollector()
	if _, err := nocap.ProveCtx(col.Attach(context.Background()), params, bm.Inst, bm.IO, bm.Witness); err != nil {
		t.Fatal(err)
	}
	return col.Stats()
}

// TestConcurrentProveAttribution is the acceptance test for per-run
// stats isolation: two overlapping ProveCtx calls with different circuit
// sizes, each with its own collector. Each collector must report exactly
// the work its own run did (equal to a solo run of the same circuit),
// the two collectors must sum to the process-global delta (no work lost
// or double-counted), per-run wall time must respect elapsed-time
// bounds, and nothing — goroutines or arena checkouts — may leak.
func TestConcurrentProveAttribution(t *testing.T) {
	snap := leakcheck.Take()
	params := nocap.TestParams()
	small := nocap.Synthetic(1 << 10)
	large := nocap.Synthetic(1 << 12)

	soloSmall := deterministic(soloStats(t, params, small))
	soloLarge := deterministic(soloStats(t, params, large))
	if soloSmall == soloLarge {
		t.Fatalf("test is vacuous: both circuits produce identical counters %+v", soloSmall)
	}

	before := nocap.ReadProveStats()
	colSmall, colLarge := nocap.NewCollector(), nocap.NewCollector()
	start := time.Now()
	var wg sync.WaitGroup
	for _, run := range []struct {
		col *nocap.Collector
		bm  *nocap.Benchmark
	}{{colSmall, small}, {colLarge, large}} {
		wg.Add(1)
		go func(col *nocap.Collector, bm *nocap.Benchmark) {
			defer wg.Done()
			if _, err := nocap.ProveCtx(col.Attach(context.Background()), params, bm.Inst, bm.IO, bm.Witness); err != nil {
				t.Error(err)
			}
		}(run.col, run.bm)
	}
	wg.Wait()
	elapsed := time.Since(start)
	delta := nocap.ReadProveStats().Delta(before)

	runSmall, runLarge := colSmall.Stats(), colLarge.Stats()

	// 1. Isolation: each run's deterministic counters match its solo
	// baseline exactly, overlap or not.
	if got := deterministic(runSmall); got != soloSmall {
		t.Errorf("small run's counters polluted by concurrent large run:\n solo: %+v\n conc: %+v", soloSmall, got)
	}
	if got := deterministic(runLarge); got != soloLarge {
		t.Errorf("large run's counters polluted by concurrent small run:\n solo: %+v\n conc: %+v", soloLarge, got)
	}

	// 2. Conservation: the two collectors partition the global delta —
	// every counter, including wall time and the hit/miss split, since
	// each span and checkout credits its collector and the aggregate with
	// identical increments and nothing else proved during the window.
	if sum := runSmall.Plus(runLarge); sum != delta {
		t.Errorf("collector sum != aggregate delta:\n sum:   %+v\n delta: %+v", sum, delta)
	}

	// 3. Wall-time sanity: stages timed from the coordinating goroutine
	// can never exceed the run's elapsed time. RS-encode spans run on the
	// pool workers themselves, so their sum is CPU time, bounded by
	// elapsed × worker count.
	for _, run := range []nocap.ProveStats{runSmall, runLarge} {
		for name, ss := range map[string]nocap.StageStats{
			"sumcheck":   run.Stages.Sumcheck,
			"merkle":     run.Stages.Merkle,
			"spmv":       run.Stages.SpMV,
			"poly-arith": run.Stages.Poly,
		} {
			if ss.Wall > elapsed {
				t.Errorf("%s wall %v exceeds elapsed %v: span timing double-counts", name, ss.Wall, elapsed)
			}
		}
		if bound := elapsed * time.Duration(max(runtime.GOMAXPROCS(0), 1)); run.Stages.Encode.Wall > bound {
			t.Errorf("rs-encode wall %v exceeds elapsed×workers %v", run.Stages.Encode.Wall, bound)
		}
	}

	// 4. Hygiene: both runs returned all scratch; no goroutines leaked.
	for _, run := range []nocap.ProveStats{runSmall, runLarge} {
		if run.Arena.Outstanding != 0 || run.Arena.OutstandingElems != 0 {
			t.Errorf("run leaked arena scratch: %+v", run.Arena)
		}
	}
	snap.Check(t)
}

// TestConcurrentProveAttributionBatched extends the attribution
// acceptance test to the batched path (DESIGN.md §15): the shared plan
// is built under its own collector, its stats are split exactly across
// the member collectors (each job is credited its proportional share of
// the shared work exactly once), and the members prove through the plan
// under their own collectors. Conservation must still hold —
// sum(member collectors) == aggregate delta, counter for counter — and
// with ZK off every member proof must be byte-identical to the solo
// proof of the same statement.
func TestConcurrentProveAttributionBatched(t *testing.T) {
	snap := leakcheck.Take()
	params := nocap.TestParams()
	params.PCS.ZK = false // deterministic proofs for the byte-identity check

	const circuit, n = "synthetic", 1 << 10
	bm := nocap.Synthetic(n)
	soloProof, err := nocap.Prove(params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		t.Fatal(err)
	}
	soloBytes, err := nocap.MarshalProof(soloProof)
	if err != nil {
		t.Fatal(err)
	}

	const members = 4
	before := nocap.ReadProveStats()

	// Once-per-batch work runs under the plan's own collector…
	planCol := nocap.NewCollector()
	plan, err := nocap.NewBatchPlanCtx(planCol.Attach(context.Background()), params, circuit, n)
	if err != nil {
		t.Fatal(err)
	}
	// …and is handed to the members in exact proportional shares, so the
	// plan collector itself drops out of the conservation sum.
	shares := nocap.SplitProveStats(planCol.Stats(), members)

	cols := make([]*nocap.Collector, members)
	proofs := make([][]byte, members)
	var wg sync.WaitGroup
	for i := 0; i < members; i++ {
		cols[i] = nocap.NewCollector()
		cols[i].AddStats(shares[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := plan.ProveMemberCtx(cols[i].Attach(context.Background()))
			if err != nil {
				t.Error(err)
				return
			}
			b, err := nocap.MarshalProof(p)
			if err != nil {
				t.Error(err)
				return
			}
			proofs[i] = b
		}(i)
	}
	wg.Wait()
	delta := nocap.ReadProveStats().Delta(before)

	// Byte-identity: every member proof equals the solo proof.
	for i, b := range proofs {
		if string(b) != string(soloBytes) {
			t.Errorf("member %d proof differs from solo proof (%d vs %d bytes)", i, len(b), len(soloBytes))
		}
	}

	// Conservation: member collectors (shared shares included) partition
	// the aggregate delta exactly.
	sum := cols[0].Stats()
	for i := 1; i < members; i++ {
		sum = sum.Plus(cols[i].Stats())
	}
	if sum != delta {
		t.Errorf("batched collectors don't partition the aggregate:\n sum:   %+v\n delta: %+v", sum, delta)
	}

	// Share exactness: the shares reassemble the plan's stats with no
	// counter lost or invented.
	reassembled := shares[0]
	for i := 1; i < members; i++ {
		reassembled = reassembled.Plus(shares[i])
	}
	if reassembled != planCol.Stats() {
		t.Errorf("split shares don't reassemble the plan stats:\n sum:  %+v\n plan: %+v", reassembled, planCol.Stats())
	}

	// Hygiene: no member leaked scratch, and the members' collective
	// arena balance (plan share included) is clean.
	if sum.Arena.Outstanding != 0 || sum.Arena.OutstandingElems != 0 {
		t.Errorf("batched runs leaked arena scratch: %+v", sum.Arena)
	}
	snap.Check(t)
}

// TestConcurrentProveAttributionHammer races many collector-attributed
// proves (the serving layer's steady state) and checks conservation:
// all per-run stats sum to the global delta, every run matches the solo
// baseline, nothing leaks. Run with -race in CI.
func TestConcurrentProveAttributionHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer")
	}
	snap := leakcheck.Take()
	params := nocap.TestParams()
	bm := nocap.Synthetic(1 << 10)
	solo := deterministic(soloStats(t, params, bm))

	const runs = 8
	before := nocap.ReadProveStats()
	cols := make([]*nocap.Collector, runs)
	var wg sync.WaitGroup
	for i := range cols {
		cols[i] = nocap.NewCollector()
		wg.Add(1)
		go func(col *nocap.Collector) {
			defer wg.Done()
			if _, err := nocap.ProveCtx(col.Attach(context.Background()), params, bm.Inst, bm.IO, bm.Witness); err != nil {
				t.Error(err)
			}
		}(cols[i])
	}
	wg.Wait()
	delta := nocap.ReadProveStats().Delta(before)

	sum := cols[0].Stats()
	if got := deterministic(sum); got != solo {
		t.Errorf("run 0 counters diverge from solo baseline:\n solo: %+v\n got:  %+v", solo, got)
	}
	for i := 1; i < runs; i++ {
		run := cols[i].Stats()
		if got := deterministic(run); got != solo {
			t.Errorf("run %d counters diverge from solo baseline:\n solo: %+v\n got:  %+v", i, solo, got)
		}
		sum = sum.Plus(run)
	}
	if sum != delta {
		t.Errorf("%d collectors don't partition the aggregate:\n sum:   %+v\n delta: %+v", runs, sum, delta)
	}
	snap.Check(t)
}

// TestConcurrentProveVerifyFreshInstance proves and verifies one freshly
// built instance from several goroutines at once, so that every call
// computes the instance digest and they all reach its memo together. Under
// -race (make race) an unguarded memo fails the run; in any mode every
// proof must verify and the memo must end at the digest of a separately
// built copy of the statement.
func TestConcurrentProveVerifyFreshInstance(t *testing.T) {
	params := nocap.TestParams()
	ref := nocap.Synthetic(1 << 12)
	proof, err := nocap.Prove(params, ref.Inst, ref.IO, ref.Witness)
	if err != nil {
		t.Fatalf("reference prove: %v", err)
	}
	bm := nocap.Synthetic(1 << 12)
	const pairs = 3
	errs := make(chan error, 2*pairs)
	var wg sync.WaitGroup
	for range pairs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			p, err := nocap.ProveCtx(context.Background(), params, bm.Inst, bm.IO, bm.Witness)
			if err == nil {
				err = nocap.VerifyCtx(context.Background(), params, ref.Inst, ref.IO, p)
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			errs <- nocap.VerifyCtx(context.Background(), params, bm.Inst, bm.IO, proof)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if bm.Inst.Digest() != ref.Inst.Digest() {
		t.Fatal("memoized digest differs from a separately built copy's")
	}
}
