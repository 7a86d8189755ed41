// Chaos test suite (ISSUE: deterministic fault injection with leak
// checking). A recording run discovers every injection point the small
// benchmark pipeline actually passes through; the matrix then arms one
// {point, kind, trigger} cell at a time and proves the three containment
// invariants for each:
//
//  1. the fault surfaces as the right taxonomy class (ErrInternal for
//     injected errors and panics — never a raw panic, never a wrong
//     sentinel),
//  2. no goroutine leaks: every worker the pipeline started is back
//     before the leak checker's grace period expires,
//  3. the very next clean Prove/Verify on the same inputs succeeds —
//     a contained fault never corrupts shared state.
//
// The faultinject registry is process-global, so nothing here runs with
// t.Parallel().
package nocap_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"nocap"
	"nocap/internal/faultinject"
	"nocap/internal/leakcheck"
)

// chaosBench builds the small circuit the whole chaos suite runs on.
func chaosBench() (*nocap.Benchmark, nocap.Params) {
	bm := nocap.Synthetic(1024)
	params := nocap.TestParams()
	return bm, params
}

// recordPoints runs the stage fn under a recording session and returns
// the ordered injection-point trace it hit.
func recordPoints(t *testing.T, fn func() error) []string {
	t.Helper()
	faultinject.StartRecording()
	err := fn()
	trace := faultinject.StopRecording()
	if err != nil {
		t.Fatalf("clean recording run failed: %v", err)
	}
	if len(trace) == 0 {
		t.Fatal("recording run hit no injection points")
	}
	return trace
}

// assertContained checks the three invariants for one armed cell: err is
// the expected class, the plan actually fired, no goroutines leaked, and
// a clean retry succeeds.
func assertContained(t *testing.T, err error, snap *leakcheck.Snapshot, retry func() error) {
	t.Helper()
	if err == nil {
		t.Fatal("injected fault produced no error")
	}
	if !errors.Is(err, nocap.ErrInternal) {
		t.Fatalf("injected fault surfaced as the wrong class: %v", err)
	}
	if !faultinject.Fired() {
		t.Fatal("armed plan never fired (vacuous cell)")
	}
	faultinject.Disarm()
	snap.Check(t)
	if err := retry(); err != nil {
		t.Fatalf("clean retry after contained fault failed: %v", err)
	}
}

// TestChaosProveMatrix arms {point × {Error, Panic}} for every injection
// point a clean prove passes through, at both the first and the last hit
// of the point, and proves the three invariants for each cell — once for
// a solo prove and once for a member of a batch plan built before
// recording starts, whose clean retry runs through the same plan.
func TestChaosProveMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not short")
	}
	bm, params := chaosBench()
	for _, e := range chaosProveEntries(t, bm, params) {
		prove := e.prove
		trace := recordPoints(t, prove)
		counts := faultinject.HitCounts(trace)
		t.Logf("%s prove pipeline has %d injection points (%d hits total)", e.name, len(counts), len(trace))

		for point, hits := range counts {
			for _, kind := range []faultinject.Kind{faultinject.Error, faultinject.Panic} {
				for _, trigger := range triggersFor(hits) {
					// Solo cells keep the unprefixed point/kind/hitN
					// names that -run selectors already match.
					name := fmt.Sprintf("%s/%s/hit%d", point, kind, trigger)
					if e.name != "solo" {
						name = e.name + "/" + name
					}
					t.Run(name, func(t *testing.T) {
						defer faultinject.Disarm()
						snap := leakcheck.Take()
						faultinject.MustArm(faultinject.Plan{Point: point, Kind: kind, Trigger: trigger})
						err := prove()
						assertContained(t, err, snap, prove)
					})
				}
			}
		}
	}
}

// proveEntry is one way into the prover that the chaos suite arms.
type proveEntry struct {
	name  string
	prove func() error
}

// chaosProveEntries returns the two prove entries the chaos suite arms:
// a solo prove, and one member of a batch plan built here, outside any
// recording.
func chaosProveEntries(t *testing.T, bm *nocap.Benchmark, params nocap.Params) []proveEntry {
	t.Helper()
	plan, err := nocap.NewBatchPlanForCtx(context.Background(), params, bm)
	if err != nil {
		t.Fatalf("batch plan: %v", err)
	}
	return []proveEntry{
		{"solo", func() error {
			_, err := nocap.ProveCtx(context.Background(), params, bm.Inst, bm.IO, bm.Witness)
			return err
		}},
		{"member", func() error {
			_, err := plan.ProveMemberCtx(context.Background())
			return err
		}},
	}
}

// TestChaosVerifyMatrix is the verify-side matrix: faults injected into
// VerifyCtx of a genuinely valid proof must surface as ErrInternal (the
// verifier's "I am broken" class), never as a soundness rejection of the
// honest proof, and must leave the verifier able to accept the same
// proof immediately afterwards.
func TestChaosVerifyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not short")
	}
	bm, params := chaosBench()
	proof, err := nocap.ProveCtx(context.Background(), params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	verify := func() error {
		return nocap.VerifyCtx(context.Background(), params, bm.Inst, bm.IO, proof)
	}
	trace := recordPoints(t, verify)
	counts := faultinject.HitCounts(trace)
	t.Logf("verify pipeline has %d injection points (%d hits total)", len(counts), len(trace))

	for point, hits := range counts {
		for _, kind := range []faultinject.Kind{faultinject.Error, faultinject.Panic} {
			for _, trigger := range triggersFor(hits) {
				name := fmt.Sprintf("%s/%s/hit%d", point, kind, trigger)
				t.Run(name, func(t *testing.T) {
					defer faultinject.Disarm()
					snap := leakcheck.Take()
					faultinject.MustArm(faultinject.Plan{Point: point, Kind: kind, Trigger: trigger})
					err := verify()
					assertContained(t, err, snap, verify)
				})
			}
		}
	}
}

// triggersFor picks the trigger counts to exercise for a point with the
// given total hits: the first hit, and (when the point is hit more than
// once) the last hit, so both "fails immediately" and "fails after
// partial progress" are covered.
func triggersFor(hits uint64) []uint64 {
	if hits <= 1 {
		return []uint64{1}
	}
	return []uint64{1, hits}
}

// TestChaosStageCoverage pins the injection-point catalog: every stage
// boundary named in DESIGN.md §8 that this pipeline configuration
// executes must appear in the recorded trace, so a refactor that silently
// drops a checkpoint fails here rather than weakening the chaos matrix.
// The spartan stage checkpoints are pinned to exact per-member counts at
// two repetitions, on a solo prove and on a batch member alike: the
// chaos sweep and the statement-digest cancellation test rely on each
// firing once per member (the sumcheck stages once per repetition).
func TestChaosStageCoverage(t *testing.T) {
	bm, params := chaosBench()
	params.Reps = 2
	for _, e := range chaosProveEntries(t, bm, params) {
		counts := faultinject.HitCounts(recordPoints(t, e.prove))
		for point, want := range map[string]uint64{
			"spartan.prove.assemble": 1,
			"spartan.prove.spmv":     1,
			"spartan.prove.commit":   1,
			"spartan.prove.outer":    2,
			"spartan.prove.inner":    2,
			"spartan.prove.open":     1,
		} {
			if counts[point] != want {
				t.Errorf("%s prove hit %q %d times, want %d", e.name, point, counts[point], want)
			}
		}
		for _, point := range []string{
			"pcs.commit.encode",
			"pcs.commit.leaves",
			"pcs.commit.tree",
			"pcs.open.eval",
			"pcs.open.prox",
			"pcs.open.columns",
			"merkle.build.level",
			"sumcheck.prove.round",
			"par.worker",
		} {
			if counts[point] == 0 {
				t.Errorf("%s prove trace missing stage checkpoint %q", e.name, point)
			}
		}
	}

	proof, err := nocap.ProveCtx(context.Background(), params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	counts := faultinject.HitCounts(recordPoints(t, func() error {
		return nocap.VerifyCtx(context.Background(), params, bm.Inst, bm.IO, proof)
	}))
	for _, point := range []string{
		"spartan.verify.rep",
		"spartan.verify.matrixevals",
		"spartan.verify.opening",
		"pcs.verify.columns",
	} {
		if counts[point] == 0 {
			t.Errorf("verify trace missing stage checkpoint %q", point)
		}
	}
}
