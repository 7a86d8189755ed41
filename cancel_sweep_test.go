// Cancellation-timing sweep (ISSUE satellite): cancel ProveCtx at ~20
// distinct points — half chosen by wall-clock fraction of a measured
// clean prove, half pinned to exact injection points via faultinject
// Hook plans — and assert the chaos invariants each time: the error (if
// the prove didn't already finish) is context.Canceled or
// context.DeadlineExceeded, the prover returns promptly after the
// cancellation, no goroutines leak, and a clean retry succeeds.
package nocap_test

import (
	"context"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"time"

	"nocap"
	"nocap/internal/arena"
	"nocap/internal/faultinject"
	"nocap/internal/leakcheck"
	"nocap/internal/zkerr"
)

// cancelReturnBudget bounds how long ProveCtx may keep running after its
// context is cancelled. The checkpoint policy (DESIGN.md §8) targets
// ≤100ms between checks at full scale; the bound here is looser only to
// absorb scheduler noise on loaded CI runners.
const cancelReturnBudget = 250 * time.Millisecond

// sweepBench is a larger instance than the chaos matrix uses, so a
// clean prove spans enough wall-clock time for fractional cancellation
// to land at different stages.
func sweepBench() (*nocap.Benchmark, nocap.Params) {
	bm := nocap.Synthetic(1 << 13)
	params := nocap.TestParams()
	params.Reps = 2
	return bm, params
}

func TestCancelSweepTimeBased(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is not short")
	}
	bm, params := sweepBench()
	prove := func(ctx context.Context) error {
		_, err := nocap.ProveCtx(ctx, params, bm.Inst, bm.IO, bm.Witness)
		return err
	}

	start := time.Now()
	if err := prove(context.Background()); err != nil {
		t.Fatalf("clean prove: %v", err)
	}
	cleanDur := time.Since(start)
	t.Logf("clean prove: %v", cleanDur)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		frac := rng.Float64()
		delay := time.Duration(frac * float64(cleanDur))
		snap := leakcheck.Take()
		ctx, cancel := context.WithCancel(context.Background())
		var cancelledAt time.Time
		timer := time.AfterFunc(delay, func() {
			cancelledAt = time.Now()
			cancel()
		})
		err := prove(ctx)
		returned := time.Now()
		timer.Stop()
		cancel()

		if err != nil {
			// The cancel beat the prove; it must surface as the raw
			// context error, and the prover must have returned within the
			// checkpoint budget of the cancellation instant.
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("sweep %d (%.0f%%): wrong error class: %v", i, 100*frac, err)
			}
			if lag := returned.Sub(cancelledAt); lag > cancelReturnBudget {
				t.Fatalf("sweep %d (%.0f%%): prover ran %v past cancellation (budget %v)", i, 100*frac, lag, cancelReturnBudget)
			}
		}
		snap.Check(t)
	}

	// Deadline flavor: a deadline shorter than the clean prove must
	// surface DeadlineExceeded, and the overrun past the deadline must
	// stay within the checkpoint budget.
	for i := 0; i < 5; i++ {
		frac := 0.1 + 0.15*float64(i)
		deadline := time.Duration(frac * float64(cleanDur))
		if deadline <= 0 {
			deadline = time.Millisecond
		}
		snap := leakcheck.Take()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		startRun := time.Now()
		err := prove(ctx)
		overrun := time.Since(startRun) - deadline
		cancel()
		if err == nil {
			// The prove finished under the deadline (timing noise on a
			// fast machine); nothing to assert beyond no-leak.
			snap.Check(t)
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline sweep %d: wrong error class: %v", i, err)
		}
		if overrun > cancelReturnBudget {
			t.Fatalf("deadline sweep %d: prover ran %v past its deadline (budget %v)", i, overrun, cancelReturnBudget)
		}
		snap.Check(t)
	}

	// Containment: after the whole sweep, a clean prove still succeeds.
	if err := prove(context.Background()); err != nil {
		t.Fatalf("clean prove after sweep failed: %v", err)
	}
}

// TestCancelSweepInjectionPointBased pins cancellation to exact pipeline
// positions: a Hook plan cancels the context at the Nth hit of a
// recorded injection point, then the pipeline runs on to its next
// cooperative checkpoint and must return context.Canceled. Seeds drive
// faultinject.RandomPlan, so each seed deterministically selects the
// same {point, hit}.
func TestCancelSweepInjectionPointBased(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is not short")
	}
	bm, params := sweepBench()
	prove := func(ctx context.Context) error {
		_, err := nocap.ProveCtx(ctx, params, bm.Inst, bm.IO, bm.Witness)
		return err
	}
	trace := recordPoints(t, func() error { return prove(context.Background()) })

	for seed := int64(0); seed < 10; seed++ {
		plan, err := faultinject.RandomPlan(seed, trace, []faultinject.Kind{faultinject.Hook})
		if err != nil {
			t.Fatalf("RandomPlan(seed %d): %v", seed, err)
		}
		t.Run(plan.Point, func(t *testing.T) {
			defer faultinject.Disarm()
			snap := leakcheck.Take()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var cancelledAt time.Time
			plan.Hook = func() error {
				cancelledAt = time.Now()
				cancel()
				return nil
			}
			faultinject.MustArm(plan)
			err := prove(ctx)
			returned := time.Now()
			if !faultinject.Fired() {
				t.Fatalf("hook at %s (hit %d) never fired", plan.Point, plan.Trigger)
			}
			faultinject.Disarm()
			// The hook may land on the final checkpoint of the run, in
			// which case the prove legitimately completes; otherwise the
			// cancellation must surface raw and promptly.
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("wrong error class after hook cancel: %v", err)
				}
				if lag := returned.Sub(cancelledAt); lag > cancelReturnBudget {
					t.Fatalf("prover ran %v past cancellation at %s (budget %v)", lag, plan.Point, cancelReturnBudget)
				}
			}
			snap.Check(t)
			if err := prove(context.Background()); err != nil {
				t.Fatalf("clean retry after hook cancel failed: %v", err)
			}
		})
	}
}

// TestCancelInsideStatementDigest cancels each prove entry — a solo
// ProveCtx and a batch plan build — of a freshly built instance while its
// statement digest is still hashing beside SpMV. The sweeps above reuse
// one instance, whose digest is memoized by their first clean prove, so
// none of their cancellations lands inside it. A Hook plan on
// spartan.prove.spmv cancels the context: that checkpoint runs right
// after the digest goroutine starts, long before it can finish hashing a
// 2^16 instance, so the goroutine sees the cancellation at its next row
// poll. Each cancelled entry must return within the budget with no
// goroutine left behind (the plan entry joins its digest before
// returning), and the next prove on the same instance must bind the
// golden digest: an abandoned digest is never memoized.
func TestCancelInsideStatementDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is not short")
	}
	params := nocap.TestParams()
	want := digestGolden[statement{"synthetic", 1 << 16}]
	// A reference instance whose digest is checked against the golden
	// up front: a proof verifies against it only if it bound that digest.
	ref := nocap.Synthetic(1 << 16)
	if d := ref.Inst.Digest(); hex.EncodeToString(d[:]) != want {
		t.Fatalf("reference digest %x, golden %s", d, want)
	}
	entries := map[string]func(context.Context, *nocap.Benchmark) error{
		"solo": func(ctx context.Context, bm *nocap.Benchmark) error {
			_, err := nocap.ProveCtx(ctx, params, bm.Inst, bm.IO, bm.Witness)
			return err
		},
		"plan": func(ctx context.Context, bm *nocap.Benchmark) error {
			_, err := nocap.NewBatchPlanForCtx(ctx, params, bm)
			return err
		},
	}
	for entry, start := range entries {
		for i := range 3 {
			bm := nocap.Synthetic(1 << 16)
			snap := leakcheck.Take()
			ctx, cancel := context.WithCancel(context.Background())
			var cancelledAt time.Time
			faultinject.MustArm(faultinject.Plan{
				Point: "spartan.prove.spmv",
				Kind:  faultinject.Hook,
				Hook: func() error {
					cancelledAt = time.Now()
					cancel()
					return nil
				},
			})
			err := start(ctx, bm)
			returned := time.Now()
			fired := faultinject.Fired()
			faultinject.Disarm()
			cancel()
			if !fired {
				t.Fatalf("%s run %d: hook at spartan.prove.spmv never fired", entry, i)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s run %d: want context.Canceled, got %v", entry, i, err)
			}
			if lag := returned.Sub(cancelledAt); lag > cancelReturnBudget {
				t.Fatalf("%s run %d: prover ran %v past cancellation (budget %v)", entry, i, lag, cancelReturnBudget)
			}
			snap.Check(t)

			proof, err := nocap.Prove(params, bm.Inst, bm.IO, bm.Witness)
			if err != nil {
				t.Fatalf("%s run %d: clean prove after cancellation: %v", entry, i, err)
			}
			if d := bm.Inst.Digest(); hex.EncodeToString(d[:]) != want {
				t.Fatalf("%s run %d: memoized digest %x, golden %s", entry, i, d, want)
			}
			if err := nocap.Verify(params, ref.Inst, ref.IO, proof); err != nil {
				t.Fatalf("%s run %d: proof does not bind the golden digest: %v", entry, i, err)
			}
		}
	}
}

// TestCancelVerifyInsideFanOuts cancels VerifyCtx from inside each of
// the verifier's fan-outs: the matrix pass of the final Spartan check
// and the batched column check of the opening. A recorded clean verify
// locates the first worker chunk after each stage's checkpoint, and a
// Hook plan on that chunk's "par.worker" hit cancels the context while
// the fan-out is in flight. The verify must return context.Canceled
// promptly, with no goroutine left behind and every arena checkout of the
// run returned.
func TestCancelVerifyInsideFanOuts(t *testing.T) {
	bm := nocap.Synthetic(1 << 13)
	params := nocap.FitParams(nocap.DefaultParams(), bm.Inst)
	proof, err := nocap.Prove(params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	verify := func(ctx context.Context) error {
		return nocap.VerifyCtx(ctx, params, bm.Inst, bm.IO, proof)
	}
	trace := recordPoints(t, func() error { return verify(context.Background()) })

	for _, stage := range []string{"spartan.verify.matrixevals", "pcs.verify.columns"} {
		t.Run(stage, func(t *testing.T) {
			var trigger, workerHits uint64
			seen := false
			for _, p := range trace {
				seen = seen || p == stage
				if p == "par.worker" {
					workerHits++
					if seen {
						trigger = workerHits
						break
					}
				}
			}
			if trigger == 0 {
				t.Fatalf("no worker chunk after %s in the recorded verify", stage)
			}
			defer faultinject.Disarm()
			snap := leakcheck.Take()
			runArena := &arena.Collector{}
			ctx, cancel := context.WithCancel(arena.WithCollector(context.Background(), runArena))
			defer cancel()
			var cancelledAt time.Time
			faultinject.MustArm(faultinject.Plan{Point: "par.worker", Kind: faultinject.Hook, Trigger: trigger, Hook: func() error {
				cancelledAt = time.Now()
				cancel()
				return nil
			}})
			err := verify(ctx)
			returned := time.Now()
			if !faultinject.Fired() {
				t.Fatalf("hook at par.worker hit %d never fired", trigger)
			}
			faultinject.Disarm()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("verify cancelled inside the fan-out after %s returned %v", stage, err)
			}
			if lag := returned.Sub(cancelledAt); lag > cancelReturnBudget {
				t.Fatalf("verifier ran %v past cancellation (budget %v)", lag, cancelReturnBudget)
			}
			snap.Check(t)
			if st := runArena.Snapshot(); st.Outstanding != 0 || st.Gets == 0 {
				t.Fatalf("arena after cancelled verify: %d gets, %d outstanding", st.Gets, st.Outstanding)
			}
			if err := verify(context.Background()); err != nil {
				t.Fatalf("clean verify after cancellation failed: %v", err)
			}
		})
	}
}

// TestCancelDelayWithDeadline combines the Delay fault kind with a
// context deadline: the injected stall at a chosen stage makes the
// deadline expire mid-pipeline, and the next checkpoint must surface
// DeadlineExceeded.
func TestCancelDelayWithDeadline(t *testing.T) {
	bm, params := chaosBench()
	for _, point := range []string{"spartan.prove.spmv", "pcs.commit.leaves", "sumcheck.prove.round"} {
		t.Run(point, func(t *testing.T) {
			defer faultinject.Disarm()
			snap := leakcheck.Take()
			// The deadline must be long enough that the prover reliably
			// reaches the armed point first (a chaos-scale prove under
			// -race takes ~30ms on a loaded runner; 150ms gives 5×
			// headroom), and the stall long enough that the deadline
			// always expires inside it.
			faultinject.MustArm(faultinject.Plan{Point: point, Kind: faultinject.Delay, Sleep: 500 * time.Millisecond})
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			_, err := nocap.ProveCtx(ctx, params, bm.Inst, bm.IO, bm.Witness)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("want DeadlineExceeded after injected stall at %s, got %v", point, err)
			}
			if !faultinject.Fired() {
				t.Fatal("delay plan never fired")
			}
			faultinject.Disarm()
			snap.Check(t)
			if _, err := nocap.ProveCtx(context.Background(), params, bm.Inst, bm.IO, bm.Witness); err != nil {
				t.Fatalf("clean retry failed: %v", err)
			}
		})
	}
}

// TestCancelExitCodeMapping pins the CLI-facing contract: a cancelled or
// timed-out run maps to the resource-limit exit code (5), matching the
// -timeout documentation in cmd/nocap-prove.
func TestCancelExitCodeMapping(t *testing.T) {
	bm, params := chaosBench()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := nocap.ProveCtx(ctx, params, bm.Inst, bm.IO, bm.Witness)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled prove: %v", err)
	}
	if code := zkerr.ExitCode(err); code != 5 {
		t.Fatalf("cancelled prove maps to exit code %d, want 5 (resource limit)", code)
	}
	if code := zkerr.ExitCode(context.DeadlineExceeded); code != 5 {
		t.Fatalf("deadline expiry maps to exit code %d, want 5", code)
	}
}
