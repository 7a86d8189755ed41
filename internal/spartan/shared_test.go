package spartan

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"nocap/internal/arena"
	"nocap/internal/field"
	"nocap/internal/zkerr"
)

// TestSharedProveByteIdentical checks the batched prover's core
// contract: with ZK off (deterministic proofs), a proof produced
// through a shared-structure plan is byte-identical to the solo proof
// of the same statement, for every member of the batch.
func TestSharedProveByteIdentical(t *testing.T) {
	inst, io, w := buildFibonacci(20, 3, 4)
	for _, recompute := range []bool{false, true} {
		params := TestParams()
		params.PCS.ZK = false
		params.Recompute = recompute
		params.Reps = 2

		solo, err := Prove(params, inst, io, w)
		if err != nil {
			t.Fatalf("recompute=%v: solo prove: %v", recompute, err)
		}
		soloBytes, err := solo.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal solo: %v", err)
		}

		sh, err := NewSharedCtx(context.Background(), params, inst, io, w)
		if err != nil {
			t.Fatalf("recompute=%v: NewSharedCtx: %v", recompute, err)
		}
		for member := 0; member < 4; member++ {
			p, err := sh.ProveCtx(context.Background())
			if err != nil {
				t.Fatalf("recompute=%v member %d: shared prove: %v", recompute, member, err)
			}
			got, err := p.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal member %d: %v", member, err)
			}
			if !bytes.Equal(got, soloBytes) {
				t.Fatalf("recompute=%v member %d: shared proof differs from solo proof (%d vs %d bytes)",
					recompute, member, len(got), len(soloBytes))
			}
		}
	}
}

// TestSharedProveZKVerifies checks that with ZK on (nondeterministic
// proofs) every member proof produced through a shared plan still
// verifies independently.
func TestSharedProveZKVerifies(t *testing.T) {
	inst, io, w := buildFibonacci(20, 3, 4)
	params := TestParams()

	sh, err := NewSharedCtx(context.Background(), params, inst, io, w)
	if err != nil {
		t.Fatalf("NewSharedCtx: %v", err)
	}
	for member := 0; member < 3; member++ {
		p, err := sh.ProveCtx(context.Background())
		if err != nil {
			t.Fatalf("member %d: shared prove: %v", member, err)
		}
		if err := Verify(params, inst, io, p); err != nil {
			t.Fatalf("member %d: verify: %v", member, err)
		}
	}
}

// TestSharedProveRejectsBadWitness checks that plan construction runs
// the satisfaction check.
func TestSharedProveRejectsBadWitness(t *testing.T) {
	inst, io, w := buildFibonacci(10, 3, 4)
	w2 := append([]field.Element(nil), w...)
	w2[0] = field.Add(w2[0], field.One)
	if _, err := NewSharedCtx(context.Background(), TestParams(), inst, io, w2); err == nil {
		t.Fatal("NewSharedCtx accepted an unsatisfying witness")
	}
}

// TestSoloPlanPooled checks who owns the plan buffers. A solo prove's
// plan of one checks z/az/bz/cz out of the arena (z alone with
// recomputation) and returns them before ProveCtx does, also when the
// plan fails partway; a batch plan allocates them plainly, so building
// it checks nothing out and its members check out only their own
// scratch.
func TestSoloPlanPooled(t *testing.T) {
	inst, io, w := buildFibonacci(20, 3, 4)
	bad := append([]field.Element(nil), w...)
	bad[0] = field.Add(bad[0], field.One)
	run := func(prove func(ctx context.Context) error) arena.Stats {
		t.Helper()
		var col arena.Collector
		if err := prove(arena.WithCollector(context.Background(), &col)); err != nil {
			t.Fatal(err)
		}
		return col.Snapshot()
	}
	for _, tc := range []struct {
		recompute bool
		planBufs  int64
	}{{false, 4}, {true, 1}} {
		params := TestParams()
		params.Recompute = tc.recompute
		solo := run(func(ctx context.Context) error {
			_, err := ProveCtx(ctx, params, inst, io, w)
			return err
		})
		var sh *Shared
		build := run(func(ctx context.Context) (err error) {
			sh, err = NewSharedCtx(ctx, params, inst, io, w)
			return err
		})
		member := run(func(ctx context.Context) error {
			_, err := sh.ProveCtx(ctx)
			return err
		})
		failed := run(func(ctx context.Context) error {
			if _, err := ProveCtx(ctx, params, inst, io, bad); err == nil {
				return errors.New("unsatisfying witness proved")
			}
			return nil
		})
		if build.Gets != 0 || solo.Gets != member.Gets+tc.planBufs {
			t.Errorf("recompute=%v: %d checkouts solo, %d per member, %d building the batch plan; want the solo plan's %d on top and none for the batch plan",
				tc.recompute, solo.Gets, member.Gets, build.Gets, tc.planBufs)
		}
		if failed.Gets != tc.planBufs {
			t.Errorf("recompute=%v: a plan failing its satisfaction check made %d checkouts, want %d", tc.recompute, failed.Gets, tc.planBufs)
		}
		for name, st := range map[string]arena.Stats{"solo": solo, "member": member, "failed plan": failed} {
			if st.Outstanding != 0 || st.OutstandingElems != 0 {
				t.Errorf("recompute=%v: %s left %d buffers (%d elems) checked out", tc.recompute, name, st.Outstanding, st.OutstandingElems)
			}
		}
	}
}

// TestProveEntriesRejectWrongShapes checks that both prove entries —
// solo ProveCtx and the batch plan — turn a wrong public-input count or
// witness length into the caller's error (ErrUsage) before any stage
// runs, never an internal error that a retrying caller would re-prove.
func TestProveEntriesRejectWrongShapes(t *testing.T) {
	inst, io, w := buildFibonacci(10, 3, 4)
	entries := map[string]func(io, w []field.Element) error{
		"solo": func(io, w []field.Element) error {
			_, err := ProveCtx(context.Background(), TestParams(), inst, io, w)
			return err
		},
		"plan": func(io, w []field.Element) error {
			_, err := NewSharedCtx(context.Background(), TestParams(), inst, io, w)
			return err
		},
	}
	shapes := map[string]struct{ io, w []field.Element }{
		"io-long":       {append(append([]field.Element(nil), io...), field.One), w},
		"witness-short": {io, w[:len(w)-1]},
	}
	for entry, run := range entries {
		for shape, in := range shapes {
			err := run(in.io, in.w)
			if !errors.Is(err, zkerr.ErrUsage) || errors.Is(err, zkerr.ErrInternal) {
				t.Errorf("%s/%s: want ErrUsage, got %v", entry, shape, err)
			}
		}
	}
}
