package spartan

import (
	"bytes"
	"context"
	"errors"
	"testing"

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
