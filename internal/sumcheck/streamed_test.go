package sumcheck

import (
	"context"
	"testing"

	"nocap/internal/field"
	"nocap/internal/poly"
	"nocap/internal/transcript"
)

// TestStreamedMatchesStored is the key equivalence: the recomputation
// prover must produce a byte-identical transcript (same round polys,
// same challenges, same finals) as the stored-array prover.
func TestStreamedMatchesStored(t *testing.T) {
	for _, tc := range []struct {
		logN, arrays, degree int
	}{
		{3, 1, 1},
		{5, 2, 2},
		{6, 4, 3},
	} {
		mles := make([]*poly.MLE, tc.arrays)
		for k := range mles {
			mles[k] = randMLE(tc.logN, int64(100*tc.logN+k))
		}
		combine := product
		claim := SumOverHypercube(mles, combine)

		clones := make([]*poly.MLE, tc.arrays)
		for k, m := range mles {
			clones[k] = m.Clone()
		}
		pStored, rStored, fStored := Prove(transcript.New("eq"), "sc", claim, clones, tc.degree, combine)

		src := func(k, idx int) field.Element { return mles[k].At(idx) }
		// Materialize threshold 4 exercises both the streaming rounds and
		// the scratchpad phase.
		pStream, rStream, fStream, err := ProveStreamedCtx(context.Background(), transcript.New("eq"), "sc", claim,
			tc.arrays, tc.logN, src, tc.degree, combine, 4)
		if err != nil {
			t.Fatal(err)
		}

		for i := range pStored.RoundPolys {
			for j := range pStored.RoundPolys[i] {
				if pStored.RoundPolys[i][j] != pStream.RoundPolys[i][j] {
					t.Fatalf("logN=%d: round %d eval %d differs", tc.logN, i, j)
				}
			}
		}
		for i := range rStored {
			if rStored[i] != rStream[i] {
				t.Fatalf("challenge %d differs", i)
			}
		}
		for k := range fStored {
			if fStored[k] != fStream[k] {
				t.Fatalf("final %d differs", k)
			}
		}
	}
}

func TestStreamedVerifies(t *testing.T) {
	m := randMLE(6, 7)
	claim := SumOverHypercube([]*poly.MLE{m}, product)
	src := func(k, idx int) field.Element { return m.At(idx) }
	proof, r, finals, err := ProveStreamedCtx(context.Background(), transcript.New("sv"), "sc", claim, 1, 6, src, 1, product, 8)
	if err != nil {
		t.Fatal(err)
	}
	rV, fc, err := Verify(transcript.New("sv"), "sc", claim, 6, 1, proof)
	if err != nil {
		t.Fatal(err)
	}
	if product(finals) != fc {
		t.Fatal("final mismatch")
	}
	for i := range r {
		if r[i] != rV[i] {
			t.Fatal("challenge divergence")
		}
	}
}

func TestStreamedPanics(t *testing.T) {
	src := func(k, idx int) field.Element { return field.Zero }
	for name, fn := range map[string]func(){
		"no arrays": func() {
			ProveStreamedCtx(context.Background(), transcript.New("x"), "s", field.Zero, 0, 3, src, 1, product, 4)
		},
		"no vars": func() {
			ProveStreamedCtx(context.Background(), transcript.New("x"), "s", field.Zero, 1, 0, src, 1, product, 4)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
