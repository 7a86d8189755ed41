package sumcheck

import (
	"math/rand"
	"runtime"
	"testing"

	"nocap/internal/field"
	"nocap/internal/poly"
	"nocap/internal/transcript"
)

func randMLE(logN int, seed int64) *poly.MLE {
	rng := rand.New(rand.NewSource(seed))
	v := make([]field.Element, 1<<logN)
	for i := range v {
		v[i] = field.New(rng.Uint64())
	}
	return poly.NewMLE(v)
}

func product(vals []field.Element) field.Element {
	acc := field.One
	for _, v := range vals {
		acc = field.Mul(acc, v)
	}
	return acc
}

// runProtocol executes prove+verify and the final oracle check.
func runProtocol(t *testing.T, mles []*poly.MLE, degree int, combine Combiner) {
	t.Helper()
	claim := SumOverHypercube(mles, combine)
	originals := make([]*poly.MLE, len(mles))
	for i, m := range mles {
		originals[i] = m.Clone()
	}
	trP := transcript.New("test")
	proof, rP, finals := Prove(trP, "sc", claim, mles, degree, combine)

	trV := transcript.New("test")
	rV, finalClaim, err := Verify(trV, "sc", claim, originals[0].NumVars(), degree, proof)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	for i := range rP {
		if rP[i] != rV[i] {
			t.Fatal("prover/verifier challenge divergence")
		}
	}
	// Final oracle check: combine(finals) must equal the reduced claim,
	// and finals must be the true MLE evaluations at r.
	if combine(finals) != finalClaim {
		t.Fatal("final combined value != reduced claim")
	}
	for i, m := range originals {
		if m.Evaluate(rV) != finals[i] {
			t.Fatalf("final value %d is not the oracle evaluation", i)
		}
	}
}

func TestSingleMLEDegree1(t *testing.T) {
	for _, logN := range []int{1, 3, 6} {
		runProtocol(t, []*poly.MLE{randMLE(logN, int64(logN))}, 1, product)
	}
}

func TestProductOfTwoDegree2(t *testing.T) {
	runProtocol(t, []*poly.MLE{randMLE(5, 1), randMLE(5, 2)}, 2, product)
}

func TestProductOfThreeDegree3(t *testing.T) {
	runProtocol(t, []*poly.MLE{randMLE(4, 3), randMLE(4, 4), randMLE(4, 5)}, 3, product)
}

func TestSpartanStyleCombiner(t *testing.T) {
	// eq·(a·b − c): the outer Spartan combiner.
	mles := []*poly.MLE{randMLE(5, 6), randMLE(5, 7), randMLE(5, 8), randMLE(5, 9)}
	combine := func(v []field.Element) field.Element {
		return field.Mul(v[0], field.Sub(field.Mul(v[1], v[2]), v[3]))
	}
	runProtocol(t, mles, 3, combine)
}

func TestParallelPathMatchesSerial(t *testing.T) {
	// Size above par's threshold exercises the worker fan-out; the claim
	// and proof must still verify.
	mles := []*poly.MLE{randMLE(15, 10), randMLE(15, 11)}
	runProtocol(t, mles, 2, product)
}

func TestRejectsWrongClaim(t *testing.T) {
	m := randMLE(4, 12)
	claim := SumOverHypercube([]*poly.MLE{m}, product)
	trP := transcript.New("test")
	proof, _, _ := Prove(trP, "sc", claim, []*poly.MLE{m.Clone()}, 1, product)
	trV := transcript.New("test")
	_, _, err := Verify(trV, "sc", field.Add(claim, field.One), 4, 1, proof)
	if err == nil {
		t.Fatal("wrong claim accepted")
	}
}

func TestRejectsTamperedRound(t *testing.T) {
	m := randMLE(5, 13)
	claim := SumOverHypercube([]*poly.MLE{m}, product)
	proof, _, _ := Prove(transcript.New("test"), "sc", claim, []*poly.MLE{m.Clone()}, 1, product)

	for round := 0; round < 5; round++ {
		bad := &Proof{RoundPolys: make([][]field.Element, 5)}
		for i := range bad.RoundPolys {
			bad.RoundPolys[i] = append([]field.Element(nil), proof.RoundPolys[i]...)
		}
		bad.RoundPolys[round][0] = field.Add(bad.RoundPolys[round][0], field.One)
		_, _, err := Verify(transcript.New("test"), "sc", claim, 5, 1, bad)
		// Tampering round i either breaks the round-i sum check directly or
		// changes the reduced claim; a first-round tamper must error.
		if round == 0 && err == nil {
			t.Fatal("tampered first round accepted")
		}
		if err == nil {
			// Later-round tampering shifts the final claim; the verifier's
			// output must then differ from the honest final claim.
			_, honest, _ := Verify(transcript.New("test"), "sc", claim, 5, 1, proof)
			_, tampered, err2 := Verify(transcript.New("test"), "sc", claim, 5, 1, bad)
			if err2 == nil && honest == tampered {
				t.Fatalf("round %d tamper invisible to verifier", round)
			}
		}
	}
}

func TestRejectsMalformedShape(t *testing.T) {
	m := randMLE(3, 14)
	claim := SumOverHypercube([]*poly.MLE{m}, product)
	proof, _, _ := Prove(transcript.New("test"), "sc", claim, []*poly.MLE{m.Clone()}, 1, product)
	if _, _, err := Verify(transcript.New("test"), "sc", claim, 4, 1, proof); err == nil {
		t.Fatal("wrong round count accepted")
	}
	bad := &Proof{RoundPolys: [][]field.Element{{field.One}, {field.One}, {field.One}}}
	if _, _, err := Verify(transcript.New("test"), "sc", claim, 3, 1, bad); err == nil {
		t.Fatal("short round poly accepted")
	}
}

func TestZeroClaimZeroPolynomial(t *testing.T) {
	// All-zero oracle: claim 0, all round polys zero, must verify.
	zero := poly.NewMLE(make([]field.Element, 16))
	trP := transcript.New("test")
	proof, _, finals := Prove(trP, "sc", field.Zero, []*poly.MLE{zero}, 1, product)
	if finals[0] != field.Zero {
		t.Fatal("zero oracle nonzero final")
	}
	_, fc, err := Verify(transcript.New("test"), "sc", field.Zero, 4, 1, proof)
	if err != nil || fc != field.Zero {
		t.Fatalf("zero proof rejected: %v", err)
	}
}

func TestProofSize(t *testing.T) {
	m := randMLE(6, 15)
	claim := SumOverHypercube([]*poly.MLE{m}, product)
	proof, _, _ := Prove(transcript.New("test"), "sc", claim, []*poly.MLE{m.Clone()}, 1, product)
	if proof.SizeBytes() != 6*2*8 {
		t.Fatalf("SizeBytes = %d", proof.SizeBytes())
	}
}

func TestPanicsOnBadInputs(t *testing.T) {
	tr := transcript.New("t")
	for name, fn := range map[string]func(){
		"no oracles": func() { Prove(tr, "x", field.Zero, nil, 1, product) },
		"zero vars": func() {
			Prove(tr, "x", field.Zero, []*poly.MLE{poly.NewMLE(make([]field.Element, 1))}, 1, product)
		},
		"dim mismatch": func() {
			Prove(tr, "x", field.Zero, []*poly.MLE{randMLE(2, 1), randMLE(3, 2)}, 1, product)
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

func BenchmarkProveDeg3_16(b *testing.B) {
	mles := []*poly.MLE{randMLE(16, 1), randMLE(16, 2), randMLE(16, 3), randMLE(16, 4)}
	combine := func(v []field.Element) field.Element {
		return field.Mul(v[0], field.Sub(field.Mul(v[1], v[2]), v[3]))
	}
	claim := SumOverHypercube(mles, combine)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clones := make([]*poly.MLE, len(mles))
		for j, m := range mles {
			clones[j] = m.Clone()
		}
		Prove(transcript.New("bench"), "sc", claim, clones, 3, combine)
	}
}

func TestParallelWorkersForced(t *testing.T) {
	// Force the multi-worker round-evaluation path on single-CPU hosts.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	mles := []*poly.MLE{randMLE(15, 21), randMLE(15, 22)}
	runProtocol(t, mles, 2, product)
}
