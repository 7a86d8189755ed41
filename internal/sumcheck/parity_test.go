package sumcheck

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"nocap/internal/cpu"
	"nocap/internal/field"
	"nocap/internal/kernel"
	"nocap/internal/poly"
	"nocap/internal/transcript"
)

// edgeValues are the operands where the field's wrap corrections switch
// sides; the parity fuzz sprinkles them through otherwise random arrays.
var edgeValues = []field.Element{0, 1, field.Element(field.Modulus - 1), 1<<32 - 1, 1 << 32}

func cubicCombine(v []field.Element) field.Element {
	return field.Mul(v[0], field.Sub(field.Mul(v[1], v[2]), v[3]))
}

func productCombine(v []field.Element) field.Element { return field.Mul(v[0], v[1]) }

// parityArrays derives count arrays of 2^logN elements from the fuzz
// inputs: random values, with an edge value wherever the pattern says so
// (pattern 0xff makes whole arrays of edge values).
func parityArrays(seed int64, logN int, pattern uint8, count int) [][]field.Element {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]field.Element, count)
	for k := range out {
		out[k] = make([]field.Element, 1<<logN)
		for i := range out[k] {
			if v := rng.Uint64(); uint8(v>>8)|pattern == 0xff || pattern == 0xff {
				out[k][i] = edgeValues[v%uint64(len(edgeValues))]
			} else {
				out[k][i] = field.New(v)
			}
		}
	}
	return out
}

func cloneArrays(src [][]field.Element) [][]field.Element {
	out := make([][]field.Element, len(src))
	for k, x := range src {
		out[k] = append([]field.Element(nil), x...)
	}
	return out
}

// referenceRound is the generic loop's arithmetic, serially: optional
// fold of every array at r (kernel.Fold), then the Combiner evaluated at
// t = 0…degree over every point.
func referenceRound(arrays [][]field.Element, r *field.Element, degree int, combine Combiner) ([][]field.Element, []field.Element) {
	if r != nil {
		for k := range arrays {
			arrays[k] = kernel.Fold(arrays[k], *r)
		}
	}
	half := len(arrays[0]) / 2
	sums := make([]field.Element, degree+1)
	vals := make([]field.Element, len(arrays))
	for b := 0; b < half; b++ {
		for t := 0; t <= degree; t++ {
			for k, x := range arrays {
				vals[k] = field.Add(x[b], field.Mul(field.New(uint64(t)), field.Sub(x[b+half], x[b])))
			}
			sums[t] = field.Add(sums[t], combine(vals))
		}
	}
	return arrays, sums
}

// pureGo runs f on the pure-Go loops whatever datapath the caller is
// testing: the references are computed there.
func pureGo(f func()) {
	defer cpu.Cap(cpu.Scalar)()
	f()
}

// checkKernelRound compares one round of the dedicated loops on the
// current datapath, cut at an arbitrary point into two ranges (so range
// lengths that do and do not fill the vector lanes), against
// referenceRound on the pure-Go loops: the round polynomial and (for the
// fused variant) the folded arrays.
func checkKernelRound(t *testing.T, l cpu.Level, arrays [][]field.Element, r *field.Element, cut int) {
	t.Helper()
	cubic := len(arrays) == 4
	degree, combine := 2, Combiner(productCombine)
	if cubic {
		degree, combine = 3, cubicCombine
	}
	var want [][]field.Element
	var wantSums []field.Element
	pureGo(func() { want, wantSums = referenceRound(cloneArrays(arrays), r, degree, combine) })
	got := cloneArrays(arrays)
	half := len(got[0]) / 2
	if r != nil {
		half /= 2
	}
	cut %= half + 1
	sums := make([]field.Element, degree+1)
	for _, rg := range [][2]int{{0, cut}, {cut, half}} {
		var part []field.Element
		switch {
		case cubic && r == nil:
			p := kernel.CubicRound(got[0], got[1], got[2], got[3], half, rg[0], rg[1])
			part = p[:]
		case cubic:
			p := kernel.CubicFoldRound(got[0], got[1], got[2], got[3], *r, half, rg[0], rg[1])
			part = p[:]
		case r == nil:
			p := kernel.ProductRound(got[0], got[1], half, rg[0], rg[1])
			part = p[:]
		default:
			p := kernel.ProductFoldRound(got[0], got[1], *r, half, rg[0], rg[1])
			part = p[:]
		}
		field.VecAdd(sums, sums, part)
	}
	for i := range sums {
		if sums[i] != wantSums[i] {
			t.Fatalf("%v: %d arrays, n=%d, fold=%v, cut=%d: g(%d) = %v, want %v", l, len(arrays), len(arrays[0]), r != nil, cut, i, sums[i], wantSums[i])
		}
	}
	for k := range want {
		for i, w := range want[k] {
			if got[k][i] != w {
				t.Fatalf("%v: %d arrays, n=%d, cut=%d: folded array %d differs at %d", l, len(arrays), len(arrays[0]), cut, k, i)
			}
		}
	}
}

// checkProtocol runs the dedicated prover on the current datapath and
// the generic Combiner prover on the pure-Go loops on the same arrays and
// requires identical round polynomials, challenges and finals.
func checkProtocol(t *testing.T, l cpu.Level, arrays [][]field.Element) {
	t.Helper()
	mles := make([]*poly.MLE, len(arrays))
	for k, x := range cloneArrays(arrays) {
		mles[k] = poly.NewMLE(x)
	}
	degree, combine := 2, Combiner(productCombine)
	if len(arrays) == 4 {
		degree, combine = 3, cubicCombine
	}
	claim := field.New(12345) // any claim: the prover does not check it
	var wantProof *Proof
	var wantR, wantFinals []field.Element
	pureGo(func() {
		wantProof, wantR, wantFinals = Prove(transcript.New("parity"), "sc", claim, mles, degree, combine)
	})

	a := cloneArrays(arrays)
	var proof *Proof
	var r, finals []field.Element
	var err error
	if len(a) == 4 {
		proof, r, finals, err = ProveCubicCtx(context.Background(), transcript.New("parity"), "sc", claim, a[0], a[1], a[2], a[3])
	} else {
		proof, r, finals, err = ProveProductCtx(context.Background(), transcript.New("parity"), "sc", claim, a[0], a[1])
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantProof.RoundPolys {
		for j, w := range wantProof.RoundPolys[i] {
			if proof.RoundPolys[i][j] != w {
				t.Fatalf("%v: %d arrays, n=%d: round %d g(%d) = %v, want %v", l, len(arrays), len(arrays[0]), i, j, proof.RoundPolys[i][j], w)
			}
		}
		if r[i] != wantR[i] {
			t.Fatalf("%v: round %d challenge diverged", l, i)
		}
	}
	for k := range wantFinals {
		if finals[k] != wantFinals[k] {
			t.Fatalf("%v: final %d = %v, want %v", l, k, finals[k], wantFinals[k])
		}
	}
}

// FuzzRoundKernelParity is the differential fuzz target of the sumcheck
// datapath: the cubic and product loops — unfused (round 0) and fused
// with the fold, cut into ranges at arbitrary points, serial and fanned
// out, on every datapath the machine has (the 8-lane kernels and the
// pure-Go loops, forced through the cpu seam) — must agree with the
// generic Combiner loop on the pure-Go loops on round polynomials,
// challenges, finals and folded arrays, for sizes 2…2^15 (both sides of
// the worker-pool threshold, of the fuse and cancellation block sizes and
// of the lane width).
func FuzzRoundKernelParity(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint16(0))
	f.Add(int64(2), uint8(2), uint8(0xff), uint16(1))
	f.Add(int64(3), uint8(9), uint8(0xf0), uint16(255))
	f.Add(int64(4), uint8(10), uint8(0), uint16(257))
	f.Add(int64(5), uint8(14), uint8(0xfe), uint16(4097))
	f.Add(int64(6), uint8(15), uint8(0), uint16(8191))
	f.Fuzz(func(t *testing.T, seed int64, logN, pattern uint8, cut uint16) {
		n := 1 + int(logN)%15
		r := field.New(uint64(seed) * 0x9e3779b97f4a7c15)
		for _, count := range []int{4, 2} {
			arrays := parityArrays(seed, n, pattern, count)
			cpu.Each(func(l cpu.Level) {
				checkKernelRound(t, l, arrays, nil, int(cut))
				if n >= 2 {
					checkKernelRound(t, l, arrays, &r, int(cut))
				}
				for _, procs := range []int{1, 4} {
					old := runtime.GOMAXPROCS(procs)
					checkProtocol(t, l, arrays)
					runtime.GOMAXPROCS(old)
				}
			})
		}
	})
}

func benchRound(b *testing.B, count int, prove func(arrays [][]field.Element)) {
	src := parityArrays(1, 16, 0, count)
	work := cloneArrays(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range src {
			copy(work[k], src[k])
		}
		prove(work)
	}
}

// BenchmarkRound* time one whole sumcheck over 2^16 points per shape; the
// generic run is the same cubic summand through the Combiner loop, so
// Cubic vs Generic is the dedicated loop's gain.
func BenchmarkRoundCubic(b *testing.B) {
	b.Run("2^16", func(b *testing.B) {
		benchRound(b, 4, func(a [][]field.Element) {
			if _, _, _, err := ProveCubicCtx(context.Background(), transcript.New("bench"), "sc", field.Zero, a[0], a[1], a[2], a[3]); err != nil {
				b.Fatal(err)
			}
		})
	})
}

func BenchmarkRoundProduct(b *testing.B) {
	b.Run("2^16", func(b *testing.B) {
		benchRound(b, 2, func(a [][]field.Element) {
			if _, _, _, err := ProveProductCtx(context.Background(), transcript.New("bench"), "sc", field.Zero, a[0], a[1]); err != nil {
				b.Fatal(err)
			}
		})
	})
}

func BenchmarkRoundGeneric(b *testing.B) {
	b.Run("2^16", func(b *testing.B) {
		benchRound(b, 4, func(a [][]field.Element) {
			mles := make([]*poly.MLE, len(a))
			for k, x := range a {
				mles[k] = poly.NewMLE(x)
			}
			Prove(transcript.New("bench"), "sc", field.Zero, mles, 3, cubicCombine)
		})
	})
}
