package field

// Slice-level kernels: the prover's hot loops over whole vectors, each
// with two implementations — eight 64-bit lanes of AVX-512F
// (vec_amd64.s) where the CPU has it, and the pure-Go loop everywhere
// else (the purego build, other architectures, CPUs without AVX-512F).
// The choice is made per call from internal/cpu's probe. Field
// arithmetic is exact and both implementations compute canonical
// elements, so they return identical results for every input; the vector
// code only needs a length that fills whole lanes and hands any tail to
// the Go loop.
//
// The kernels do not credit the multiply counter: their callers credit
// the exact count once per invocation, as they did before the vector path
// existed (so the §III counts do not depend on which path ran).

// Radix4Pass runs one radix-4 decimation-in-time NTT pass over v in
// place (internal/ntt owns the schedule): every four adjacent length-l
// blocks x0…x3 become one transformed block of length 4l through the
// butterfly
//
//	a = x0[j]   b = x1[j]·w^2j   c = x2[j]·w^j   d = x3[j]·w^3j
//	x0[j] = (a+b) + (c+d)        x2[j] = (a+b) − (c+d)
//	x1[j] = (a−b) + (c−d)·ω₄     x3[j] = (a−b) − (c−d)·ω₄
//
// where w is a primitive 4l-th root of unity and ω₄ = 2^48 (so the
// fourth multiply is a shift, MulPow2). tw is the stage table: three runs
// of l entries, w^j, then w^2j, then w^3j. l must be a power of two and
// len(v) a multiple of 4l.
func Radix4Pass(v []Element, l int, tw []Element) {
	if len(v)%(4*l) != 0 || len(tw) < 3*l {
		panic("field: radix-4 pass shape mismatch")
	}
	if len(v) > 0 && vec8() && (l >= 8 || l == 4 && len(v)%32 == 0) {
		radix4x8(&v[0], len(v), l, &tw[0])
		return
	}
	w1, w2, w3 := tw[:l], tw[l:2*l], tw[2*l:3*l]
	for base := 0; base < len(v); base += 4 * l {
		x0, x1 := v[base:base+l], v[base+l:base+2*l]
		x2, x3 := v[base+2*l:base+3*l], v[base+3*l:base+4*l]
		for j := range x0 {
			a, b := x0[j], Mul(x1[j], w2[j])
			c, d := Mul(x2[j], w1[j]), Mul(x3[j], w3[j])
			e0, e1 := Add(a, b), Sub(a, b)
			f0, f1 := Add(c, d), MulPow2(Sub(c, d), 48)
			x0[j], x1[j] = Add(e0, f0), Add(e1, f1)
			x2[j], x3[j] = Sub(e0, f0), Sub(e1, f1)
		}
	}
}

// Radix2Pass runs one radix-2 decimation-in-time NTT pass over v in
// place: every two adjacent length-l blocks lo, hi become lo[j] + hi[j]·w^j
// and lo[j] − hi[j]·w^j, with w a primitive 2l-th root of unity and
// w[j] = w^j for j < l. l must be a power of two and len(v) a multiple
// of 2l.
func Radix2Pass(v []Element, l int, w []Element) {
	if len(v)%(2*l) != 0 || len(w) < l {
		panic("field: radix-2 pass shape mismatch")
	}
	if len(v) > 0 && vec8() && l >= 8 {
		radix2x8(&v[0], len(v), l, &w[0])
		return
	}
	w = w[:l]
	for base := 0; base < len(v); base += 2 * l {
		x0, x1 := v[base:base+l], v[base+l:base+2*l]
		for j := range x0 {
			lo, hi := x0[j], Mul(x1[j], w[j])
			x0[j], x1[j] = Add(lo, hi), Sub(lo, hi)
		}
	}
}

// Fold binds a sumcheck challenge in place: x[i] = x[i] + r·(y[i] − x[i])
// for every i < len(x). len(y) must equal len(x).
func Fold(x, y []Element, r Element) {
	if len(y) != len(x) {
		panic("field: fold length mismatch")
	}
	n := 0
	if vec8() {
		if n = len(x) &^ 7; n > 0 {
			fold8(&x[0], &y[0], n, r)
		}
	}
	x, y = x[n:], y[n:len(x)]
	for i, v := range x {
		x[i] = MulAdd(r, Sub(y[i], v), v)
	}
}

// EqSplit is one doubling step of an eq-table expansion: every entry
// t = lo[i] splits into hi[i] = t·r and lo[i] = t − t·r = t·(1 − r).
// len(hi) must equal len(lo).
func EqSplit(lo, hi []Element, r Element) {
	if len(hi) != len(lo) {
		panic("field: eq split length mismatch")
	}
	n := 0
	if vec8() {
		if n = len(lo) &^ 7; n > 0 {
			eqSplit8(&lo[0], &hi[0], n, r)
		}
	}
	lo, hi = lo[n:], hi[n:len(lo)]
	for i, t := range lo {
		hi[i] = Mul(t, r)
		lo[i] = Sub(t, hi[i])
	}
}

// CubicSums returns Σ_j e·(a·b − c) evaluated at t = 0, 1, 2, 3, where
// each of e, a, b, c contributes x0[j] + t·(x1[j] − x0[j]) — the round
// polynomial of Spartan's outer sumcheck over a range of points
// (internal/kernel's CubicRound). All eight slices must have the same
// length.
func CubicSums(e0, e1, a0, a1, b0, b1, c0, c1 []Element) [4]Element {
	n := len(e0)
	if len(e1) != n || len(a0) != n || len(a1) != n || len(b0) != n || len(b1) != n || len(c0) != n || len(c1) != n {
		panic("field: cubic sums length mismatch")
	}
	var sums [4]Element
	m := 0
	if vec8() {
		if m = n &^ 7; m > 0 {
			var lanes [4][8]Element
			cubicSums8(&e0[0], &e1[0], &a0[0], &a1[0], &b0[0], &b1[0], &c0[0], &c1[0], m, &lanes)
			for t := range lanes {
				sums[t] = sumLanes(&lanes[t])
			}
		}
	}
	// The Go loop keeps each evaluation's running sum in a delayed-
	// reduction accumulator and reduces once at the end.
	var s0, s1, s2, s3 Acc
	e0, e1, a0, a1, b0, b1, c0, c1 = e0[m:], e1[m:n], a0[m:n], a1[m:n], b0[m:n], b1[m:n], c0[m:n], c1[m:n]
	for j := range e0 {
		ee0, ee1, aa0, aa1, bb0, bb1, cc0, cc1 := e0[j], e1[j], a0[j], a1[j], b0[j], b1[j], c0[j], c1[j]
		de, da, db, dc := Sub(ee1, ee0), Sub(aa1, aa0), Sub(bb1, bb0), Sub(cc1, cc0)
		s0 = s0.AddMul(ee0, Sub(Mul(aa0, bb0), cc0))
		s1 = s1.AddMul(ee1, Sub(Mul(aa1, bb1), cc1))
		ee1, aa1, bb1, cc1 = Add(ee1, de), Add(aa1, da), Add(bb1, db), Add(cc1, dc)
		s2 = s2.AddMul(ee1, Sub(Mul(aa1, bb1), cc1))
		ee1, aa1, bb1, cc1 = Add(ee1, de), Add(aa1, da), Add(bb1, db), Add(cc1, dc)
		s3 = s3.AddMul(ee1, Sub(Mul(aa1, bb1), cc1))
	}
	for t, s := range [4]Acc{s0, s1, s2, s3} {
		sums[t] = Add(sums[t], s.Reduce())
	}
	return sums
}

// ProductSums returns Σ_j m·z evaluated at t = 0, 1, 2, with the same
// convention as CubicSums — the round polynomial of Spartan's inner
// sumcheck (internal/kernel's ProductRound). All four slices must have
// the same length.
func ProductSums(m0, m1, z0, z1 []Element) [3]Element {
	n := len(m0)
	if len(m1) != n || len(z0) != n || len(z1) != n {
		panic("field: product sums length mismatch")
	}
	var sums [3]Element
	m := 0
	if vec8() {
		if m = n &^ 7; m > 0 {
			var lanes [3][8]Element
			productSums8(&m0[0], &m1[0], &z0[0], &z1[0], m, &lanes)
			for t := range lanes {
				sums[t] = sumLanes(&lanes[t])
			}
		}
	}
	var s0, s1, s2 Acc
	m0, m1, z0, z1 = m0[m:], m1[m:n], z0[m:n], z1[m:n]
	for j := range m0 {
		mm0, mm1, zz0, zz1 := m0[j], m1[j], z0[j], z1[j]
		s0 = s0.AddMul(mm0, zz0)
		s1 = s1.AddMul(mm1, zz1)
		s2 = s2.AddMul(Add(mm1, Sub(mm1, mm0)), Add(zz1, Sub(zz1, zz0)))
	}
	for t, s := range [3]Acc{s0, s1, s2} {
		sums[t] = Add(sums[t], s.Reduce())
	}
	return sums
}

// sumLanes is the one horizontal add of a vector kernel's per-lane
// canonical accumulators.
func sumLanes(v *[8]Element) Element {
	s := v[0]
	for _, x := range v[1:] {
		s = Add(s, x)
	}
	return s
}
