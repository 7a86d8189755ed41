// Package ntt implements number-theoretic transforms over the Goldilocks
// field: the iterative radix-4 transform (with a zero-padded entry point
// for Reed-Solomon encoding that skips the all-zero stages), and the four-step
// (Bailey) algorithm that NoCap's 64-lane NTT functional unit executes for
// vectors larger than its native 2^12-point capacity (paper §IV-B, §V-A).
//
// Transforms are cyclic: Forward evaluates a coefficient vector on the
// powers of a primitive n-th root of unity (in natural order), and Inverse
// interpolates back.
package ntt

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"nocap/internal/faultinject"
	"nocap/internal/field"
)

// fiForward is the registered fault-injection point at transform entry
// (chaos tests arm it by this name).
var fiForward = faultinject.Register("ntt.forward")

// FUSize is the largest NTT NoCap's functional unit performs in a single
// pass: 64×64 = 2^12 points (paper §IV-B).
const FUSize = 1 << 12

// FULanes is the element throughput per cycle of the NTT FU.
const FULanes = 64

// Transform schedule. Forward is a decimation-in-time transform: the
// input is permuted into bit-reversed order, after which blocks of length
// L = 1 hold (trivially) transformed sub-vectors, and each pass merges
// adjacent blocks until L = n. Passes are radix-4 — four blocks of length
// L become one of length 4L, two butterfly stages in one sweep over the
// vector (field.Radix4Pass has the butterfly: three multiplies where two
// radix-2 stages spend four, the fourth root of unity being a shift) —
// with a single radix-2 pass last, at L = n/2, when the number of stages
// is odd. Putting the odd stage last rather than first keeps every pass
// of a Reed-Solomon encode (which starts at L = blowup = 4) at a block
// length the 8-lane datapath fills; the stages run in the same order
// either way, and the arithmetic is exact, so the output is identical.
//
// Twiddles are stored per stage level s (L = 2^s), contiguously, as three
// runs of L entries in the order the butterfly reads them: w^j, then
// w^2j, then w^3j, with w the primitive 4L-th root of unity — so every
// twiddle load of a pass is unit-stride. A level depends only on L, not
// on n, so all transform sizes share the same tables; a radix-2 pass at
// block length L reads the middle run (w^2j is the 2L-th root's j-th
// power).

// stageCache memoizes the per-level twiddle tables, one atomic slot per
// level. A table is immutable once published, so the hot path is a single
// atomic load (no locks, no allocation). Concurrent first use of a level
// is safe: each racer computes its own table and the first CompareAndSwap
// wins; losers adopt the published table, so every caller sees the same
// backing array. Prepare remains available as an optional warm-up to keep
// first-request latency off the serving path.
var stageCache [field.TwoAdicity]atomic.Pointer[[]field.Element]

// revCache memoizes bit-reversal permutations per log2(size) for the
// zero-padded entry point, which gathers through the table instead of
// swapping in place. Same publication protocol as stageCache.
var revCache [field.TwoAdicity + 1]atomic.Pointer[[]uint32]

// Prepare precomputes the twiddle tables for size 1<<logN so later calls
// at that size are allocation-free.
func Prepare(logN int) {
	for s := 0; s < logN; s++ {
		stageTable(s)
	}
}

// stageTable returns level s: the runs w^j, w^2j, w^3j for j < 2^s,
// with w the primitive 2^(s+2)-th root of unity.
func stageTable(s int) []field.Element {
	if p := stageCache[s].Load(); p != nil {
		return *p
	}
	l := 1 << s
	w := field.RootOfUnity(s + 2)
	t := make([]field.Element, 3*l)
	w1 := field.One
	for j := 0; j < l; j++ {
		w2 := field.Square(w1)
		t[j], t[l+j], t[2*l+j] = w1, w2, field.Mul(w1, w2)
		w1 = field.Mul(w1, w)
	}
	if !stageCache[s].CompareAndSwap(nil, &t) {
		// Another goroutine published first; use its table so all callers
		// share one backing array.
		return *stageCache[s].Load()
	}
	return t
}

// revTable returns the logN-bit bit-reversal permutation.
func revTable(logN int) []uint32 {
	if p := revCache[logN].Load(); p != nil {
		return *p
	}
	t := make([]uint32, 1<<logN)
	if logN > 0 {
		shift := 32 - uint(logN)
		for i := range t {
			t[i] = bits.Reverse32(uint32(i)) >> shift
		}
	}
	if !revCache[logN].CompareAndSwap(nil, &t) {
		return *revCache[logN].Load()
	}
	return t
}

// checkLen validates that len(v) is a supported power of two and returns
// log2(len(v)).
func checkLen(v []field.Element) int {
	n := len(v)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("ntt: length %d is not a power of two", n))
	}
	logN := bits.TrailingZeros(uint(n))
	if logN > field.TwoAdicity {
		panic(fmt.Sprintf("ntt: length 2^%d exceeds field two-adicity", logN))
	}
	return logN
}

// bitReverse permutes v into bit-reversed index order in place.
func bitReverse(v []field.Element) {
	n := len(v)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// Forward computes the in-place cyclic NTT of v: v[k] ← Σ_j v[j]·w^(jk)
// with w a primitive len(v)-th root of unity. Output is in natural order.
// An injected fault (chaos tests only) escapes as a panic and is
// contained by the caller's zkerr boundary; context-aware callers use
// ForwardCtx instead.
func Forward(v []field.Element) {
	if err := ForwardCtx(context.Background(), v); err != nil {
		panic(err)
	}
}

// ForwardCtx is Forward with cooperative cancellation: the transform
// checks the context between passes (each pass is O(n), so a cancelled
// 2^20-point transform stops within a fraction of a millisecond of work)
// and passes through the "ntt.forward" fault injection point on entry. On
// cancellation v is left partially transformed and must be discarded.
func ForwardCtx(ctx context.Context, v []field.Element) error {
	if checkLen(v) == 0 {
		return nil
	}
	if err := faultinject.Check(fiForward); err != nil {
		return err
	}
	bitReverse(v)
	return passes(ctx, v, 0)
}

// ForwardPaddedCtx writes into dst the transform of msg zero-padded to
// len(dst) — the Reed-Solomon encode — without transforming the zeros.
// With m = len(msg) rounded up to a power of two and k = len(dst)/m, the
// bit-reversed input has its nonzero entries at multiples of k, and the
// first log2(k) butterfly stages of such a vector only replicate each
// entry across its block of k (every butterfly adds or subtracts a zero).
// So the permutation writes each message entry k times and the passes
// start at block length k. dst must not overlap msg; its prior contents
// are ignored. Cancellation and fault injection are as in ForwardCtx.
func ForwardPaddedCtx(ctx context.Context, dst, msg []field.Element) error {
	logN := checkLen(dst)
	if len(msg) > len(dst) {
		panic("ntt: padded message longer than the transform")
	}
	if err := faultinject.Check(fiForward); err != nil {
		return err
	}
	logM := 0
	for 1<<logM < len(msg) {
		logM++
	}
	done := logN - logM
	k := 1 << done
	for i, r := range revTable(logM) {
		var x field.Element
		if int(r) < len(msg) {
			x = msg[r]
		}
		block := dst[i*k : (i+1)*k]
		for c := range block {
			block[c] = x
		}
	}
	return passes(ctx, dst, done)
}

// passes runs the butterfly passes on v, whose blocks of length 1<<done
// already hold transformed sub-vectors, polling ctx between passes.
func passes(ctx context.Context, v []field.Element, done int) error {
	n := len(v)
	logN := bits.TrailingZeros(uint(n))
	muls := 0
	for ; done+2 <= logN; done += 2 {
		if err := ctx.Err(); err != nil {
			return err
		}
		field.Radix4Pass(v, 1<<done, stageTable(done))
		muls += 3 * n / 4
	}
	if done < logN {
		if err := ctx.Err(); err != nil {
			return err
		}
		l := 1 << done
		field.Radix2Pass(v, l, stageTable(done)[l:2*l])
		muls += n / 2
	}
	field.AddMulCount(uint64(muls))
	return nil
}

// Inverse computes the in-place inverse cyclic NTT of v, the inverse of
// Forward (including the 1/n scaling).
func Inverse(v []field.Element) {
	logN := checkLen(v)
	if logN == 0 {
		return
	}
	n := len(v)
	// Inverse NTT = forward NTT with w^{-1}; implemented by running the
	// forward transform and reversing the non-fixed positions, then
	// scaling by n^{-1}.
	Forward(v)
	for i, j := 1, n-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
	nInv := field.Inv(field.New(uint64(n)))
	for i := range v {
		v[i] = field.Mul(v[i], nInv)
	}
}

// FourStep computes the same transform as Forward using Bailey's four-step
// algorithm: view v as a rows×cols matrix (row-major), transform columns,
// scale by twiddle factors, transform rows, and transpose. This is the
// decomposition NoCap uses to run arbitrarily large NTTs through its
// 2^12-point FU (paper §V-A); functionally it must agree with Forward,
// which the tests check. rows and cols must be powers of two with
// rows*cols == len(v).
func FourStep(v []field.Element, rows, cols int) {
	n := len(v)
	if rows*cols != n {
		panic("ntt: four-step shape mismatch")
	}
	logN := checkLen(v)
	w := field.RootOfUnity(logN)

	// Step 1: NTT each column (stride-cols subvectors).
	col := make([]field.Element, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = v[r*cols+c]
		}
		Forward(col)
		for r := 0; r < rows; r++ {
			v[r*cols+c] = col[r]
		}
	}
	// Step 2: multiply element (r,c) by w^(r*c).
	wr := field.One // w^r
	for r := 0; r < rows; r++ {
		wrc := field.One // w^(r*c)
		for c := 0; c < cols; c++ {
			v[r*cols+c] = field.Mul(v[r*cols+c], wrc)
			wrc = field.Mul(wrc, wr)
		}
		wr = field.Mul(wr, w)
	}
	// Step 3: NTT each row.
	for r := 0; r < rows; r++ {
		Forward(v[r*cols : (r+1)*cols])
	}
	// Step 4: transpose, so output index k = c*rows + r corresponds to
	// frequency c + cols*r ... i.e. X[c*rows+r] currently at (r,c).
	out := make([]field.Element, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out[c*rows+r] = v[r*cols+c]
		}
	}
	copy(v, out)
}

// PolyMul returns the product of polynomials a and b (coefficient form,
// arbitrary lengths) via NTT convolution, trimmed to the exact product
// degree. This is the "polynomial arithmetic" task of paper §V-A.
func PolyMul(a, b []field.Element) []field.Element {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	n := 1
	for n < outLen {
		n <<= 1
	}
	fa := make([]field.Element, n)
	fb := make([]field.Element, n)
	copy(fa, a)
	copy(fb, b)
	Forward(fa)
	Forward(fb)
	field.VecMul(fa, fa, fb)
	Inverse(fa)
	return fa[:outLen]
}
