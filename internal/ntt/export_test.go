package ntt

import (
	"math/bits"

	"nocap/internal/field"
)

// resetStagesForTest clears the cached twiddle levels a 1<<logN transform
// uses so race tests can re-exercise the concurrent-first-use path
// repeatedly.
func resetStagesForTest(logN int) {
	for s := 0; s < logN; s++ {
		stageCache[s].Store(nil)
	}
}

// forwardRadix2 is the textbook transform the package shipped before the
// radix-4 schedule — bit-reverse, then log2(n) radix-2 decimation-in-time
// stages over one table of n/2 twiddles — kept as the parity reference
// for sizes where the O(n²) DFT is too slow.
func forwardRadix2(v []field.Element) {
	n := len(v)
	logN := bits.TrailingZeros(uint(n))
	if logN == 0 {
		return
	}
	tw := make([]field.Element, n/2)
	tw[0] = field.One
	w := field.RootOfUnity(logN)
	for i := 1; i < n/2; i++ {
		tw[i] = field.Mul(tw[i-1], w)
	}
	bitReverse(v)
	for s := 1; s <= logN; s++ {
		m := 1 << s
		half := m >> 1
		stride := n / m
		for base := 0; base < n; base += m {
			for j := 0; j < half; j++ {
				lo := v[base+j]
				hi := field.Mul(v[base+j+half], tw[j*stride])
				v[base+j] = field.Add(lo, hi)
				v[base+j+half] = field.Sub(lo, hi)
			}
		}
	}
}
