//go:build amd64 && !purego

package field

import "nocap/internal/cpu"

// vec8 reports whether the AVX-512F kernels in vec_amd64.s may run.
func vec8() bool { return cpu.Has(cpu.AVX512) }

//go:noescape
func radix4x8(v *Element, n int, l int, tw *Element)

//go:noescape
func radix2x8(v *Element, n int, l int, w *Element)

//go:noescape
func fold8(x *Element, y *Element, n int, r Element)

//go:noescape
func eqSplit8(lo *Element, hi *Element, n int, r Element)

//go:noescape
func cubicSums8(e0 *Element, e1 *Element, a0 *Element, a1 *Element, b0 *Element, b1 *Element, c0 *Element, c1 *Element, n int, sums *[4][8]Element)

//go:noescape
func productSums8(m0 *Element, m1 *Element, z0 *Element, z1 *Element, n int, sums *[3][8]Element)

//go:noescape
func laneOps8(a *[8]Element, b *[8]Element, out *[4][8]Element)
