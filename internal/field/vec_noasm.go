//go:build !amd64 || purego

package field

// Without the assembly every kernel runs its Go loop; the stubs below
// are never reached.

func vec8() bool { return false }

func radix4x8(*Element, int, int, *Element) { panic("unreachable") }

func radix2x8(*Element, int, int, *Element) { panic("unreachable") }

func fold8(*Element, *Element, int, Element) { panic("unreachable") }

func eqSplit8(*Element, *Element, int, Element) { panic("unreachable") }

func cubicSums8(_, _, _, _, _, _, _, _ *Element, _ int, _ *[4][8]Element) { panic("unreachable") }

func productSums8(_, _, _, _ *Element, _ int, _ *[3][8]Element) { panic("unreachable") }

func laneOps8(*[8]Element, *[8]Element, *[4][8]Element) { panic("unreachable") }
