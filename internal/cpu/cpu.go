// Package cpu is the one capability probe behind the prover's vector
// datapaths: internal/field's 8-lane Goldilocks kernels and
// internal/keccak's 4- and 8-way permutations ask it which x86 vector
// extensions the processor and the OS support. The lane width follows the
// machine alone — there is no flag, environment variable or build tag
// that widens it. The purego build and non-amd64 targets report Scalar,
// so every caller runs its pure-Go loops there.
package cpu

import "sync/atomic"

// Level is a vector datapath width. Levels are ordered: a machine at one
// level also supports every level below it.
type Level int32

const (
	// Scalar is no vector extension: the pure-Go loops.
	Scalar Level = iota
	// AVX2 is 256-bit ymm registers, four 64-bit lanes.
	AVX2
	// AVX512 is AVX-512F zmm registers, eight 64-bit lanes.
	AVX512
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	}
	return "scalar"
}

// detected is the widest level the machine supports, probed once.
var detected = detect()

// limit is the widest level Has admits; only Cap lowers it.
var limit atomic.Int32

func init() { limit.Store(int32(AVX512)) }

// Detected returns the widest level this machine and OS support.
func Detected() Level { return detected }

// Has reports whether datapaths of level l may run: the machine supports
// them and no Cap is in force below l.
func Has(l Level) bool { return l <= detected && int32(l) <= limit.Load() }

// Cap makes Has report false above l until the returned function restores
// the previous limit. It is the test seam that runs the narrower
// datapaths on a wider machine so they can be compared with each other;
// the prover never calls it. Calls must not overlap.
func Cap(l Level) (restore func()) {
	prev := limit.Swap(int32(l))
	return func() { limit.Store(prev) }
}

// Each calls f once per level the machine supports, widest first, with
// Has capped at that level for the duration of the call: how a parity
// test runs every datapath on one machine. Like Cap, it is for tests.
func Each(f func(Level)) {
	for l := detected; l >= Scalar; l-- {
		func() {
			defer Cap(l)()
			f(l)
		}()
	}
}
