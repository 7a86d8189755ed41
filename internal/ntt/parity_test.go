package ntt

import (
	"context"
	"math/rand"
	"testing"

	"nocap/internal/cpu"
	"nocap/internal/field"
)

// parityVec derives a 2^logN-element vector from the fuzz inputs: random
// values with the field's edge values mixed in, and the tail beyond keep
// zeroed (so zero-heavy inputs like RS messages are covered).
func parityVec(seed int64, logN, keep int) []field.Element {
	edge := []field.Element{0, 1, field.Element(field.Modulus - 1), 1<<32 - 1, 1 << 32}
	rng := rand.New(rand.NewSource(seed))
	v := make([]field.Element, 1<<logN)
	for i := range v[:min(keep, len(v))] {
		if x := rng.Uint64(); x%16 == 0 {
			v[i] = edge[(x>>4)%uint64(len(edge))]
		} else {
			v[i] = field.New(x)
		}
	}
	return v
}

func equalVec(t *testing.T, what string, got, want []field.Element) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, want %v (n=%d)", what, i, got[i], want[i], len(want))
		}
	}
}

// FuzzNTTParity is the differential fuzz target of the transform, run on
// every datapath the machine has (the 8-lane passes and the pure-Go
// loops, forced through the cpu seam): the radix-4 schedule against the
// O(n²) DFT for n ≤ 2^8 and against the retained radix-2 transform up to
// 2^14; the zero-padded entry point against the full transform of the
// padded vector for blowup 1, 2, 4, 8 (including message lengths that are
// not powers of two or multiples of 8, and dirty destination buffers);
// and Inverse∘Forward = id.
func FuzzNTTParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0))
	f.Add(int64(2), uint8(1), uint16(1))
	f.Add(int64(3), uint8(5), uint16(9))
	f.Add(int64(4), uint8(8), uint16(200))
	f.Add(int64(5), uint8(13), uint16(2048))
	f.Add(int64(6), uint8(14), uint16(5000))
	f.Add(int64(7), uint8(11), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, logN uint8, msgLen uint16) {
		n := int(logN) % 15
		v := parityVec(seed, n, 1<<n)
		want := append([]field.Element(nil), v...)
		forwardRadix2(want)
		if n <= 8 {
			equalVec(t, "radix-2 reference vs DFT", want, naiveDFT(v))
		}
		cpu.Each(func(l cpu.Level) {
			got := append([]field.Element(nil), v...)
			Forward(got)
			equalVec(t, "Forward vs radix-2 on "+l.String(), got, want)
			Inverse(got)
			equalVec(t, "Inverse∘Forward on "+l.String(), got, v)

			for _, blowup := range []int{1, 2, 4, 8} {
				if blowup > len(v) {
					break
				}
				m := len(v) / blowup
				msg := v[:m-int(msgLen)%m] // in (0, m]: also the non-power-of-two lengths
				padded := make([]field.Element, len(v))
				copy(padded, msg)
				forwardRadix2(padded)
				dst := parityVec(seed+1, n, 1<<n) // dirty scratch
				if err := ForwardPaddedCtx(context.Background(), dst, msg); err != nil {
					t.Fatal(err)
				}
				equalVec(t, "padded entry vs full transform on "+l.String(), dst, padded)
			}
		})
	})
}

// BenchmarkForwardPadded is one Reed-Solomon row encode at the size of a
// 2^16-constraint commitment: 2^11 message entries, blowup 4.
func BenchmarkForwardPadded(b *testing.B) {
	msg := randVec(1<<11, 7)
	dst := make([]field.Element, 1<<13)
	Prepare(13)
	b.SetBytes(8 << 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ForwardPaddedCtx(context.Background(), dst, msg); err != nil {
			b.Fatal(err)
		}
	}
}
