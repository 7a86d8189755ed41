package keccak

import (
	"crypto/sha3"
	"math/rand"
	"testing"

	"nocap/internal/cpu"
)

// eachLevel runs f once per datapath the machine has, widest first, with
// the narrower ones forced through the cpu seam.
func eachLevel(t *testing.T, f func(t *testing.T)) {
	cpu.Each(func(l cpu.Level) { t.Run(l.String(), f) })
}

// TestPermuteX8MatchesScalar drives eight random states through the
// 8-way permutation (vector and portable) and checks each against the
// scalar Permute.
func TestPermuteX8MatchesScalar(t *testing.T) {
	eachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		var x8 StateX8
		var scalar [8]State
		for k := range scalar {
			for i := range x8 {
				v := rng.Uint64()
				scalar[k][i%5][i/5] = v
				x8[i][k] = v
			}
		}
		for iter := 0; iter < 3; iter++ {
			x8.Permute()
			for k := range scalar {
				scalar[k].Permute()
				for i := range x8 {
					if x8[i][k] != scalar[k][i%5][i/5] {
						t.Fatalf("iter %d state %d lane %d: x8 %#x, scalar %#x", iter, k, i, x8[i][k], scalar[k][i%5][i/5])
					}
				}
			}
		}
	})
}

func TestCompress64X8MatchesStdlib(t *testing.T) {
	eachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		var in [8][64]byte
		for k := range in {
			rng.Read(in[k][:])
		}
		var out [8][32]byte
		Compress64X8(&out, &in)
		for k := range in {
			if want := sha3.Sum256(in[k][:]); out[k] != want {
				t.Fatalf("buffer %d: Compress64X8 disagrees with crypto/sha3", k)
			}
		}
	})
}

func TestLanesFollowsCapability(t *testing.T) {
	want := map[cpu.Level]int{cpu.Scalar: 1, cpu.AVX2: 4, cpu.AVX512: 8}
	cpu.Each(func(l cpu.Level) {
		if got := Lanes(); got != want[l] {
			t.Errorf("Lanes() capped at %v = %d, want %d", l, got, want[l])
		}
	})
}

// BenchmarkPermuteX8 measures one 8-way permutation (eight states per op).
func BenchmarkPermuteX8(b *testing.B) {
	var s StateX8
	for b.Loop() {
		s.Permute()
	}
}

// BenchmarkPermuteX4 is the same for the 4-way datapath (four states per op).
func BenchmarkPermuteX4(b *testing.B) {
	var s StateX4
	for b.Loop() {
		s.Permute()
	}
}

// BenchmarkCompress64X8 measures the fused eight-way 2-to-1 compression
// (per-op cost covers eight sibling pairs).
func BenchmarkCompress64X8(b *testing.B) {
	var in [8][64]byte
	var out [8][32]byte
	b.SetBytes(8 * 64)
	for b.Loop() {
		Compress64X8(&out, &in)
	}
}
