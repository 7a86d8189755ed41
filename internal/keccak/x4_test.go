package keccak

import (
	"crypto/sha3"
	"math/rand"
	"testing"
)

// TestPermuteX4MatchesScalar drives four random states through the
// interleaved permutation and checks each lane against the scalar
// Permute, per buffer.
func TestPermuteX4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x4 StateX4
	var scalar [4]State
	for k := 0; k < 4; k++ {
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				v := rng.Uint64()
				scalar[k][x][y] = v
				x4[x+5*y].setLane(k, v)
			}
		}
	}
	for iter := 0; iter < 3; iter++ {
		x4.Permute()
		for k := range scalar {
			scalar[k].Permute()
		}
		for k := 0; k < 4; k++ {
			for x := 0; x < 5; x++ {
				for y := 0; y < 5; y++ {
					if x4[x+5*y].lane(k) != scalar[k][x][y] {
						t.Fatalf("iter %d buffer %d lane (%d,%d): x4 %#x, scalar %#x",
							iter, k, x, y, x4[x+5*y].lane(k), scalar[k][x][y])
					}
				}
			}
		}
	}
}

// TestCompress64X4MatchesStdlib pins the fused 2-to-1 compression
// against crypto/sha3 for all four buffers.
func TestCompress64X4MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var in [4][64]byte
	for k := range in {
		rng.Read(in[k][:])
	}
	var out [4][32]byte
	Compress64X4(&out, &in)
	for k := range in {
		if want := sha3.Sum256(in[k][:]); out[k] != want {
			t.Fatalf("buffer %d: Compress64X4 disagrees with crypto/sha3", k)
		}
	}
}

// BenchmarkCompress64X4 measures the fused four-way 2-to-1 compression
// (per-op cost covers four sibling pairs).
func BenchmarkCompress64X4(b *testing.B) {
	var in [4][64]byte
	var out [4][32]byte
	b.SetBytes(4 * 64)
	for i := 0; i < b.N; i++ {
		Compress64X4(&out, &in)
	}
}

// BenchmarkStdlibSum256x4 is the scalar baseline for the same work:
// four independent 64-byte SHA3-256 calls through crypto/sha3.
func BenchmarkStdlibSum256x4(b *testing.B) {
	var in [4][64]byte
	b.SetBytes(4 * 64)
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			_ = sha3.Sum256(in[k][:])
		}
	}
}
