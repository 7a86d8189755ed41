package hashfn

import "nocap/internal/keccak"

// The batch entry points of every engine. An engine is an identity (an
// id on the wire, a name on the command line, a transcript domain); the
// datapath behind CompressMany and SumMany is chosen here, by what the
// machine can do (keccak.Lanes, one CPUID/XCR0 probe): groups of eight
// independent messages go through the AVX-512 sponge, what is left in
// groups of four through the AVX2 one, and the rest through crypto/sha3
// one at a time. A machine without a vector permutation hashes everything
// through crypto/sha3, because the portable multi-state permutations are
// slower than one scalar call per message. Measured per eight 64-byte
// compressions on the 2-vCPU Intel Xeon reference box (AVX-512F):
// 1 × Compress64X8 0.61 µs, 2 × Compress64X4 1.75 µs, 8 × sha3.Sum256
// 3.08 µs. Every path computes the same SHA3-256 function, so digests are
// bit-identical whichever runs.

func compressMany(dst, prev []Digest) {
	if len(prev) != 2*len(dst) {
		panic("hashfn: CompressMany size mismatch")
	}
	i := 0
	lanes := keccak.Lanes()
	if lanes >= 8 {
		var in [8][64]byte
		var out [8][32]byte
		for ; i+8 <= len(dst); i += 8 {
			for k := range in {
				copy(in[k][:Size], prev[2*(i+k)][:])
				copy(in[k][Size:], prev[2*(i+k)+1][:])
			}
			keccak.Compress64X8(&out, &in)
			for k := range out {
				dst[i+k] = Digest(out[k])
			}
		}
	}
	if lanes >= 4 {
		var in [4][64]byte
		var out [4][32]byte
		for ; i+4 <= len(dst); i += 4 {
			for k := range in {
				copy(in[k][:Size], prev[2*(i+k)][:])
				copy(in[k][Size:], prev[2*(i+k)+1][:])
			}
			keccak.Compress64X4(&out, &in)
			for k := range out {
				dst[i+k] = Digest(out[k])
			}
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = Hash2(prev[2*i], prev[2*i+1])
	}
}

func sumMany(dst []Digest, msgs [][]byte) {
	if len(msgs) != len(dst) {
		panic("hashfn: SumMany size mismatch")
	}
	// A ragged group ends the vector paths: the interleaved sponges
	// absorb aligned blocks only, so the batch finishes narrower.
	i := 0
	lanes := keccak.Lanes()
	if lanes >= 8 {
		for ; i+8 <= len(dst) && equalLens(msgs[i:i+8]); i += 8 {
			var in [8][]byte
			copy(in[:], msgs[i:i+8])
			var out [8][32]byte
			keccak.Sum256X8(&out, &in)
			for k := range out {
				dst[i+k] = Digest(out[k])
			}
		}
	}
	if lanes >= 4 {
		for ; i+4 <= len(dst) && equalLens(msgs[i:i+4]); i += 4 {
			in := [4][]byte{msgs[i], msgs[i+1], msgs[i+2], msgs[i+3]}
			var out [4][32]byte
			keccak.Sum256X4(&out, &in)
			for k := range out {
				dst[i+k] = Digest(out[k])
			}
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = Sum(msgs[i])
	}
}

func equalLens(msgs [][]byte) bool {
	for _, m := range msgs[1:] {
		if len(m) != len(msgs[0]) {
			return false
		}
	}
	return true
}
