package hashfn

import "nocap/internal/keccak"

// The batch entry points of every engine. An engine is an identity (an
// id on the wire, a name on the command line, a transcript domain); the
// datapath behind CompressMany and SumMany is chosen here, once, by what
// the machine can do: where internal/keccak has its AVX2 permutation,
// groups of four independent messages go through the interleaved
// multi-buffer sponge, so one permutation pass advances four Merkle
// nodes or four codeword columns; elsewhere (other architectures, the
// purego build) they go through crypto/sha3 one at a time, because the
// portable four-wide permutation is slower than four scalar calls
// (3.06 µs vs 1.83 µs per four 64-byte compressions on the 2.1 GHz Xeon
// this was measured on). Both paths compute the same SHA3-256 function,
// so digests are bit-identical either way.

func compressMany(dst, prev []Digest) {
	if len(prev) != 2*len(dst) {
		panic("hashfn: CompressMany size mismatch")
	}
	i := 0
	if keccak.Vectorized() {
		var in [4][64]byte
		var out [4][32]byte
		for ; i+4 <= len(dst); i += 4 {
			for k := 0; k < 4; k++ {
				copy(in[k][:Size], prev[2*(i+k)][:])
				copy(in[k][Size:], prev[2*(i+k)+1][:])
			}
			keccak.Compress64X4(&out, &in)
			for k := 0; k < 4; k++ {
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
	i := 0
	if keccak.Vectorized() {
		for ; i+4 <= len(dst); i += 4 {
			n := len(msgs[i])
			if len(msgs[i+1]) != n || len(msgs[i+2]) != n || len(msgs[i+3]) != n {
				// Ragged group: the interleaved sponge absorbs aligned
				// blocks only; finish the batch on the scalar path.
				break
			}
			in := [4][]byte{msgs[i], msgs[i+1], msgs[i+2], msgs[i+3]}
			var out [4][32]byte
			keccak.Sum256X4(&out, &in)
			for k := 0; k < 4; k++ {
				dst[i+k] = Digest(out[k])
			}
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = Sum(msgs[i])
	}
}
