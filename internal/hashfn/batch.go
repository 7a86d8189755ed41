package hashfn

import (
	"encoding/binary"

	"nocap/internal/field"
	"nocap/internal/keccak"
)

// The batch entry points of every engine. An engine is an identity (an
// id on the wire, a name on the command line, a transcript domain); the
// datapath behind CompressMany and SumColumns is chosen here, by what the
// machine can do (keccak.Lanes, one CPUID/XCR0 probe): groups of eight
// independent messages go through the AVX-512 sponge, what is left in
// groups of four through the AVX2 one, and the rest through crypto/sha3
// one at a time. A machine without a vector permutation hashes everything
// through crypto/sha3, because the portable multi-state permutations are
// slower than one scalar call per message. Measured on the 2-vCPU Intel
// Xeon reference box (AVX-512F): per eight 64-byte compressions,
// 1 × Compress64X8 0.61 µs, 2 × Compress64X4 1.75 µs, 8 × sha3.Sum256
// 3.08 µs; per 140 × 8192 leaf pass on one core (kernel's
// BenchmarkColumnLeaves), 7.9–9.8 ms with the columns absorbed straight
// from the rows, against 12.2–15.0 ms when each column was first packed
// into a byte message. Every path computes the same SHA3-256 function,
// so digests are bit-identical whichever runs.

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

// sumColumns is SumColumns: the widest sponge absorbs the group straight
// from the rows.
func sumColumns(leaves []Digest, rows [][]field.Element, j int) {
	if len(leaves) > 8 {
		panic("hashfn: SumColumns group wider than eight columns")
	}
	switch lanes := keccak.Lanes(); {
	case lanes >= 8:
		keccak.SumColumnsX8(leaves, rows, j)
	case lanes >= 4:
		for ; len(leaves) > 0; j += 4 {
			m := min(4, len(leaves))
			keccak.SumColumnsX4(leaves[:m], rows, j)
			leaves = leaves[m:]
		}
	default:
		// One crypto/sha3 call per column, gathered into a stack buffer
		// as HashElems packs a vector.
		var stack [8 * hashElemsStack]byte
		buf := stack[:0]
		for k := range leaves {
			buf = buf[:0]
			for _, row := range rows {
				buf = binary.LittleEndian.AppendUint64(buf, row[j+k].Uint64())
			}
			leaves[k] = Sum(buf)
		}
	}
}
