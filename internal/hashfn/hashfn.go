// Package hashfn provides the SHA3-256 hashing primitives of the NoCap
// stack. The hash FU (paper §IV-B) is a 2-to-1 compressor: it "takes two
// 256-bit values and outputs a 256-bit result" at 1 KB/cycle; Merkle
// trees, Fiat–Shamir transcripts and leaf packing are all built from this
// primitive, mirrored here in software.
package hashfn

import (
	"crypto/sha3"
	"encoding/binary"

	"nocap/internal/field"
)

// Size is the digest size in bytes (256 bits).
const Size = 32

// Digest is a 256-bit SHA3 output.
type Digest [Size]byte

// Sum hashes an arbitrary byte string.
func Sum(data []byte) Digest {
	return Digest(sha3.Sum256(data))
}

// Hash2 is the hash FU's 2-to-1 compression: SHA3-256 of the
// concatenation of two 256-bit inputs.
func Hash2(a, b Digest) Digest {
	var buf [2 * Size]byte
	copy(buf[:Size], a[:])
	copy(buf[Size:], b[:])
	return Sum(buf[:])
}

// hashElemsStack is the largest element count HashElems packs into a
// stack buffer (2 KiB of packed bytes). It covers every Merkle leaf the
// PCS produces — columns are Rows(+masks) elements, 128+12 at paper
// scale — so the leaf hot path performs zero allocations.
const hashElemsStack = 256

// HashElems packs field elements into 64-bit little-endian words (four
// elements per 256-bit hash input block, matching the FU's
// reinterpretation of "each group of four consecutive 64-bit elements as
// a 256-bit input") and hashes them. Vectors of up to hashElemsStack
// elements are packed into a stack buffer; only oversized vectors
// allocate scratch.
func HashElems(elems []field.Element) Digest {
	var buf [8 * hashElemsStack]byte
	return Sum(AppendElems(buf[:0], elems))
}

// AppendElems appends the packed little-endian representation of elems to
// dst and returns the extended slice. Callers that hash many vectors
// reuse one byte buffer (dst[:0]) instead of allocating per vector.
func AppendElems(dst []byte, elems []field.Element) []byte {
	for _, e := range elems {
		dst = binary.LittleEndian.AppendUint64(dst, e.Uint64())
	}
	return dst
}

// ElemBytes returns the packed little-endian byte representation of a
// field-element vector, as streamed into the hash FU.
func ElemBytes(elems []field.Element) []byte {
	return AppendElems(make([]byte, 0, 8*len(elems)), elems)
}
