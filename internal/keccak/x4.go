// Multi-buffer Keccak-f[1600]: four independent sponge states permuted
// in one interleaved pass. This is the software analogue of the paper's
// 128-lane hash FU (§IV-B), which keeps many independent SHA3 states in
// flight so the datapath is bound by permutation throughput, not by the
// serial dependency chain of a single state. On a CPU the same idea
// shows up as instruction-level parallelism: every θ/ρ/π/χ step below
// operates on a [4]uint64 quad — four lanes from four unrelated states —
// so the out-of-order core always has four independent dependency chains
// to overlap, where a single Keccak state exposes only one.
//
// The interleaved ("structure of arrays") layout StateX4[lane][buffer]
// is exactly the lane grouping an SIMD or RTL implementation uses; the
// quad helpers compile to straight-line four-wide scalar code.
package keccak

import (
	"encoding/binary"

	"nocap/internal/cpu"
)

// quad holds one 64-bit lane from each of the four interleaved states.
// It is a four-field struct rather than a [4]uint64 so the compiler's
// SSA pass decomposes it into registers (arrays are never SSA-ed, and
// keeping every quad in memory costs ~4× in the permutation loop).
type quad struct{ v0, v1, v2, v3 uint64 }

// lane returns lane k (absorb/extract boundary only — the permutation
// itself never indexes dynamically).
func (q *quad) lane(k int) uint64 {
	switch k {
	case 0:
		return q.v0
	case 1:
		return q.v1
	case 2:
		return q.v2
	}
	return q.v3
}

// setLane stores lane k.
func (q *quad) setLane(k int, v uint64) {
	switch k {
	case 0:
		q.v0 = v
	case 1:
		q.v1 = v
	case 2:
		q.v2 = v
	default:
		q.v3 = v
	}
}

// xorLane mixes v into lane k.
func (q *quad) xorLane(k int, v uint64) { q.setLane(k, q.lane(k)^v) }

func xor4(x, y quad) quad {
	return quad{x.v0 ^ y.v0, x.v1 ^ y.v1, x.v2 ^ y.v2, x.v3 ^ y.v3}
}

func rot4(x quad, n int) quad {
	return quad{
		x.v0<<n | x.v0>>(64-n),
		x.v1<<n | x.v1>>(64-n),
		x.v2<<n | x.v2>>(64-n),
		x.v3<<n | x.v3>>(64-n),
	}
}

// chi4 is the χ row mix b0 ^ (¬b1 & b2), four lanes at once.
func chi4(b0, b1, b2 quad) quad {
	return quad{
		b0.v0 ^ (^b1.v0 & b2.v0),
		b0.v1 ^ (^b1.v1 & b2.v1),
		b0.v2 ^ (^b1.v2 & b2.v2),
		b0.v3 ^ (^b1.v3 & b2.v3),
	}
}

// Lanes reports how many independent sponges the widest vectorized
// permutation on this machine advances per pass: 8 with AVX-512F
// (StateX8), 4 with AVX2 (StateX4), otherwise 1. Callers with a choice
// (hashfn's batch entry points) use a multi-buffer sponge only at or
// below this width: the portable multi-state permutations are slower
// than one crypto/sha3 call per message.
func Lanes() int {
	switch {
	case cpu.Has(cpu.AVX512):
		return 8
	case cpu.Has(cpu.AVX2):
		return 4
	}
	return 1
}

// StateX4 is four independent 5×5 Keccak states in lane-interleaved
// layout: StateX4[x+5y][k] is lane (x,y) of state k. The zero value is
// four all-zero sponge states.
type StateX4 [25]quad

// Permute applies the full 24-round Keccak-f[1600] permutation to all
// four states in one interleaved pass. On amd64 with AVX2 it dispatches
// to the vector datapath in keccak_amd64.s (one ymm register per quad);
// elsewhere it runs the portable four-wide scalar code below.
func (s *StateX4) Permute() { permuteX4(s) }

// permuteGeneric is the portable interleaved permutation, also the
// reference the assembly path is tested against.
func (s *StateX4) permuteGeneric() {
	a := s
	var b [25]quad
	for r := 0; r < Rounds; r++ {
		// θ: column parities and their mix.
		c0 := xor4(xor4(xor4(a[0], a[5]), xor4(a[10], a[15])), a[20])
		c1 := xor4(xor4(xor4(a[1], a[6]), xor4(a[11], a[16])), a[21])
		c2 := xor4(xor4(xor4(a[2], a[7]), xor4(a[12], a[17])), a[22])
		c3 := xor4(xor4(xor4(a[3], a[8]), xor4(a[13], a[18])), a[23])
		c4 := xor4(xor4(xor4(a[4], a[9]), xor4(a[14], a[19])), a[24])
		d0 := xor4(c4, rot4(c1, 1))
		d1 := xor4(c0, rot4(c2, 1))
		d2 := xor4(c1, rot4(c3, 1))
		d3 := xor4(c2, rot4(c4, 1))
		d4 := xor4(c3, rot4(c0, 1))
		a[0], a[5], a[10], a[15], a[20] = xor4(a[0], d0), xor4(a[5], d0), xor4(a[10], d0), xor4(a[15], d0), xor4(a[20], d0)
		a[1], a[6], a[11], a[16], a[21] = xor4(a[1], d1), xor4(a[6], d1), xor4(a[11], d1), xor4(a[16], d1), xor4(a[21], d1)
		a[2], a[7], a[12], a[17], a[22] = xor4(a[2], d2), xor4(a[7], d2), xor4(a[12], d2), xor4(a[17], d2), xor4(a[22], d2)
		a[3], a[8], a[13], a[18], a[23] = xor4(a[3], d3), xor4(a[8], d3), xor4(a[13], d3), xor4(a[18], d3), xor4(a[23], d3)
		a[4], a[9], a[14], a[19], a[24] = xor4(a[4], d4), xor4(a[9], d4), xor4(a[14], d4), xor4(a[19], d4), xor4(a[24], d4)
		// ρ+π: rotate and scatter (offsets from the scalar rotation table,
		// flat index x+5y; b[y+5·((2x+3y) mod 5)] = rot(a[x+5y])).
		b[0] = a[0]
		b[10] = rot4(a[1], 1)
		b[20] = rot4(a[2], 62)
		b[5] = rot4(a[3], 28)
		b[15] = rot4(a[4], 27)
		b[16] = rot4(a[5], 36)
		b[1] = rot4(a[6], 44)
		b[11] = rot4(a[7], 6)
		b[21] = rot4(a[8], 55)
		b[6] = rot4(a[9], 20)
		b[7] = rot4(a[10], 3)
		b[17] = rot4(a[11], 10)
		b[2] = rot4(a[12], 43)
		b[12] = rot4(a[13], 25)
		b[22] = rot4(a[14], 39)
		b[23] = rot4(a[15], 41)
		b[8] = rot4(a[16], 45)
		b[18] = rot4(a[17], 15)
		b[3] = rot4(a[18], 21)
		b[13] = rot4(a[19], 8)
		b[14] = rot4(a[20], 18)
		b[24] = rot4(a[21], 2)
		b[9] = rot4(a[22], 61)
		b[19] = rot4(a[23], 56)
		b[4] = rot4(a[24], 14)
		// χ: non-linear row mix.
		a[0] = chi4(b[0], b[1], b[2])
		a[1] = chi4(b[1], b[2], b[3])
		a[2] = chi4(b[2], b[3], b[4])
		a[3] = chi4(b[3], b[4], b[0])
		a[4] = chi4(b[4], b[0], b[1])
		a[5] = chi4(b[5], b[6], b[7])
		a[6] = chi4(b[6], b[7], b[8])
		a[7] = chi4(b[7], b[8], b[9])
		a[8] = chi4(b[8], b[9], b[5])
		a[9] = chi4(b[9], b[5], b[6])
		a[10] = chi4(b[10], b[11], b[12])
		a[11] = chi4(b[11], b[12], b[13])
		a[12] = chi4(b[12], b[13], b[14])
		a[13] = chi4(b[13], b[14], b[10])
		a[14] = chi4(b[14], b[10], b[11])
		a[15] = chi4(b[15], b[16], b[17])
		a[16] = chi4(b[16], b[17], b[18])
		a[17] = chi4(b[17], b[18], b[19])
		a[18] = chi4(b[18], b[19], b[15])
		a[19] = chi4(b[19], b[15], b[16])
		a[20] = chi4(b[20], b[21], b[22])
		a[21] = chi4(b[21], b[22], b[23])
		a[22] = chi4(b[22], b[23], b[24])
		a[23] = chi4(b[23], b[24], b[20])
		a[24] = chi4(b[24], b[20], b[21])
		// ι: round constant into lane (0,0) of every state.
		rc := roundConstants[r]
		a[0].v0 ^= rc
		a[0].v1 ^= rc
		a[0].v2 ^= rc
		a[0].v3 ^= rc
	}
}

// padByte is the SHA-3 domain-separation byte appended after the message
// (pad10*1 starts with 0x06 for SHA3 variants).
const padByte = 0x06

// Compress64X4 computes SHA3-256 of four independent 64-byte messages —
// four Merkle 2-to-1 compressions (left‖right sibling digests) — in one
// interleaved permutation pass. Digests are bit-for-bit identical to
// sha3.Sum256 of each message.
func Compress64X4(out *[4][32]byte, in *[4][64]byte) {
	var s StateX4
	for k := 0; k < 4; k++ {
		msg := &in[k]
		for l := 0; l < 8; l++ {
			s[l].setLane(k, binary.LittleEndian.Uint64(msg[8*l:]))
		}
		// Padding for a 64-byte message at rate 136: 0x06 at offset 64
		// (lane 8, byte 0) and 0x80 at offset 135 (lane 16, byte 7).
		s[8].setLane(k, padByte)
		s[16].setLane(k, 1<<63)
	}
	s.Permute()
	squeezeX4(&s, out[:])
}

// SumColumnsX4 is SumColumnsX8 for the 4-way datapath: out[k] is the
// SHA3-256 digest of column j+k of rows, for every k < len(out) ≤ 4.
func SumColumnsX4[W ~uint64, D ~[32]byte](out []D, rows [][]W, j int) {
	m := len(out)
	if m > 4 {
		panic("keccak: SumColumnsX4 group wider than four columns")
	}
	var s StateX4
	for r := 0; ; r += rateWords {
		block := rows[r:min(r+rateWords, len(rows))]
		for l, row := range block {
			for k, w := range row[j : j+m] {
				s[l].xorLane(k, uint64(w))
			}
		}
		if len(block) == rateWords {
			s.Permute()
			continue
		}
		for k := range m {
			s[len(block)].xorLane(k, padByte)
			s[rateWords-1].xorLane(k, 1<<63)
		}
		s.Permute()
		break
	}
	squeezeX4(&s, out)
}

// squeezeX4 writes the 32-byte SHA3-256 digest of state k to out[k].
func squeezeX4[D ~[32]byte](s *StateX4, out []D) {
	for k := range out {
		for l := 0; l < 4; l++ {
			binary.LittleEndian.PutUint64(out[k][8*l:], s[l].lane(k))
		}
	}
}
