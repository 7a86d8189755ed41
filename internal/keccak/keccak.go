// Package keccak implements the Keccak-f[1600] permutation and the
// SHA3-256 sponge from first principles — the datapath inside NoCap's
// hash functional unit (paper §IV-B: a SHA3 unit hashing 1 KB/cycle;
// the 24-round permutation is the FU's pipeline). The implementation is
// the hardware-shaped one: explicit θ, ρ, π, χ, ι steps over the 5×5
// lane state, which is what an RTL implementation unrolls.
//
// Tests cross-check digests bit-for-bit against the standard library,
// so the rest of the repository can keep using crypto/sha3 while this
// package documents exactly what the FU computes.
package keccak

import "math/bits"

// Rounds is the Keccak-f[1600] round count (the hash FU pipeline depth).
const Rounds = 24

// roundConstants are the ι-step constants.
var roundConstants = [Rounds]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
	0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// rotations are the ρ-step offsets, indexed [x][y].
var rotations = [5][5]int{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

// State is the 5×5 lane state, indexed state[x][y].
type State [5][5]uint64

// Permute applies the full 24-round Keccak-f[1600] permutation.
func (s *State) Permute() {
	for r := 0; r < Rounds; r++ {
		s.round(roundConstants[r])
	}
}

// round is one θ→ρ→π→χ→ι round (one stage of the FU pipeline).
func (s *State) round(rc uint64) {
	// θ: column parities.
	var c, d [5]uint64
	for x := 0; x < 5; x++ {
		c[x] = s[x][0] ^ s[x][1] ^ s[x][2] ^ s[x][3] ^ s[x][4]
	}
	for x := 0; x < 5; x++ {
		d[x] = c[(x+4)%5] ^ bits.RotateLeft64(c[(x+1)%5], 1)
		for y := 0; y < 5; y++ {
			s[x][y] ^= d[x]
		}
	}
	// ρ and π: rotate lanes and permute positions.
	var b State
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			b[y][(2*x+3*y)%5] = bits.RotateLeft64(s[x][y], rotations[x][y])
		}
	}
	// χ: non-linear row mix.
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			s[x][y] = b[x][y] ^ (^b[(x+1)%5][y] & b[(x+2)%5][y])
		}
	}
	// ι: round constant.
	s[0][0] ^= rc
}

// rate is the SHA3-256 sponge rate in bytes (1088 bits).
const rate = 136

// rateWords is the rate in 64-bit words: the words one block absorbs.
const rateWords = rate / 8

// Sum256 computes SHA3-256 of data via the sponge construction over
// Keccak-f[1600] (absorb at rate 136 B with domain padding 0x06, then
// squeeze 32 bytes).
func Sum256(data []byte) [32]byte {
	var s State

	absorbBlock := func(block []byte) {
		for i := 0; i < rate/8; i++ {
			lane := uint64(0)
			for j := 7; j >= 0; j-- {
				lane = lane<<8 | uint64(block[i*8+j])
			}
			x, y := i%5, i/5
			s[x][y] ^= lane
		}
		s.Permute()
	}

	for len(data) >= rate {
		absorbBlock(data[:rate])
		data = data[rate:]
	}
	// Pad: 0x06 … 0x80 (SHA-3 domain separation + pad10*1).
	block := make([]byte, rate)
	copy(block, data)
	block[len(data)] = 0x06
	block[rate-1] |= 0x80
	absorbBlock(block)

	var out [32]byte
	for i := 0; i < 4; i++ {
		x, y := i%5, i/5
		lane := s[x][y]
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(lane >> (8 * uint(j)))
		}
	}
	return out
}
