package keccak

import "encoding/binary"

//go:generate go run ./x8gen -o keccak_x8_amd64.s

// StateX8 is eight independent 5×5 Keccak states in lane-interleaved
// layout: StateX8[x+5y][k] is lane (x,y) of state k, so each row of the
// array is one 512-bit zmm register — the layout of the AVX-512 datapath
// in keccak_x8_amd64.s, which keeps all 25 rows in Z0–Z24 for a whole
// permutation. The zero value is eight all-zero sponge states.
type StateX8 [25][8]uint64

// Permute applies the full 24-round Keccak-f[1600] permutation to all
// eight states. With AVX-512F it runs the generated vector datapath;
// elsewhere it permutes the states one at a time (the reference the
// vector path is tested against — batch callers never take it, see
// Lanes).
func (s *StateX8) Permute() { permuteX8(s) }

func (s *StateX8) permuteGeneric() {
	for k := 0; k < 8; k++ {
		var st State
		for i := range s {
			st[i%5][i/5] = s[i][k]
		}
		st.Permute()
		for i := range s {
			s[i][k] = st[i%5][i/5]
		}
	}
}

// Compress64X8 computes SHA3-256 of eight independent 64-byte messages —
// eight Merkle 2-to-1 compressions — in one permutation pass. Digests are
// bit-for-bit identical to sha3.Sum256 of each message.
func Compress64X8(out *[8][32]byte, in *[8][64]byte) {
	var s StateX8
	for k := range in {
		for l := 0; l < 8; l++ {
			s[l][k] = binary.LittleEndian.Uint64(in[k][8*l:])
		}
		// Padding for a 64-byte message at rate 136, as in Compress64X4.
		s[8][k] = padByte
		s[16][k] = 1 << 63
	}
	s.Permute()
	squeezeX8(&s, out[:])
}

// SumColumnsX8 sets out[k] to the SHA3-256 digest of column j+k of the
// row-major matrix rows — the little-endian words rows[0][j+k],
// rows[1][j+k], … — for every k < len(out) ≤ 8, in one interleaved pass:
// block word l of state k is rows[17b+l][j+k], XORed straight from the
// row into the lane, so no column is ever copied into a byte message.
// Lanes past len(out) run unused.
func SumColumnsX8[W ~uint64, D ~[32]byte](out []D, rows [][]W, j int) {
	m := len(out)
	var s StateX8
	for r := 0; ; r += rateWords {
		block := rows[r:min(r+rateWords, len(rows))]
		for l, row := range block {
			lanes, words := s[l][:m], row[j:j+m]
			for k := range lanes {
				lanes[k] ^= uint64(words[k])
			}
		}
		if len(block) == rateWords {
			s.Permute()
			continue
		}
		// The message ends inside this block on a word boundary, so the
		// pad's 0x06 opens word len(block) and its 0x80 closes word 16.
		for k := range m {
			s[len(block)][k] ^= padByte
			s[rateWords-1][k] ^= 1 << 63
		}
		s.Permute()
		break
	}
	squeezeX8(&s, out)
}

// squeezeX8 writes the 32-byte SHA3-256 digest of state k to out[k].
func squeezeX8[D ~[32]byte](s *StateX8, out []D) {
	for k := range out {
		for l := 0; l < 4; l++ {
			binary.LittleEndian.PutUint64(out[k][8*l:], s[l][k])
		}
	}
}
