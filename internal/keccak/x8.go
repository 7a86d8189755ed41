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
	s.squeeze(out)
}

// Sum256X8 computes SHA3-256 of eight equal-length messages in
// interleaved passes, as Sum256X4 does for four. All eight messages must
// have the same length.
func Sum256X8(out *[8][32]byte, msgs *[8][]byte) {
	n := len(msgs[0])
	for k := 1; k < 8; k++ {
		if len(msgs[k]) != n {
			panic("keccak: Sum256X8 messages must have equal length")
		}
	}
	var s StateX8
	off := 0
	for ; n-off >= rate; off += rate {
		for k := range msgs {
			s.absorb(k, msgs[k][off:off+rate])
		}
		s.Permute()
	}
	var block [rate]byte
	for k := range msgs {
		copy(block[:], msgs[k][off:])
		clear(block[n-off:])
		block[n-off] = padByte
		block[rate-1] |= 0x80
		s.absorb(k, block[:])
	}
	s.Permute()
	s.squeeze(out)
}

// absorb XORs one rate-sized block into state k.
func (s *StateX8) absorb(k int, block []byte) {
	for l := 0; l < rate/8; l++ {
		s[l][k] ^= binary.LittleEndian.Uint64(block[8*l:])
	}
}

// squeeze writes each state's 32-byte SHA3-256 digest.
func (s *StateX8) squeeze(out *[8][32]byte) {
	for k := range out {
		for l := 0; l < 4; l++ {
			binary.LittleEndian.PutUint64(out[k][8*l:], s[l][k])
		}
	}
}
