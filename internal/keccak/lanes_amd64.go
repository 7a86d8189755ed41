//go:build amd64 && !purego

package keccak

import "nocap/internal/cpu"

// permute4xAVX2 is the assembly datapath in keccak_amd64.s: one ymm
// register per quad, so each vector instruction advances the same lane
// of four independent states. b is caller scratch for the ρ/π plane
// (passing it in keeps the asm NOSPLIT with a zero frame).
//
//go:noescape
func permute4xAVX2(a, b *StateX4)

// permute8xAVX512 is the generated datapath in keccak_x8_amd64.s: all 25
// lanes of eight states live in Z0–Z24 for the whole call.
//
//go:noescape
func permute8xAVX512(s *StateX8)

func permuteX4(s *StateX4) {
	if cpu.Has(cpu.AVX2) {
		var b StateX4
		permute4xAVX2(s, &b)
		return
	}
	s.permuteGeneric()
}

func permuteX8(s *StateX8) {
	if cpu.Has(cpu.AVX512) {
		permute8xAVX512(s)
		return
	}
	s.permuteGeneric()
}
