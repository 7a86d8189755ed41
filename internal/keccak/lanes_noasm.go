//go:build !amd64 || purego

package keccak

func permuteX4(s *StateX4) { s.permuteGeneric() }

func permuteX8(s *StateX8) { s.permuteGeneric() }
