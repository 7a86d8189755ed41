package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGeneratedFileUpToDate pins the committed assembly to the
// generator: edit main.go, then `go generate ./internal/keccak`.
func TestGeneratedFileUpToDate(t *testing.T) {
	committed, err := os.ReadFile("../keccak_x8_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, generate()) {
		t.Fatal("keccak_x8_amd64.s differs from x8gen's output; run go generate ./internal/keccak")
	}
}

// TestDerivedTables checks the spec-derived constants against the first
// and last published values.
func TestDerivedTables(t *testing.T) {
	rc := roundConstants()
	if rc[0] != 0x1 || rc[1] != 0x8082 || rc[23] != 0x8000000080008008 {
		t.Fatalf("round constants: %#x %#x … %#x", rc[0], rc[1], rc[23])
	}
	rot := rotations()
	if rot[0] != 0 || rot[1] != 1 || rot[2] != 62 || rot[24] != 14 {
		t.Fatalf("rotations: %v", rot)
	}
}
