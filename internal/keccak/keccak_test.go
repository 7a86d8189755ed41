package keccak

import (
	"bytes"
	"crypto/sha3"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSum256MatchesStdlib(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("abc"),
		[]byte("The quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte{0xAA}, 135), // one byte short of the rate
		bytes.Repeat([]byte{0xBB}, 136), // exactly the rate
		bytes.Repeat([]byte{0xCC}, 137), // one byte over
		bytes.Repeat([]byte("x"), 1000),
	}
	for _, c := range cases {
		got := Sum256(c)
		want := sha3.Sum256(c)
		if got != want {
			t.Fatalf("len %d: %x != %x", len(c), got, want)
		}
	}
}

func TestSum256QuickMatchesStdlib(t *testing.T) {
	f := func(data []byte) bool {
		return Sum256(data) == sha3.Sum256(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteKnownAnswer(t *testing.T) {
	// Keccak-f[1600] applied to the zero state: first lane of the
	// well-known test vector.
	var s State
	s.Permute()
	if s[0][0] != 0xF1258F7940E1DDE7 {
		t.Fatalf("permutation of zero state: lane(0,0) = %#x", s[0][0])
	}
	// Second application continues the vector.
	s.Permute()
	if s[0][0] != 0x2D5C954DF96ECB3C {
		t.Fatalf("second permutation: lane(0,0) = %#x", s[0][0])
	}
}

func TestPermuteBijective(t *testing.T) {
	// Distinct states stay distinct (sanity for the χ nonlinearity).
	rng := rand.New(rand.NewSource(1))
	var a, b State
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			a[x][y] = rng.Uint64()
			b[x][y] = a[x][y]
		}
	}
	b[3][2] ^= 1
	a.Permute()
	b.Permute()
	if a == b {
		t.Fatal("permutation collided")
	}
}

func TestRoundsConstant(t *testing.T) {
	// Keccak-f[1600] has 24 rounds (FIPS 202); the hash FU's pipeline
	// depth is this count.
	if Rounds != 24 {
		t.Fatalf("rounds = %d", Rounds)
	}
}

func BenchmarkPermute(b *testing.B) {
	var s State
	for i := 0; i < b.N; i++ {
		s.Permute()
	}
}

func BenchmarkSum256_1KB(b *testing.B) {
	data := bytes.Repeat([]byte{0x5A}, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
