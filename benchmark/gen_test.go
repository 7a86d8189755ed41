package main

import (
	"math"
	"slices"
	"testing"
)

func TestEvenPermIsSeededPermutation(t *testing.T) {
	a, b, c := evenPerm(1, 4096, 8192), evenPerm(1, 4096, 8192), evenPerm(2, 4096, 8192)
	if len(a) != 2048 {
		t.Fatalf("evenPerm(4096, 8192] has %d entries, want 2048", len(a))
	}
	if !slices.Equal(a, b) {
		t.Error("same seed gave different permutations")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same permutation")
	}
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	for i, n := range sorted {
		if n != 4098+2*i {
			t.Fatalf("sorted[%d] = %d, want %d: not the even numbers of (4096, 8192]", i, n, 4098+2*i)
		}
	}
}

func TestDrawerHandsEachEntryOutOnce(t *testing.T) {
	d := &drawer{perm: []int{7, 8, 9}}
	for _, want := range []int{7, 8, 9} {
		if n, ok := d.draw(); !ok || n != want {
			t.Fatalf("draw = %d, %v; want %d, true", n, ok, want)
		}
	}
	if _, ok := d.draw(); ok {
		t.Error("an exhausted drawer kept drawing")
	}
	w := &drawer{perm: []int{7, 8}, wrap: true}
	var got []int
	for range 5 {
		n, ok := w.draw()
		if !ok {
			t.Fatal("a wrapping drawer ran out")
		}
		got = append(got, n)
	}
	if !slices.Equal(got, []int{7, 8, 7, 8, 7}) {
		t.Errorf("wrapping draws = %v", got)
	}
}

func zipfDraws(seed int64, n int) []int {
	z := newZipf(seed, 6, 1.1)
	out := make([]int, n)
	for i := range out {
		out[i] = z.draw()
	}
	return out
}

func TestZipfIsSeededAndHasTheStatedShares(t *testing.T) {
	if !slices.Equal(zipfDraws(clientSeed(1, 0), 500), zipfDraws(clientSeed(1, 0), 500)) {
		t.Error("same seed gave different request sequences")
	}
	if slices.Equal(zipfDraws(clientSeed(1, 0), 500), zipfDraws(clientSeed(2, 0), 500)) {
		t.Error("different seeds gave the same request sequence")
	}
	if slices.Equal(zipfDraws(clientSeed(1, 0), 500), zipfDraws(clientSeed(1, 1), 500)) {
		t.Error("two clients of one seed gave the same request sequence")
	}
	// The cumulative shares README.md states: p50 falls mid-band of
	// rank 2 and p90 mid-band of rank 5.
	want := []float64{0.44, 0.64, 0.77, 0.86, 0.94, 1}
	z := newZipf(1, 6, 1.1)
	for i, c := range z.cum {
		if math.Abs(c-want[i]) > 0.006 {
			t.Errorf("cumulative share of rank %d = %.3f, want about %.2f", i+1, c, want[i])
		}
	}
	counts := make([]int, 6)
	for _, r := range zipfDraws(3, 20000) {
		counts[r]++
	}
	if share := float64(counts[0]) / 20000; math.Abs(share-0.436) > 0.02 {
		t.Errorf("rank 1 drew a share of %.3f, want about 0.436", share)
	}
}
