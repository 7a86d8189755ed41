package ntt

import (
	"runtime"
	"sync"
	"testing"

	"nocap/internal/field"
)

// TestTwiddleConcurrentFirstUse hammers the concurrent-first-use path of
// the twiddle cache: many goroutines request a freshly cleared stage
// level at once. Under -race this is the regression test for the old
// unsynchronized cache (which required Prepare before sharing a size
// across goroutines); it also asserts first-CAS-wins semantics — every
// racer must end up with the same backing array — and that the published
// table is correct.
func TestTwiddleConcurrentFirstUse(t *testing.T) {
	const level = 12 // the radix-2 pass of a 2^13-point transform
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}

	// Serial reference, computed before any concurrent access: the runs
	// w^j, w^2j, w^3j of the 2^(level+2)-th root.
	w := field.RootOfUnity(level + 2)
	const l = 1 << level
	want := make([]field.Element, 3*l)
	for j := 0; j < l; j++ {
		wj := field.Exp(w, uint64(j))
		want[j], want[l+j], want[2*l+j] = wj, field.Square(wj), field.Mul(wj, field.Square(wj))
	}

	for round := 0; round < 25; round++ {
		stageCache[level].Store(nil)

		start := make(chan struct{})
		got := make([][]field.Element, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i] = stageTable(level)
			}(i)
		}
		close(start)
		wg.Wait()

		for i := 1; i < workers; i++ {
			if &got[i][0] != &got[0][0] {
				t.Fatalf("round %d: goroutine %d got a different table than goroutine 0 (first-CAS-wins violated)", round, i)
			}
		}
		for i, e := range got[0] {
			if e != want[i] {
				t.Fatalf("round %d: twiddle[%d] = %v, want %v", round, i, e, want[i])
			}
		}
	}
}

// TestTwiddleConcurrentTransforms runs full transforms of a freshly
// cleared size from many goroutines at once; each result must match the
// serial transform, proving racers that lose the publication CAS still
// compute correctly.
func TestTwiddleConcurrentTransforms(t *testing.T) {
	const logN = 13
	n := 1 << logN

	in := randVec(n, 777)
	want := append([]field.Element(nil), in...)
	Forward(want)

	resetStagesForTest(logN)
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	var wg sync.WaitGroup
	errs := make([]int, workers) // first mismatching index+1, 0 = ok
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := append([]field.Element(nil), in...)
			<-start
			Forward(v)
			for i := range v {
				if v[i] != want[i] {
					errs[g] = i + 1
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g, e := range errs {
		if e != 0 {
			t.Fatalf("goroutine %d: transform mismatch at index %d", g, e-1)
		}
	}
}
