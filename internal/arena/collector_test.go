package arena

import (
	"context"
	"sync"
	"testing"

	"nocap/internal/field"
)

// TestPutEmptyPrefixReleasesCheckout covers the fold-to-empty path: a
// sumcheck-style loop that halves its scratch in place can reach length
// zero, and returning that zero-length prefix must still release the
// checkout (the old len==0 early-return stranded it in `live` forever).
func TestPutEmptyPrefixReleasesCheckout(t *testing.T) {
	a := New()
	s := a.Get(8)
	for len(s) > 0 {
		s = s[:len(s)/2] // fold to empty, as kernel.Fold reslicing does
	}
	a.Put(s)
	st := a.Stats()
	if st.Outstanding != 0 || st.OutstandingElems != 0 {
		t.Fatalf("fold-to-empty Put leaked the checkout: %d outstanding (%d elems)",
			st.Outstanding, st.OutstandingElems)
	}
	if st.DoubleReturns != 0 {
		t.Fatalf("fold-to-empty Put was rejected as a double return")
	}
	// The checkout was released, not stranded: the next same-class
	// checkout is a fresh, balanced one (whether the pool hands the same
	// buffer back is pinned in reuse_norace_test.go).
	s = a.Get(8)
	st = a.Stats()
	if st.Gets != 2 || st.Hits+st.Misses != st.Gets || st.Outstanding != 1 || st.OutstandingElems != 8 {
		t.Fatalf("stats after re-checkout = %+v, want 2 gets, hits+misses = gets, 1 outstanding of 8", st)
	}
	a.Put(s)
}

// TestPutNilAndForeignEmpty pins the edge cases around the empty-Put
// fix: nil and zero-capacity slices stay silent no-ops, while a foreign
// empty-but-backed slice is a rejected return like any other foreign
// slice.
func TestPutNilAndForeignEmpty(t *testing.T) {
	a := New()
	a.Put(nil)
	a.Put([]field.Element{})
	if st := a.Stats(); st.DoubleReturns != 0 || st.Puts != 0 {
		t.Fatalf("nil/zero-cap Put changed counters: %+v", st)
	}
	foreign := make([]field.Element, 4)
	a.Put(foreign[:0])
	if st := a.Stats(); st.DoubleReturns != 1 {
		t.Fatalf("foreign backed empty Put: DoubleReturns = %d, want 1", st.DoubleReturns)
	}
}

// TestCollectorAttribution checks that checkouts made under a
// context-attached collector credit that collector — including returns
// performed later, without the context — while the arena's aggregate
// sees everything.
func TestCollectorAttribution(t *testing.T) {
	a := New()
	var col Collector
	ctx := WithCollector(context.Background(), &col)

	attributed := a.GetUninitCtx(ctx, 16)
	plain := a.GetUninitCtx(context.Background(), 16)

	cs := col.Snapshot()
	if cs.Gets != 1 || cs.OutstandingElems != 16 {
		t.Fatalf("collector after ctx checkout: %+v", cs)
	}
	// Return without any context: the checkout record routes the credit.
	a.Put(attributed)
	a.Put(plain)

	cs = col.Snapshot()
	if cs.Puts != 1 || cs.Outstanding != 0 || cs.OutstandingElems != 0 {
		t.Fatalf("collector after returns: %+v", cs)
	}
	as := a.Stats()
	if as.Gets != 2 || as.Puts != 2 || as.Outstanding != 0 {
		t.Fatalf("aggregate after returns: %+v", as)
	}
}

// TestCollectorsPartitionAggregate races two collectors' checkout loops
// and asserts the aggregate delta equals the sum of the two per-run
// snapshots: no work lost, none double-counted, none cross-attributed.
func TestCollectorsPartitionAggregate(t *testing.T) {
	a := New()
	before := a.Stats()
	var c1, c2 Collector
	var wg sync.WaitGroup
	run := func(c *Collector, n int) {
		defer wg.Done()
		ctx := WithCollector(context.Background(), c)
		for i := 0; i < n; i++ {
			s := a.GetCtx(ctx, 8+i%5)
			a.Put(s)
		}
	}
	wg.Add(2)
	go run(&c1, 500)
	go run(&c2, 300)
	wg.Wait()

	delta := a.Stats().Sub(before)
	sum := c1.Snapshot().Add(c2.Snapshot())
	if sum != delta {
		t.Fatalf("collector sum %+v != aggregate delta %+v", sum, delta)
	}
	if s1 := c1.Snapshot(); s1.Gets != 500 || s1.Puts != 500 {
		t.Fatalf("collector 1 cross-attributed: %+v", s1)
	}
	if s2 := c2.Snapshot(); s2.Gets != 300 || s2.Puts != 300 {
		t.Fatalf("collector 2 cross-attributed: %+v", s2)
	}
}
