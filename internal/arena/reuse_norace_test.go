//go:build !race

package arena

import (
	"context"
	"testing"
)

// Buffer reuse itself. sync.Pool drops a share of Puts on purpose under
// the race detector, so these run only without it; everything else the
// prover relies on — balance, size class, zeroing, hits + misses = gets —
// is asserted in every build by the tests they accompany.

// TestSameClassCheckoutReusesBuffer: a returned buffer comes back on the
// next checkout of its size class.
func TestSameClassCheckoutReusesBuffer(t *testing.T) {
	a := New()
	s := a.GetUninitCtx(context.Background(), 100)
	base := &s[:cap(s)][0]
	a.Put(s)
	s2 := a.GetUninitCtx(context.Background(), 65)
	if &s2[:cap(s2)][0] != base {
		t.Fatal("same-class checkout did not reuse the pooled buffer")
	}
	a.Put(s2)
	if st := a.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestEmptyPrefixPutReturnsBufferToPool: a fold-to-empty Put re-pools the
// buffer, so the next same-class checkout is a hit.
func TestEmptyPrefixPutReturnsBufferToPool(t *testing.T) {
	a := New()
	s := a.Get(8)
	a.Put(s[:0])
	a.Put(a.Get(8))
	if got := a.Stats().Hits; got != 1 {
		t.Fatalf("checkout after empty-prefix Put had %d hits, want 1", got)
	}
}
