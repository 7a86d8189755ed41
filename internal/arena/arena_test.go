package arena

import (
	"context"
	"testing"

	"nocap/internal/field"
	"nocap/internal/par"
)

func TestGetReturnsZeroedBuffer(t *testing.T) {
	a := New()
	// Dirty a buffer, return it, and check the next zeroed checkout of
	// the same class really is zeroed.
	s := a.GetUninitCtx(context.Background(), 10)
	for i := range s {
		s[i] = field.New(uint64(i + 1))
	}
	a.Put(s)
	s = a.Get(10)
	for i, v := range s {
		if !v.IsZero() {
			t.Fatalf("Get(10)[%d] = %v, want zero", i, v)
		}
	}
	a.Put(s)
}

// TestSizeClassReuse pins the contract the prover relies on for any
// two checkouts of one size class: the capacity is the class, the
// counters balance (hits + misses = gets, puts = gets, nothing
// outstanding), and a zeroed checkout is zeroed whether or not the pool
// handed back the dirty buffer. Whether it does is sync.Pool's choice —
// under -race it drops Puts on purpose — so buffer identity is pinned
// only in the !race build (reuse_norace_test.go).
func TestSizeClassReuse(t *testing.T) {
	a := New()
	s := a.GetUninitCtx(context.Background(), 100) // class 7, cap 128
	if cap(s) != 128 {
		t.Fatalf("cap = %d, want 128", cap(s))
	}
	for i := range s[:cap(s)] {
		s[:cap(s)][i] = field.New(uint64(i + 1))
	}
	a.Put(s)
	// Any size in (64, 128] lands in the same class.
	s2 := a.Get(65)
	if len(s2) != 65 || cap(s2) != 128 {
		t.Fatalf("len/cap = %d/%d, want 65/128", len(s2), cap(s2))
	}
	for i, v := range s2 {
		if !v.IsZero() {
			t.Fatalf("same-class Get(65)[%d] = %v, want zero", i, v)
		}
	}
	a.Put(s2)

	st := a.Stats()
	if st.Gets != 2 || st.Puts != 2 || st.Hits+st.Misses != st.Gets || st.Misses < 1 {
		t.Fatalf("stats = %+v, want 2 gets / 2 puts / hits+misses = gets / first checkout a miss", st)
	}
	if st.Outstanding != 0 || st.OutstandingElems != 0 || st.DoubleReturns != 0 {
		t.Fatalf("outstanding = %d (%d elems), %d double returns, want 0", st.Outstanding, st.OutstandingElems, st.DoubleReturns)
	}
}

func TestZeroLengthCheckout(t *testing.T) {
	a := New()
	if s := a.Get(0); s != nil {
		t.Fatal("Get(0) should be nil")
	}
	a.Put(nil) // must be a no-op, not a double return
	if st := a.Stats(); st.Gets != 0 || st.DoubleReturns != 0 {
		t.Fatalf("stats after zero-length ops = %+v", st)
	}
}

func TestDoubleReturnDetected(t *testing.T) {
	a := New()
	s := a.Get(8)
	a.Put(s)
	a.Put(s) // double return: dropped and counted
	st := a.Stats()
	if st.DoubleReturns != 1 {
		t.Fatalf("DoubleReturns = %d, want 1", st.DoubleReturns)
	}
	if st.Puts != 1 {
		t.Fatalf("Puts = %d, want 1 (the double return must not count)", st.Puts)
	}
	// The pool must not now hand the same buffer out twice.
	s1, s2 := a.GetUninitCtx(context.Background(), 8), a.GetUninitCtx(context.Background(), 8)
	if &s1[0] == &s2[0] {
		t.Fatal("double return poisoned the pool: one buffer checked out twice")
	}
	a.Put(s1)
	a.Put(s2)
}

func TestForeignSliceRejected(t *testing.T) {
	a := New()
	foreign := make([]field.Element, 16)
	a.Put(foreign)
	if st := a.Stats(); st.DoubleReturns != 1 || st.Puts != 0 {
		t.Fatalf("stats after foreign Put = %+v", st)
	}
}

func TestPrefixResliceReturn(t *testing.T) {
	// The sumcheck fold halves its DP arrays in place, so Put must accept
	// a prefix reslice of the original checkout.
	a := New()
	s := a.Get(32)
	folded := s[:4]
	a.Put(folded)
	st := a.Stats()
	if st.Puts != 1 || st.DoubleReturns != 0 || st.Outstanding != 0 {
		t.Fatalf("stats after prefix return = %+v", st)
	}
	if st.OutstandingElems != 0 {
		t.Fatalf("OutstandingElems = %d, want 0 (accounting keyed on checkout size)", st.OutstandingElems)
	}
}

func TestConcurrentCheckoutReturn(t *testing.T) {
	// Hammer one arena from the par worker pool (run under -race). Each
	// iteration checks a buffer out, writes a sentinel, verifies it, and
	// returns it — overlap between workers would trip the race detector
	// or the sentinel check.
	a := New()
	const iters = 4096
	err := par.ForErrCtx(context.Background(), iters, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			n := 1 + i%257
			s := a.Get(n)
			tag := field.New(uint64(i + 1))
			for j := range s {
				s[j] = tag
			}
			for j := range s {
				if s[j] != tag {
					t.Errorf("iter %d: buffer shared between workers", i)
				}
			}
			a.Put(s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Gets != iters || st.Puts != iters {
		t.Fatalf("gets/puts = %d/%d, want %d each", st.Gets, st.Puts, iters)
	}
	if st.Outstanding != 0 || st.OutstandingElems != 0 || st.DoubleReturns != 0 {
		t.Fatalf("post-run stats = %+v, want balanced", st)
	}
}

func TestLeakAccounting(t *testing.T) {
	a := New()
	held := a.Get(48)
	st := a.Stats()
	if st.Outstanding != 1 || st.OutstandingElems != 48 {
		t.Fatalf("outstanding = %d (%d elems), want 1 (48)", st.Outstanding, st.OutstandingElems)
	}
	a.Put(held)
	if st := a.Stats(); st.Outstanding != 0 || st.OutstandingElems != 0 {
		t.Fatalf("outstanding after return = %+v", st)
	}
}

func TestStatsSub(t *testing.T) {
	a := New()
	before := a.Stats()
	s := a.Get(8)
	a.Put(s)
	d := a.Stats().Sub(before)
	if d.Gets != 1 || d.Puts != 1 || d.Outstanding != 0 {
		t.Fatalf("delta = %+v, want 1 get / 1 put / 0 outstanding", d)
	}
}
