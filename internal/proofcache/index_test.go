package proofcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// alias builds a front-index key distinct from every key(b) content key.
func alias(b byte) Key {
	var k Key
	k[0], k[1] = b, 0xA1
	return k
}

// commit leads k's flight under the given aliases and commits data.
func commit(t *testing.T, c *Cache, k Key, data []byte, verify func(context.Context, []byte) error, aliases ...Key) error {
	t.Helper()
	if acq := c.Acquire(k, aliases...); !acq.Leader {
		t.Fatalf("key %x: Acquire = %+v, want leader", k[0], acq)
	}
	_, err := c.Commit(context.Background(), k, data, verify)
	return err
}

// checkIndex asserts the front index's ownership invariant: every alias
// names a stored entry that lists it, and every listed alias is indexed.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	owned := 0
	for _, el := range c.byKey {
		for _, a := range el.Value.(*cacheEntry).aliases {
			owned++
			if c.byAlias[a] != el {
				t.Errorf("alias %x listed by entry %x but indexed elsewhere", a[0], el.Value.(*cacheEntry).key[0])
			}
		}
	}
	if owned != len(c.byAlias) {
		t.Errorf("%d aliases owned by entries, %d indexed", owned, len(c.byAlias))
	}
}

// TestAliasFilledByVerifiedCommit: a lookup before the commit misses and
// counts nothing; after a verified Commit the alias serves the stored
// bytes, and that hit moves Hits and nothing else.
func TestAliasFilledByVerifiedCommit(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	if p, ok := c.Lookup(alias(1)); ok || p.Data != nil {
		t.Fatalf("empty cache: Lookup = %q, %v", p.Data, ok)
	}
	if m := c.Metrics(); m != (Metrics{}) {
		t.Fatalf("a lookup miss moved the counters: %+v", m)
	}
	proof := []byte("verified-proof")
	if err := commit(t, c, key(1), proof, okVerify, alias(1)); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics()
	p, ok := c.Lookup(alias(1))
	if !ok || !bytes.Equal(p.Data, proof) {
		t.Fatalf("Lookup after commit = %q, %v", p.Data, ok)
	}
	want := before
	want.Hits++
	if m := c.Metrics(); m != want {
		t.Fatalf("alias hit: metrics %+v, want %+v (Hits+1 only)", m, want)
	}
	checkIndex(t, c)
}

// TestAliasNotFilled: a verify reject, an Abort and an oversize skip
// leave no alias behind.
func TestAliasNotFilled(t *testing.T) {
	for _, tc := range []struct {
		name    string
		resolve func(c *Cache, k Key)
	}{
		{"verify reject", func(c *Cache, k Key) {
			bad := func(context.Context, []byte) error { return errors.New("bogus proof") }
			if _, err := c.Commit(context.Background(), k, []byte("forged"), bad); err == nil {
				t.Error("verify reject: Commit succeeded")
			}
		}},
		{"abort", func(c *Cache, k Key) { c.Abort(k, errors.New("prove failed")) }},
		{"oversize skip", func(c *Cache, k Key) {
			if _, err := c.Commit(context.Background(), k, make([]byte, 64), okVerify); err != nil {
				t.Errorf("oversize: %v", err)
			}
		}},
	} {
		c := New(Config{MaxBytes: 32})
		c.Acquire(key(1), alias(1))
		tc.resolve(c, key(1))
		if _, ok := c.Lookup(alias(1)); ok {
			t.Errorf("%s: alias filled", tc.name)
		}
		if m := c.Metrics(); m.Entries != 0 || m.Hits != 0 || len(c.byAlias) != 0 {
			t.Errorf("%s: metrics %+v, %d aliases", tc.name, m, len(c.byAlias))
		}
	}
}

// TestAliasRidesFlight: a follower's alias rides the leader's flight,
// filed by the leader's verified Commit and not before; an aborted
// flight files nothing. Filing moves no counter.
func TestAliasRidesFlight(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	proof := []byte("verified-proof")
	if acq := c.Acquire(key(1), alias(1)); !acq.Leader {
		t.Fatalf("first Acquire = %+v, want leader", acq)
	}
	if acq := c.Acquire(key(1), alias(2)); acq.Leader || acq.Hit {
		t.Fatalf("second Acquire = %+v, want follower", acq)
	}
	if _, ok := c.Lookup(alias(2)); ok {
		t.Fatal("a follower's alias was filed before the leader committed")
	}
	if _, err := c.Commit(context.Background(), key(1), proof, okVerify); err != nil {
		t.Fatal(err)
	}
	want := Metrics{Hits: 2, Misses: 1, Coalesced: 1, Inserts: 1, Entries: 1, Bytes: charged(len(proof))}
	for _, a := range []byte{1, 2} {
		if p, ok := c.Lookup(alias(a)); !ok || !bytes.Equal(p.Data, proof) {
			t.Fatalf("alias %d: Lookup = %q, %v", a, p.Data, ok)
		}
	}
	if m := c.Metrics(); m != want {
		t.Fatalf("metrics %+v, want %+v", m, want)
	}
	checkIndex(t, c)

	c.Acquire(key(2), alias(4))
	c.Acquire(key(2), alias(5))
	c.Abort(key(2), errors.New("prove failed"))
	for _, a := range []byte{4, 5} {
		if _, ok := c.Lookup(alias(a)); ok {
			t.Errorf("alias %d filed by an aborted flight", a)
		}
	}
	checkIndex(t, c)
}

// TestAliasesShareAndEvictWithEntry: aliases can name one entry — given
// at once, or attached later by an Acquire that hits it — and evicting
// the entry deletes every alias it owns.
func TestAliasesShareAndEvictWithEntry(t *testing.T) {
	c := New(Config{MaxBytes: 2*charged(10) + charged(20) - 1})
	first := bytes.Repeat([]byte{1}, 10)
	if err := commit(t, c, key(1), first, okVerify, alias(1), alias(2)); err != nil {
		t.Fatal(err)
	}
	// A content-key hit files its alias on the entry it hits, and counts
	// only the hit.
	if acq := c.Acquire(key(1), alias(3)); !acq.Hit {
		t.Fatalf("stored key: Acquire = %+v, want hit", acq)
	}
	for _, a := range []byte{1, 2, 3} {
		if p, ok := c.Lookup(alias(a)); !ok || !bytes.Equal(p.Data, first) {
			t.Fatalf("alias %d: Lookup = %q, %v, want the stored bytes", a, p.Data, ok)
		}
	}
	if m := c.Metrics(); m.Entries != 1 || m.Inserts != 1 || m.Hits != 4 || m.Misses != 1 {
		t.Fatalf("metrics %+v, want one entry, one insert, one miss, four hits", m)
	}
	checkIndex(t, c)

	// Key 1 is the LRU victim once 2 and 3 fill the budget past it.
	if err := commit(t, c, key(2), bytes.Repeat([]byte{2}, 10), okVerify, alias(4)); err != nil {
		t.Fatal(err)
	}
	if err := commit(t, c, key(3), bytes.Repeat([]byte{3}, 20), okVerify, alias(5)); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Evictions != 1 || m.Entries != 2 {
		t.Fatalf("metrics %+v, want key 1 evicted", m)
	}
	hits := c.Metrics().Hits
	for _, a := range []byte{1, 2, 3} {
		if _, ok := c.Lookup(alias(a)); ok {
			t.Errorf("alias %d outlived its evicted entry", a)
		}
	}
	if m := c.Metrics(); m.Hits != hits || m.Misses != 3 {
		t.Errorf("lookups of evicted aliases moved the counters: %+v", m)
	}
	// The miss takes the content path: key 1 must be proved again.
	if acq := c.Acquire(key(1)); !acq.Leader {
		t.Fatalf("evicted key: Acquire = %+v, want leader", acq)
	}
	c.Abort(key(1), errors.New("cleanup"))
	checkIndex(t, c)
}

// TestAliasConcurrent runs lookups, commits and evictions from many
// goroutines over a budget that holds three entries; run under -race it
// checks the index's locking, and afterwards the ownership invariant.
func TestAliasConcurrent(t *testing.T) {
	c := New(Config{MaxBytes: 3 * charged(10)})
	const workers, rounds, keys = 8, 400, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := byte((w + i) % keys)
				want := bytes.Repeat([]byte{b}, 10)
				if p, ok := c.Lookup(alias(b)); ok {
					if !bytes.Equal(p.Data, want) {
						panic(fmt.Sprintf("alias %d served %q", b, p.Data))
					}
					continue
				}
				acq := c.Acquire(key(b), alias(b))
				switch {
				case acq.Leader:
					if _, err := c.Commit(context.Background(), key(b), want, okVerify); err != nil {
						panic(err)
					}
				case !acq.Hit:
					if _, err := acq.Flight.Wait(context.Background()); err != nil {
						panic(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	m := c.Metrics()
	if m.Evictions == 0 || m.Entries > 3 {
		t.Fatalf("metrics %+v, want evictions and at most three entries", m)
	}
	checkIndex(t, c)
}
