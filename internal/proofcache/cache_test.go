package proofcache

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nocap/internal/faultinject"
	"nocap/internal/zkerr"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	return k
}

// charged is what an entry holding an n-byte proof charges to the
// budget: the bytes and their base64 text.
func charged(n int) int64 { return int64(n + base64.StdEncoding.EncodedLen(n)) }

// okVerify accepts everything — tests that are not about the verify
// rule use it.
func okVerify(context.Context, []byte) error { return nil }

func TestAcquireMissCommitHit(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(1)
	acq := c.Acquire(k)
	if acq.Hit || !acq.Leader || acq.Flight == nil {
		t.Fatalf("first Acquire: %+v, want leader miss", acq)
	}
	proof := []byte("proof-bytes")
	got, err := c.Commit(context.Background(), k, proof, okVerify)
	if err != nil || !bytes.Equal(got.Data, proof) {
		t.Fatalf("Commit: %q, %v", got.Data, err)
	}
	hit := c.Acquire(k)
	if !hit.Hit || !bytes.Equal(hit.Proof.Data, proof) {
		t.Fatalf("second Acquire: %+v, want byte-identical hit", hit)
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Inserts != 1 || m.Entries != 1 ||
		m.Bytes != charged(len(proof)) {
		t.Fatalf("metrics %+v", m)
	}
}

func TestSingleflightCoalesce(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(2)
	leader := c.Acquire(k)
	if !leader.Leader {
		t.Fatal("first caller not leader")
	}
	const followers = 4
	var wg sync.WaitGroup
	results := make([][]byte, followers)
	for i := 0; i < followers; i++ {
		f := c.Acquire(k)
		if f.Hit || f.Leader || f.Flight == nil {
			t.Fatalf("follower %d: %+v", i, f)
		}
		wg.Add(1)
		go func(i int, fl *Flight) {
			defer wg.Done()
			data, err := fl.Wait(context.Background())
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			results[i] = data.Data
		}(i, f.Flight)
	}
	proof := []byte("shared-proof")
	if _, err := c.Commit(context.Background(), k, proof, okVerify); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, r := range results {
		if !bytes.Equal(r, proof) {
			t.Fatalf("follower %d got %q", i, r)
		}
	}
	m := c.Metrics()
	if m.Coalesced != followers || m.Misses != 1 {
		t.Fatalf("metrics %+v, want %d coalesced on 1 miss", m, followers)
	}
}

func TestAbortPropagatesToFollowers(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(3)
	c.Acquire(k) // leader
	f := c.Acquire(k)
	boom := errors.New("prove exploded")
	c.Abort(k, boom)
	if _, err := f.Flight.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("follower err %v, want the leader's", err)
	}
	// The key is fully released: the next Acquire is a fresh miss with a
	// new leader, not a stale flight.
	next := c.Acquire(k)
	if next.Hit || !next.Leader {
		t.Fatalf("Acquire after abort: %+v, want fresh leader", next)
	}
	c.Abort(k, boom)
	if m := c.Metrics(); m.Entries != 0 || m.Inserts != 0 {
		t.Fatalf("aborted prove left state: %+v", m)
	}
}

func TestFlightWaitHonorsContext(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(4)
	c.Acquire(k) // leader never resolves
	f := c.Acquire(k)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := f.Flight.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait err %v, want deadline", err)
	}
	c.Abort(k, errors.New("cleanup"))
}

// TestVerifyOnInsertRejects pins the soundness rule: a proof the
// verifier rejects is counted, never stored, and never served — not to
// the leader, not to followers, not to later lookups.
func TestVerifyOnInsertRejects(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	k := key(5)
	c.Acquire(k)
	follower := c.Acquire(k)
	badVerify := func(_ context.Context, data []byte) error {
		return fmt.Errorf("bogus proof")
	}
	got, err := c.Commit(context.Background(), k, []byte("forged"), badVerify)
	if err == nil || got.Data != nil || got.B64 != nil {
		t.Fatalf("Commit of rejected proof returned %q, %v", got.Data, err)
	}
	if zkerr.Code(err) != "internal" {
		t.Fatalf("verify-reject code %q, want internal", zkerr.Code(err))
	}
	if p, ferr := follower.Flight.Wait(context.Background()); ferr == nil || p.Data != nil || p.B64 != nil {
		t.Fatalf("follower received rejected bytes: %q, %v", p.Data, ferr)
	}
	if next := c.Acquire(k); next.Hit {
		t.Fatal("rejected proof was stored")
	}
	c.Abort(k, errors.New("cleanup"))
	m := c.Metrics()
	if m.VerifyRejects != 1 || m.Inserts != 0 || m.Entries != 0 {
		t.Fatalf("metrics %+v, want 1 verify-reject and nothing stored", m)
	}
}

// TestInsertCorruptionFault drives the same rule through the
// registered chaos point: one bit flipped between prove and insert must
// be caught by verify-on-insert even when the caller's verifier is the
// real one (here: equality with the original bytes).
func TestInsertCorruptionFault(t *testing.T) {
	if err := faultinject.Arm(faultinject.Plan{Point: "proofcache.insert.corrupt", Kind: faultinject.Error}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()

	c := New(Config{MaxBytes: 1 << 20})
	k := key(6)
	c.Acquire(k)
	proof := []byte("authentic-proof-bytes")
	verify := func(_ context.Context, data []byte) error {
		if !bytes.Equal(data, proof) {
			return errors.New("proof does not verify")
		}
		return nil
	}
	if got, err := c.Commit(context.Background(), k, proof, verify); err == nil {
		t.Fatalf("corrupted insert served %q", got.Data)
	}
	if !faultinject.Fired() {
		t.Fatal("corruption fault never fired")
	}
	if m := c.Metrics(); m.VerifyRejects != 1 || m.Entries != 0 {
		t.Fatalf("metrics %+v", m)
	}
	// Original slice was copied before the flip — the caller's proof is
	// untouched.
	if !bytes.Equal(proof, []byte("authentic-proof-bytes")) {
		t.Fatal("Commit mutated the caller's proof bytes")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxBytes: 3 * charged(10)})
	put := func(b byte, size int) {
		k := key(b)
		if acq := c.Acquire(k); !acq.Leader {
			t.Fatalf("key %d: not leader", b)
		}
		if _, err := c.Commit(context.Background(), k, bytes.Repeat([]byte{b}, size), okVerify); err != nil {
			t.Fatal(err)
		}
	}
	put(1, 10)
	put(2, 10)
	put(3, 10) // budget exactly full
	// Touch 1 so 2 is the LRU victim.
	if !c.Acquire(key(1)).Hit {
		t.Fatal("key 1 missing")
	}
	put(4, 10)
	if c.Acquire(key(2)).Hit {
		t.Fatal("LRU victim 2 still cached")
	}
	c.Abort(key(2), errors.New("cleanup"))
	for _, b := range []byte{1, 3, 4} {
		if !c.Acquire(key(b)).Hit {
			t.Fatalf("key %d evicted, want only 2", b)
		}
	}
	m := c.Metrics()
	if m.Evictions != 1 || m.Entries != 3 || m.Bytes != 3*charged(10) {
		t.Fatalf("metrics %+v", m)
	}

	// A proof bigger than the whole budget is served but not stored.
	k := key(9)
	c.Acquire(k)
	if _, err := c.Commit(context.Background(), k, make([]byte, 64), okVerify); err != nil {
		t.Fatal(err)
	}
	if c.Acquire(k).Hit {
		t.Fatal("oversize proof was stored")
	}
	c.Abort(k, errors.New("cleanup"))
	if m := c.Metrics(); m.OversizeSkips != 1 {
		t.Fatalf("metrics %+v, want 1 oversize skip", m)
	}
}

// TestEntryChargesBothForms: an entry stores its proof's base64 text
// beside the bytes, every hand-out carries both, and the budget charges
// both — in Metrics.Bytes and in the oversize skip.
func TestEntryChargesBothForms(t *testing.T) {
	proof := bytes.Repeat([]byte("proof-bytes-"), 7)
	wantB64 := []byte(base64.StdEncoding.EncodeToString(proof))
	c := New(Config{MaxBytes: charged(len(proof))})
	k := key(1)
	c.Acquire(k, alias(1))
	follower := c.Acquire(k)
	got, err := c.Commit(context.Background(), k, proof, okVerify)
	if err != nil || !bytes.Equal(got.Data, proof) || !bytes.Equal(got.B64, wantB64) {
		t.Fatalf("Commit = %q / %q, %v; want the bytes and their base64 text", got.Data, got.B64, err)
	}
	followed, err := follower.Flight.Wait(context.Background())
	if err != nil || !bytes.Equal(followed.B64, wantB64) {
		t.Fatalf("follower got %q, %v", followed.B64, err)
	}
	hit := c.Acquire(k)
	looked, ok := c.Lookup(alias(1))
	if !hit.Hit || !ok || !bytes.Equal(hit.Proof.B64, wantB64) || !bytes.Equal(looked.B64, wantB64) {
		t.Fatalf("hits: Acquire %+v, Lookup %v", hit.Hit, ok)
	}
	if m := c.Metrics(); m.Entries != 1 || m.Bytes != charged(len(proof)) {
		t.Fatalf("metrics %+v, want one entry charged %d", m, charged(len(proof)))
	}

	// A proof whose bytes fit the budget but whose two forms do not is
	// an oversize skip — still served to its leader in both forms.
	small := New(Config{MaxBytes: charged(len(proof)) - 1})
	small.Acquire(k)
	got, err = small.Commit(context.Background(), k, proof, okVerify)
	if err != nil || !bytes.Equal(got.B64, wantB64) {
		t.Fatalf("oversize Commit = %q, %v", got.B64, err)
	}
	if m := small.Metrics(); m.OversizeSkips != 1 || m.Entries != 0 || m.Bytes != 0 {
		t.Fatalf("metrics %+v, want an oversize skip and nothing stored", m)
	}
}

// TestBudgetFitsOneEntry: a budget that holds one entry's two forms but
// not two entries evicts the first on the second insert, and the first
// entry's aliases go with it.
func TestBudgetFitsOneEntry(t *testing.T) {
	c := New(Config{MaxBytes: 2*charged(10) - 1})
	for b := byte(1); b <= 2; b++ {
		if err := commit(t, c, key(b), bytes.Repeat([]byte{b}, 10), okVerify, alias(b)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Lookup(alias(1)); ok {
		t.Fatal("the first entry's alias outlived its eviction")
	}
	if p, ok := c.Lookup(alias(2)); !ok || !bytes.Equal(p.Data, bytes.Repeat([]byte{2}, 10)) {
		t.Fatalf("second entry: Lookup = %q, %v", p.Data, ok)
	}
	if m := c.Metrics(); m.Evictions != 1 || m.Entries != 1 || m.Bytes != charged(10) {
		t.Fatalf("metrics %+v, want one eviction and one entry", m)
	}
	checkIndex(t, c)
}
