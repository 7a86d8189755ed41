// Package proofcache is a content-addressed cache of marshalled proofs
// keyed by (circuit-id, params-digest, witness-commitment). Two rules
// make it safe to put in front of a prover (DESIGN.md §12):
//
//   - Verify-on-insert: every proof is re-verified before it becomes
//     servable. A cache entry that fails verification is a soundness
//     incident, not a performance bug — it is counted, never stored,
//     and never served.
//   - Singleflight: N identical in-flight submissions cost one prove.
//     The first requester for a key becomes the leader and proves;
//     the rest wait on the leader's flight and are served the same
//     (verified) bytes.
//
// An entry holds its proof in two forms: the marshalled bytes and their
// standard base64 text, the form a service reply carries. The text is
// made once, when verify-on-insert succeeds, so no hit encodes again;
// the LRU bytes budget charges both forms.
//
// A front index answers a repeat request before the caller has built
// anything: an alias — a digest of the request, which determines the
// statement — points onto a stored entry. It is one map beside the
// content index, not a second cache: an alias is filed only onto a
// stored, verified entry — Acquire takes it, a hit files it at once and
// a miss by the flight's verified Commit — an entry owns its aliases,
// and evicting the entry deletes them.
package proofcache

import (
	"container/list"
	"context"
	"encoding/base64"
	"sync"

	"nocap/internal/faultinject"
	"nocap/internal/zkerr"
)

// fiInsertCorrupt flips one proof byte between prove and verify-on-
// insert, modelling a corrupted store; chaos tests use it to prove the
// verify-reject path never serves the bytes.
var fiInsertCorrupt = faultinject.Register("proofcache.insert.corrupt")

// KeySize is the cache key width (one hash digest).
const KeySize = 32

// Key addresses one proof: a hash over circuit identity, parameter
// digest, and witness commitment. Construction lives with the caller,
// which knows the hash domain.
type Key [KeySize]byte

// Config sizes the cache.
type Config struct {
	// MaxBytes is the LRU budget over everything an entry stores: both
	// forms of its proof. <= 0 disables storage (flights still coalesce
	// identical in-flight proves).
	MaxBytes int64
}

// Proof is a verified proof in both forms the cache hands out: Data, the
// marshalled bytes, and B64, their standard base64 text.
type Proof struct {
	Data []byte
	B64  []byte
}

// size is what an entry holding p charges to the budget.
func (p Proof) size() int64 { return int64(len(p.Data) + len(p.B64)) }

// Metrics is a point-in-time snapshot of the cache counters.
type Metrics struct {
	Hits          int64
	Misses        int64
	Coalesced     int64 // followers that joined an in-flight prove
	Inserts       int64
	VerifyRejects int64 // soundness incidents: proofs refused at insert
	Evictions     int64
	OversizeSkips int64 // proofs whose two forms exceed the whole budget
	Entries       int64
	Bytes         int64 // both forms of every stored proof
}

// Flight is an in-flight prove for one key. Followers Wait on it; the
// leader resolves it through Commit or Abort.
type Flight struct {
	done    chan struct{}
	proof   Proof
	err     error
	aliases []Key // filed by the leader's Commit; guarded by Cache.mu
}

// Wait blocks until the leader resolves the flight or ctx ends. On
// success the returned proof is the leader's verified one.
func (f *Flight) Wait(ctx context.Context) (Proof, error) {
	select {
	case <-f.done:
		return f.proof, f.err
	case <-ctx.Done():
		return Proof{}, ctx.Err()
	}
}

// Acquisition is the outcome of Acquire: exactly one of Hit, Leader, or
// follower (Flight set with Leader=false) holds.
type Acquisition struct {
	// Proof is the cached proof when Hit.
	Proof Proof
	// Hit: the proof was in the cache; Proof is servable as-is.
	Hit bool
	// Leader: the caller owns the prove for this key and must resolve
	// it with Commit (success) or Abort (failure) — leaking a flight
	// strands every follower until their contexts expire.
	Leader bool
	// Flight is set when !Hit: the leader's own flight, or the one a
	// follower should Wait on.
	Flight *Flight
}

type cacheEntry struct {
	key     Key
	proof   Proof
	aliases []Key // front-index keys that resolve to this entry
}

// Cache is the verified LRU + singleflight store. Safe for concurrent
// use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recent
	byKey    map[Key]*list.Element
	byAlias  map[Key]*list.Element // front index: request digest → entry
	flights  map[Key]*Flight
	m        Metrics // Entries/Bytes computed at snapshot time
}

// New builds a cache with the given budget.
func New(cfg Config) *Cache {
	return &Cache{
		maxBytes: cfg.MaxBytes,
		ll:       list.New(),
		byKey:    make(map[Key]*list.Element),
		byAlias:  make(map[Key]*list.Element),
		flights:  make(map[Key]*Flight),
	}
}

// Lookup answers a request from the front index: the stored proof of
// the entry alias names, counted as a hit. A miss counts nothing — the
// caller goes on to Acquire, which counts the request exactly once.
func (c *Cache) Lookup(alias Key) (Proof, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byAlias[alias]
	if !ok {
		return Proof{}, false
	}
	c.ll.MoveToFront(el)
	c.m.Hits++
	return el.Value.(*cacheEntry).proof, true
}

// Acquire looks up k and, on a miss, either claims leadership of the
// prove (first caller) or joins the existing flight. The caller's
// aliases name k's entry in the front index: a hit files them at once,
// a miss leaves them on the flight for the leader's Commit to file.
// Filing counts nothing.
func (c *Cache) Acquire(k Key, aliases ...Key) Acquisition {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		c.attach(el, aliases)
		c.m.Hits++
		return Acquisition{Proof: el.Value.(*cacheEntry).proof, Hit: true}
	}
	f, ok := c.flights[k]
	if ok {
		c.m.Coalesced++
	} else {
		c.m.Misses++
		f = &Flight{done: make(chan struct{})}
		c.flights[k] = f
	}
	f.aliases = append(f.aliases, aliases...)
	return Acquisition{Flight: f, Leader: !ok}
}

// Commit resolves a leader's flight with freshly proven bytes. The
// bytes are re-verified first — the verify-on-insert rule — so a proof
// the verifier rejects is never inserted and never reaches a follower;
// the rejection is returned to the leader as an internal error and
// counted in VerifyRejects. On success the bytes gain their base64 text,
// the verified proof is returned for the leader to serve, and the stored
// entry gains the aliases the flight carries from Acquire (none when the
// proof was not stored).
func (c *Cache) Commit(ctx context.Context, k Key, data []byte, verify func(context.Context, []byte) error) (Proof, error) {
	if ferr := faultinject.Check(fiInsertCorrupt); ferr != nil && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x01
	}
	if err := verify(ctx, data); err != nil {
		c.mu.Lock()
		c.m.VerifyRejects++
		c.mu.Unlock()
		rej := zkerr.Internalf("proofcache: verify-on-insert rejected proof: %v", err)
		c.resolve(k, Proof{}, rej)
		return Proof{}, rej
	}
	p := Proof{Data: data, B64: base64.StdEncoding.AppendEncode(nil, data)}
	c.insert(k, p)
	c.resolve(k, p, nil)
	return p, nil
}

// Abort resolves a leader's flight with the prove's error; nothing is
// inserted and followers receive err.
func (c *Cache) Abort(k Key, err error) {
	c.resolve(k, Proof{}, err)
}

func (c *Cache) resolve(k Key, p Proof, err error) {
	c.mu.Lock()
	f := c.flights[k]
	delete(c.flights, k)
	c.mu.Unlock()
	if f != nil {
		f.proof, f.err = p, err
		close(f.done)
	}
}

func (c *Cache) insert(k Key, p Proof) {
	size := p.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	var aliases []Key
	if f := c.flights[k]; f != nil {
		aliases = f.aliases
	}
	if el, ok := c.byKey[k]; ok {
		c.attach(el, aliases)
		return
	}
	if size > c.maxBytes {
		c.m.OversizeSkips++
		return
	}
	for c.bytes+size > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.byKey, ev.key)
		for _, a := range ev.aliases {
			delete(c.byAlias, a)
		}
		c.bytes -= ev.proof.size()
		c.m.Evictions++
	}
	el := c.ll.PushFront(&cacheEntry{key: k, proof: p})
	c.byKey[k] = el
	c.attach(el, aliases)
	c.bytes += size
	c.m.Inserts++
}

// attach files under el each alias that is not filed yet, so every
// alias has exactly one owning entry.
func (c *Cache) attach(el *list.Element, aliases []Key) {
	e := el.Value.(*cacheEntry)
	for _, a := range aliases {
		if _, ok := c.byAlias[a]; !ok {
			c.byAlias[a] = el
			e.aliases = append(e.aliases, a)
		}
	}
}

// Metrics snapshots the counters.
func (c *Cache) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.m
	m.Entries = int64(len(c.byKey))
	m.Bytes = c.bytes
	return m
}
