// Package arena is a size-classed, race-safe pool of []field.Element
// scratch buffers with checkout/return discipline and leak accounting —
// the software analogue of NoCap's explicitly managed register-file
// banks: hot-loop operands live in recycled, known-size buffers instead
// of being allocated (and garbage-collected) per kernel call.
//
// Discipline:
//
//   - Get/GetUninitCtx check a buffer out; Put returns it. The caller that
//     checks a buffer out owns it and is responsible for exactly one Put.
//   - Buffers must never be Put while still referenced — returned memory
//     is recycled and will be overwritten by the next checkout.
//   - Put accepts the original slice or any prefix reslice of it — down
//     to and including a zero-length prefix (the sumcheck fold halves
//     slices in place, and a fold can reach length zero); ownership is
//     keyed on the backing array's base pointer, which a prefix reslice
//     preserves.
//   - Memory that escapes into long-lived values (proofs, commitments)
//     must come from plain make, never from the arena.
//
// Misuse is detected, not trusted: a Put of a slice that is not checked
// out (double return, foreign slice) is dropped and counted in
// Stats.DoubleReturns rather than poisoning the pool, and
// Stats.Outstanding exposes the live-checkout count so tests can assert
// leak-freedom around a proving run.
//
// Attribution under concurrency: counters accumulate in the arena's own
// aggregate sink and, when a checkout is made through GetCtx/GetUninitCtx
// with a Collector attached to the context (WithCollector), in that
// per-run collector too. The collector is recorded on the checkout, so
// the matching Put credits the same run no matter which goroutine or
// context performs it.
package arena

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"nocap/internal/field"
)

// numClasses covers every power-of-two capacity addressable on a 64-bit
// machine; classes large enough to matter simply fail in make like any
// other allocation.
const numClasses = 64

// Collector accumulates one run's checkout/return counters. The zero
// value is ready to use; all methods are safe for concurrent use.
type Collector struct {
	gets, puts, hits, misses atomic.Int64
	outstandingElems         atomic.Int64
}

// Snapshot reads the collector's current cumulative counters.
// DoubleReturns is always zero in a per-run collector: a rejected Put
// has no checkout record, so it cannot be attributed to any run and is
// counted only in the arena's aggregate Stats.
func (c *Collector) Snapshot() Stats {
	gets := c.gets.Load()
	puts := c.puts.Load()
	return Stats{
		Gets:             gets,
		Puts:             puts,
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Outstanding:      gets - puts,
		OutstandingElems: c.outstandingElems.Load(),
	}
}

// AddStats credits a whole Stats delta to the collector without touching
// the arena's aggregate counters. Batched proving uses it to hand each
// batch member its share of checkouts made once under a shared plan
// collector (which already hit the aggregate); Outstanding is derived
// from Gets−Puts at snapshot time, so only the raw counters are applied.
func (c *Collector) AddStats(s Stats) {
	c.gets.Add(s.Gets)
	c.puts.Add(s.Puts)
	c.hits.Add(s.Hits)
	c.misses.Add(s.Misses)
	c.outstandingElems.Add(s.OutstandingElems)
}

// collectorKey carries a *Collector in a context.
type collectorKey struct{}

// WithCollector returns a context that attributes all arena checkouts
// made under it (via GetCtx/GetUninitCtx) — and their eventual returns —
// to c, in addition to the arena's aggregate counters.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, collectorKey{}, c)
}

// FromContext returns the collector attached to ctx, or nil.
func FromContext(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}

// checkout records one live buffer: the boxed full-capacity slice to
// recycle on return (boxed so Put re-pools the same pointer without
// allocating), its size class, the checked-out length for element
// accounting, and the per-run collector to credit on return (nil for
// unattributed checkouts).
type checkout struct {
	box   *[]field.Element
	class int
	n     int
	col   *Collector
}

// Arena is one pool instance. The zero value is not usable; call New.
// All methods are safe for concurrent use.
type Arena struct {
	pools [numClasses]sync.Pool // each stores *[]field.Element with len == cap == 1<<class

	mu   sync.Mutex
	live map[*field.Element]checkout

	gets, puts, hits, misses, doubleReturns atomic.Int64
	outstandingElems                        atomic.Int64
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{live: make(map[*field.Element]checkout)}
}

// Default is the process-wide arena the prover packages share.
var Default = New()

// Get checks out a zeroed buffer of length n (nil if n == 0).
func (a *Arena) Get(n int) []field.Element {
	return a.GetCtx(context.Background(), n)
}

// GetCtx is Get with per-run attribution: the checkout (and its eventual
// return) is credited to the collector carried by ctx, if any.
func (a *Arena) GetCtx(ctx context.Context, n int) []field.Element {
	s := a.GetUninitCtx(ctx, n)
	clear(s)
	return s
}

// GetUninitCtx checks out a buffer of length n with arbitrary contents —
// for callers that overwrite every entry before reading any. Capacity is
// the size class (next power of two ≥ n). The checkout is attributed to
// the context's collector, if any.
func (a *Arena) GetUninitCtx(ctx context.Context, n int) []field.Element {
	if n <= 0 {
		return nil
	}
	col := FromContext(ctx)
	a.gets.Add(1)
	a.outstandingElems.Add(int64(n))
	if col != nil {
		col.gets.Add(1)
		col.outstandingElems.Add(int64(n))
	}
	class := bits.Len(uint(n - 1)) // ceil(log2 n); n=1 → class 0
	var box *[]field.Element
	if v := a.pools[class].Get(); v != nil {
		a.hits.Add(1)
		if col != nil {
			col.hits.Add(1)
		}
		box = v.(*[]field.Element)
	} else {
		a.misses.Add(1)
		if col != nil {
			col.misses.Add(1)
		}
		full := make([]field.Element, 1<<class)
		box = &full
	}
	s := (*box)[:n]
	a.mu.Lock()
	a.live[&s[0]] = checkout{box: box, class: class, n: n, col: col}
	a.mu.Unlock()
	return s
}

// Put returns a checked-out buffer (or any prefix reslice of one, down
// to length zero) to the pool. Ownership is keyed on the backing array's
// base pointer, which survives prefix reslicing even to s[:0], so a
// caller that folds its scratch to empty still releases the checkout.
// Put(nil) is a no-op, so unconditional deferred returns of
// possibly-empty checkouts are fine. Returning a slice the arena does
// not currently track — a double return or a foreign slice — increments
// DoubleReturns and is otherwise ignored.
func (a *Arena) Put(s []field.Element) {
	if cap(s) == 0 {
		// nil, or a zero-capacity slice: no backing array, so nothing
		// can have been checked out through it.
		return
	}
	// unsafe.SliceData returns the base pointer of the backing array even
	// for a zero-length prefix (where &s[0] would panic); for len(s) > 0
	// it is identical to &s[0], the key GetUninitCtx stored.
	key := unsafe.SliceData(s)
	a.mu.Lock()
	co, ok := a.live[key]
	if ok {
		delete(a.live, key)
	}
	a.mu.Unlock()
	if !ok {
		a.doubleReturns.Add(1)
		return
	}
	a.puts.Add(1)
	a.outstandingElems.Add(-int64(co.n))
	if co.col != nil {
		co.col.puts.Add(1)
		co.col.outstandingElems.Add(-int64(co.n))
	}
	a.pools[co.class].Put(co.box)
}

// Stats is a snapshot of the arena's cumulative accounting counters.
type Stats struct {
	// Gets and Puts count successful checkouts and returns.
	Gets, Puts int64
	// Hits and Misses split Gets by whether the pool had a recycled
	// buffer of the right class.
	Hits, Misses int64
	// DoubleReturns counts rejected Puts (double return or foreign
	// slice). Always zero in a correct program, and always zero in
	// per-run Collector snapshots (rejected Puts have no checkout to
	// attribute).
	DoubleReturns int64
	// Outstanding is the number of live checkouts (Gets − Puts);
	// OutstandingElems is their total element count. Both return to
	// their pre-run values when a proving run leaks nothing.
	Outstanding      int64
	OutstandingElems int64
}

// Stats reads the current counters.
func (a *Arena) Stats() Stats {
	gets := a.gets.Load()
	puts := a.puts.Load()
	return Stats{
		Gets:             gets,
		Puts:             puts,
		Hits:             a.hits.Load(),
		Misses:           a.misses.Load(),
		DoubleReturns:    a.doubleReturns.Load(),
		Outstanding:      gets - puts,
		OutstandingElems: a.outstandingElems.Load(),
	}
}

// Sub returns the counter difference s − o, for attributing arena
// activity to one run bracketed by two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Gets:             s.Gets - o.Gets,
		Puts:             s.Puts - o.Puts,
		Hits:             s.Hits - o.Hits,
		Misses:           s.Misses - o.Misses,
		DoubleReturns:    s.DoubleReturns - o.DoubleReturns,
		Outstanding:      s.Outstanding - o.Outstanding,
		OutstandingElems: s.OutstandingElems - o.OutstandingElems,
	}
}

// Add returns the counter sum s + o, for combining per-run collectors
// when checking them against the aggregate sink.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Gets:             s.Gets + o.Gets,
		Puts:             s.Puts + o.Puts,
		Hits:             s.Hits + o.Hits,
		Misses:           s.Misses + o.Misses,
		DoubleReturns:    s.DoubleReturns + o.DoubleReturns,
		Outstanding:      s.Outstanding + o.Outstanding,
		OutstandingElems: s.OutstandingElems + o.OutstandingElems,
	}
}

// shareOf returns share i of total split k ways so the k shares sum to
// total exactly (floor division, remainder to the lowest-indexed shares).
func shareOf(total int64, k, i int) int64 {
	q, r := total/int64(k), total%int64(k)
	if int64(i) < r {
		q++
	}
	return q
}

// Split partitions s into k shares that sum back to s exactly. Batched
// proving attributes shared-plan arena activity proportionally — batch
// members are structurally identical, so the proportional share is an
// even split, with integer remainders going to the lowest-indexed
// members so sum(shares) == s holds counter-for-counter.
func (s Stats) Split(k int) []Stats {
	if k <= 0 {
		return nil
	}
	out := make([]Stats, k)
	for i := range out {
		out[i] = Stats{
			Gets:             shareOf(s.Gets, k, i),
			Puts:             shareOf(s.Puts, k, i),
			Hits:             shareOf(s.Hits, k, i),
			Misses:           shareOf(s.Misses, k, i),
			DoubleReturns:    shareOf(s.DoubleReturns, k, i),
			Outstanding:      shareOf(s.Outstanding, k, i),
			OutstandingElems: shareOf(s.OutstandingElems, k, i),
		}
	}
	return out
}

// Get checks a zeroed buffer out of the Default arena.
func Get(n int) []field.Element { return Default.Get(n) }

// GetCtx checks a zeroed buffer out of the Default arena, attributed to
// the context's collector.
func GetCtx(ctx context.Context, n int) []field.Element { return Default.GetCtx(ctx, n) }

// GetUninitCtx checks an uninitialized buffer out of the Default arena,
// attributed to the context's collector.
func GetUninitCtx(ctx context.Context, n int) []field.Element { return Default.GetUninitCtx(ctx, n) }

// Put returns a buffer to the Default arena.
func Put(s []field.Element) { Default.Put(s) }

// ReadStats reads the Default arena's counters.
func ReadStats() Stats { return Default.Stats() }
