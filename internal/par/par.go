// Package par provides the worker-pool helpers that parallelize the CPU
// prover (the paper's software baseline is "vectorized and parallelized",
// §III; its 32-core parallel speedup is part of the efficiency analysis).
// Work is divided into contiguous chunks distributed to one goroutine per
// available CPU, with deterministic results: chunk outputs are combined in
// index order and field arithmetic is exact, so parallel and serial
// execution produce identical bytes.
//
// Fault containment: a panic inside a worker goroutine would normally
// kill the whole process, which is unacceptable for a proving service.
// Every helper here recovers worker panics and re-raises them (with the
// failing chunk's range and the worker stack) on the caller's goroutine,
// where the prover's top-level recover converts them to a typed error.
// ForErrCtx additionally propagates ordinary errors.
//
// Cancellation: the Ctx variants stop dispatching new chunks as soon as
// the context is cancelled or any chunk fails, then drain the already
// running workers before returning — a cancelled caller always gets its
// goroutines back, never a leak. Chunks are oversubscribed (several per
// worker) so "stop dispatching" takes effect mid-range rather than after
// the full range has run.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"nocap/internal/faultinject"
	"nocap/internal/zkerr"
)

// fiWorker is the registered fault-injection point inside every pool
// chunk body (chaos tests arm it by this name).
var fiWorker = faultinject.Register("par.worker")

// minParallel is the work size — in units of roughly one field multiply
// — below which fan-out costs more than it saves. It is the one parallel
// threshold of the prover: every kernel decides serial vs parallel by it.
const minParallel = 1 << 12

// maxWorkers caps the pool (diminishing returns past this, and tests
// stay predictable on large machines).
const maxWorkers = 32

// chunksPerWorker oversubscribes the chunk count so early errors and
// cancellation can skip undispatched chunks: workers pull chunks from a
// shared counter, and once a chunk fails (or the context is cancelled)
// no further chunks start.
const chunksPerWorker = 4

// Workers returns the number of workers used for a job of n unit-cost
// items.
func Workers(n int) int { return workersSized(n, 1) }

// workersSized returns the number of workers for n items of itemSize
// work units each: one below the minParallel threshold, otherwise one
// per CPU up to maxWorkers and never more than there are items.
func workersSized(n, itemSize int) int {
	if n < 2 || n*itemSize < minParallel {
		return 1
	}
	return max(1, min(runtime.GOMAXPROCS(0), maxWorkers, n))
}

// WorkerPanic is the value re-raised on the caller goroutine when a worker
// panicked. It unwraps to zkerr.ErrInternal so that a top-level
// zkerr.RecoverTo classifies it, and it keeps the chunk range and worker
// stack for diagnosis.
type WorkerPanic struct {
	// Lo, Hi is the chunk the failing worker was processing.
	Lo, Hi int
	// Value is the original panic value.
	Value any
	// Stack is the failing worker's stack at recovery time.
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic on chunk [%d,%d): %v", p.Lo, p.Hi, p.Value)
}

// Unwrap places worker panics in the error taxonomy.
func (p *WorkerPanic) Unwrap() error { return zkerr.ErrInternal }

// Collector captures the first worker panic so it can be re-raised (or
// returned) on the caller's goroutine after the pool drains. It is
// exported for code that manages its own goroutines (e.g. the sumcheck
// round-evaluation loop) but wants the same containment behavior.
type Collector struct {
	mu sync.Mutex
	p  *WorkerPanic
}

// Recover is deferred inside each worker goroutine; it converts a panic
// into a recorded WorkerPanic (first one wins).
func (c *Collector) Recover(lo, hi int) {
	r := recover()
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.p == nil {
		c.p = &WorkerPanic{Lo: lo, Hi: hi, Value: r, Stack: debug.Stack()}
	}
}

// Repanic re-raises the recorded panic on the calling goroutine, if any.
// Called after the WaitGroup drains, so the panic crosses back onto a
// stack the caller's deferred recover can see.
func (c *Collector) Repanic() {
	if c.p != nil {
		panic(c.p)
	}
}

// Err returns the recorded panic as an error, or nil.
func (c *Collector) Err() error {
	if c.p == nil {
		return nil
	}
	return c.p
}

// For runs fn(lo, hi) over a partition of [0, n) across workers and
// waits for completion. fn must not assume any particular chunk
// geometry. A panic in any worker is re-raised on the caller's goroutine
// as a *WorkerPanic once all workers have stopped.
func For(n int, fn func(lo, hi int)) { ForSized(n, 1, fn) }

// ForSized is For over n items that each cost about itemSize work units
// (a matrix row of itemSize elements, say): the serial/parallel decision
// weighs n·itemSize against the threshold, so a few heavy items fan out
// where For, counting items, would run them serially.
func ForSized(n, itemSize int, fn func(lo, hi int)) {
	workers := workersSized(n, itemSize)
	if workers == 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	var rec Collector
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer rec.Recover(lo, hi)
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	rec.Repanic()
}

// ForCtx is For with cooperative cancellation: between chunks the pool
// checks ctx and stops dispatching once it is cancelled, draining the
// running workers before returning ctx.Err(). Worker panics re-raise on
// the caller's goroutine exactly like For.
func ForCtx(ctx context.Context, n int, fn func(lo, hi int)) error {
	err := ForErrCtx(ctx, n, func(lo, hi int) error {
		fn(lo, hi)
		return nil
	})
	var wp *WorkerPanic
	if errors.As(err, &wp) {
		panic(wp)
	}
	return err
}

// ForErrCtx runs fn(lo, hi) over a partition of [0, n) and returns the
// error of the lowest-indexed chunk that ran and failed. The first error
// stops dispatch: chunks not yet started are skipped (the pool is
// oversubscribed chunksPerWorker× so most of the range is undispatched
// when an early chunk fails), and already running chunks are drained
// before ForErrCtx returns. Worker panics are recovered and returned as
// a *WorkerPanic error instead of crashing the process, so Prove fails
// cleanly on internal faults. Cancellation of ctx stops dispatch the
// same way an error does, running workers drain (no goroutine ever
// outlives the call), and the context's error is returned if no chunk
// failed first. Each dispatched chunk also passes through the
// "par.worker" fault-injection point.
func ForErrCtx(ctx context.Context, n int, fn func(lo, hi int) error) error {
	return ForErrCtxSized(ctx, n, 1, fn)
}

// ForErrCtxSized is ForErrCtx over n items of about itemSize work units
// each; see ForSized.
func ForErrCtxSized(ctx context.Context, n, itemSize int, fn func(lo, hi int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := workersSized(n, itemSize)
	if workers == 1 {
		if n > 0 {
			if err := runChunk(0, n, fn); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	numChunks := workers * chunksPerWorker
	chunk := (n + numChunks - 1) / numChunks
	numChunks = (n + chunk - 1) / chunk

	errs := make([]error, numChunks)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= numChunks {
					return
				}
				lo, hi := c*chunk, (c+1)*chunk
				if hi > n {
					hi = n
				}
				if err := runChunk(lo, hi, fn); err != nil {
					errs[c] = err
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// runChunk runs one chunk through the fault-injection point with panic
// containment; an injected panic is contained like any other, even on a
// pool goroutine.
func runChunk(lo, hi int, fn func(lo, hi int) error) error {
	return protect(lo, hi, func(lo, hi int) error {
		if err := faultinject.Check(fiWorker); err != nil {
			return err
		}
		return fn(lo, hi)
	})
}

// protect runs one chunk, converting a panic into a *WorkerPanic error.
func protect(lo, hi int, fn func(lo, hi int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &WorkerPanic{Lo: lo, Hi: hi, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(lo, hi)
}

// MapReduce computes a per-chunk result and combines them in chunk-index
// order (deterministic for non-commutative combines). Worker panics are
// re-raised on the caller's goroutine like For.
func MapReduce[T any](n int, mapChunk func(lo, hi int) T, combine func(acc, v T) T) T {
	workers := Workers(n)
	var zero T
	if n <= 0 {
		return zero
	}
	if workers == 1 {
		return combine(zero, mapChunk(0, n))
	}
	chunk := (n + workers - 1) / workers
	results := make([]T, workers)
	used := make([]bool, workers)
	var wg sync.WaitGroup
	var rec Collector
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		used[w] = true
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer rec.Recover(lo, hi)
			results[w] = mapChunk(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	rec.Repanic()
	acc := zero
	for w := range results {
		if used[w] {
			acc = combine(acc, results[w])
		}
	}
	return acc
}
