package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nocap/internal/faultinject"
	"nocap/internal/leakcheck"
	"nocap/internal/zkerr"
)

// TestForErrEarlyErrorSkipsUndispatchedChunks is the regression test for
// the dispatch-stop fix: once a chunk fails, chunks not yet started must
// never run. The failing chunk signals the in-flight chunks, which wait
// long enough for the stop flag to be visible before returning, so every
// later pull observes the stop; at most `workers` chunks (the failing one
// plus the in-flight ones) ever execute out of workers*chunksPerWorker.
func TestForErrEarlyErrorSkipsUndispatchedChunks(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	n := 1 << 14
	workers := Workers(n)
	if workers < 2 {
		t.Skip("need a parallel pool")
	}
	numChunks := workers * chunksPerWorker

	var executed atomic.Int32
	errFired := make(chan struct{})
	boom := errors.New("early chunk failure")
	err := ForErrCtx(context.Background(), n, func(lo, hi int) error {
		executed.Add(1)
		if lo == 0 {
			defer close(errFired)
			return boom
		}
		// In-flight chunk: hold until the failing chunk has returned,
		// then give the pool time to set the stop flag, so this worker's
		// next pull deterministically observes it.
		<-errFired
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the injected chunk error, got %v", err)
	}
	if got := int(executed.Load()); got > workers {
		t.Fatalf("%d chunks executed after an early error; at most %d (the in-flight set) allowed, pool had %d chunks total",
			got, workers, numChunks)
	}
}

func TestForErrCtxCancelStopsDispatchAndDrains(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	n := 1 << 14
	workers := Workers(n)
	if workers < 2 {
		t.Skip("need a parallel pool")
	}

	snap := leakcheck.Take()
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int32
	err := ForErrCtx(ctx, n, func(lo, hi int) error {
		if executed.Add(1) == 1 {
			cancel()
			// Same drain pattern as the error test: let the cancellation
			// become visible before this worker pulls again.
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := int(executed.Load()); got > workers+1 {
		t.Fatalf("%d chunks executed after cancellation; want at most the in-flight set (%d)", got, workers+1)
	}
	snap.Check(t)
}

func TestForErrCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int32
	err := ForErrCtx(ctx, 1<<14, func(lo, hi int) error {
		executed.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if executed.Load() != 0 {
		t.Fatalf("%d chunks ran under an already-cancelled context", executed.Load())
	}
}

func TestForErrCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := ForErrCtx(ctx, 1<<14, func(lo, hi int) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

func TestForCtxCleanRunAndPanicPropagation(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	n := 1 << 14
	covered := make([]int32, n)
	if err := ForCtx(context.Background(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	}); err != nil {
		t.Fatalf("clean ForCtx: %v", err)
	}
	for i := range covered {
		if covered[i] != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i])
		}
	}

	caught := func() (v any) {
		defer func() { v = recover() }()
		_ = ForCtx(context.Background(), n, func(lo, hi int) {
			panic(fmt.Sprintf("forctx boom at %d", lo))
		})
		return nil
	}()
	wp, ok := caught.(*WorkerPanic)
	if !ok {
		t.Fatalf("want *WorkerPanic re-raised on caller goroutine, got %v", caught)
	}
	if !errors.Is(wp, zkerr.ErrInternal) {
		t.Fatalf("worker panic not classified internal: %v", wp)
	}
}

func TestForErrCtxFaultInjectionPoint(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	defer faultinject.Disarm()
	faultinject.MustArm(faultinject.Plan{Point: "par.worker", Kind: faultinject.Error, Trigger: 2})
	snap := leakcheck.Take()
	err := ForErrCtx(context.Background(), 1<<14, func(lo, hi int) error { return nil })
	if !errors.Is(err, zkerr.ErrInternal) {
		t.Fatalf("want injected internal error from par.worker point, got %v", err)
	}
	if !faultinject.Fired() {
		t.Fatal("armed plan never fired")
	}
	faultinject.Disarm()
	snap.Check(t)

	// Containment: the very next pool run is clean.
	if err := ForErrCtx(context.Background(), 1<<14, func(lo, hi int) error { return nil }); err != nil {
		t.Fatalf("pool did not recover after injected fault: %v", err)
	}
}

// TestForErrCtxContainsInjectedPanic arms a panic at the par.worker point
// of a chunk that runs on a pool goroutine: it must come back as a
// *WorkerPanic error, not take the process down.
func TestForErrCtxContainsInjectedPanic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	defer faultinject.Disarm()
	faultinject.MustArm(faultinject.Plan{Point: "par.worker", Kind: faultinject.Panic, Trigger: 3})
	snap := leakcheck.Take()
	err := ForErrCtx(context.Background(), 1<<14, func(lo, hi int) error { return nil })
	var wp *WorkerPanic
	if !errors.As(err, &wp) || !errors.Is(err, zkerr.ErrInternal) {
		t.Fatalf("want a contained *WorkerPanic from the injected panic, got %v", err)
	}
	if !faultinject.Fired() {
		t.Fatal("armed plan never fired")
	}
	faultinject.Disarm()
	snap.Check(t)
}
