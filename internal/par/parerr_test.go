package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"nocap/internal/zkerr"
)

func TestForErrCoversRangeAndPropagatesNil(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1 << 13, 1<<13 + 7} {
		covered := make([]int32, max(n, 1))
		err := ForErrCtx(context.Background(), n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if covered[i] != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, covered[i])
			}
		}
	}
}

func TestForErrReturnsLowestChunkError(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	n := 1 << 14
	err := ForErrCtx(context.Background(), n, func(lo, hi int) error {
		return fmt.Errorf("chunk %d failed", lo)
	})
	if err == nil || !strings.Contains(err.Error(), "chunk 0 failed") {
		t.Fatalf("want lowest-chunk error, got %v", err)
	}
}

func TestForErrRecoversWorkerPanic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	n := 1 << 14
	err := ForErrCtx(context.Background(), n, func(lo, hi int) error {
		if lo > 0 {
			panic(fmt.Sprintf("worker detonated at %d", lo))
		}
		return nil
	})
	if err == nil {
		t.Fatal("worker panic swallowed")
	}
	var wp *WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("want *WorkerPanic, got %T: %v", err, err)
	}
	if wp.Lo == 0 || wp.Hi <= wp.Lo {
		t.Fatalf("chunk context missing: %+v", wp)
	}
	if len(wp.Stack) == 0 {
		t.Fatal("worker stack not captured")
	}
	if !errors.Is(err, zkerr.ErrInternal) {
		t.Fatalf("worker panic not classified internal: %v", err)
	}
}

func TestForErrSerialPanicContained(t *testing.T) {
	// Below the parallel threshold the chunk runs on the caller goroutine;
	// containment must hold there too.
	err := ForErrCtx(context.Background(), 10, func(lo, hi int) error { panic("serial boom") })
	var wp *WorkerPanic
	if !errors.As(err, &wp) || wp.Lo != 0 || wp.Hi != 10 {
		t.Fatalf("serial panic not contained with chunk context: %v", err)
	}
}

func TestForRepanicsOnCallerGoroutine(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	caught := func() (v any) {
		defer func() { v = recover() }()
		For(1<<14, func(lo, hi int) {
			panic("for boom")
		})
		return nil
	}()
	wp, ok := caught.(*WorkerPanic)
	if !ok {
		t.Fatalf("want *WorkerPanic on caller goroutine, got %v", caught)
	}
	if wp.Value != "for boom" {
		t.Fatalf("panic value lost: %v", wp.Value)
	}
}

func TestMapReduceRepanicsOnCallerGoroutine(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	caught := func() (v any) {
		defer func() { v = recover() }()
		MapReduce(1<<14, func(lo, hi int) int {
			panic("mr boom")
		}, func(a, b int) int { return a + b })
		return nil
	}()
	if _, ok := caught.(*WorkerPanic); !ok {
		t.Fatalf("want *WorkerPanic, got %v", caught)
	}
}
