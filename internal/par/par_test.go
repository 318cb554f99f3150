package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForVisitsEveryIndexOnce at every worker count, including more
// workers than indices and none at all.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, n + 5} {
			hits := make([]atomic.Int32, n)
			if err := For(context.Background(), n, workers, func(i int) { hits[i].Add(1) }); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestForBoundsConcurrency: never more than workers calls in flight.
func TestForBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int32
	err := For(context.Background(), 500, workers, func(int) {
		a := active.Add(1)
		for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
		}
		active.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d calls in flight with %d workers", p, workers)
	}
}

// TestForCancelMidway: a cancellation from inside the loop stops new
// claims, For returns the context's error, and by then every worker has
// left fn.
func TestForCancelMidway(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		const n = 100000
		ctx, cancel := context.WithCancel(context.Background())
		var active, calls atomic.Int64
		var returned atomic.Bool
		err := For(ctx, n, workers, func(i int) {
			active.Add(1)
			defer active.Add(-1)
			if returned.Load() {
				t.Error("fn called after For returned")
			}
			if calls.Add(1) == 50 {
				cancel()
			}
		})
		returned.Store(true)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if a := active.Load(); a != 0 {
			t.Fatalf("workers=%d: %d calls still in flight after For returned", workers, a)
		}
		// Each worker may finish the call it was in, no more.
		if c := calls.Load(); c < 50 || c > 50+int64(workers) {
			t.Fatalf("workers=%d: %d calls ran, want 50 plus at most one per worker", workers, c)
		}
		cancel()
	}
}

// TestForPreCanceled runs nothing.
func TestForPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := For(ctx, 10, 4, func(int) { t.Error("fn ran under a canceled context") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := For(ctx, 0, 4, func(int) {}); err != nil {
		t.Fatalf("empty range under a canceled context: %v", err)
	}
}
