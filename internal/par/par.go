// Package par holds the one parallel loop the pipeline's batch stages
// share: the detector's analysis fan-out and the feature extractor's
// dataset pass.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n), on up to workers
// goroutines (the caller's included), and returns when all of them have
// finished. Workers claim the next unclaimed index from a shared atomic
// cursor, so no goroutine feeds the others and a slow index delays only
// the worker that took it. fn must be safe to call concurrently for
// distinct indices; outputs written to slot i of a pre-sized slice keep
// their input order.
//
// Once ctx is canceled no further index is claimed and For returns
// ctx's error after the calls in flight have returned; it returns nil
// otherwise.
func For(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers > n {
		workers = n
	}
	var cursor atomic.Int64
	claim := func() {
		for ctx.Err() == nil {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	if int(cursor.Load()) < n {
		return ctx.Err()
	}
	return nil
}
