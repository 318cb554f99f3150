// Package par holds the one parallel loop the pipeline's batch stages
// share: the detector's analysis and scoring fan-outs and the feature
// extractor's dataset pass.
package par

import (
	"context"
	"fmt"
	"runtime/debug"
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
//
// A panic in fn, on any goroutine, likewise stops the claiming; once
// every worker has returned, For re-raises the first one on the caller,
// carrying the stack of the goroutine it happened on, so the caller's
// recover sees it as it would a panic of its own.
func For(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers > n {
		workers = n
	}
	var cursor atomic.Int64
	var caught atomic.Pointer[error] // the first panic in fn, with its stack
	claim := func() {
		defer func() {
			if p := recover(); p != nil {
				err := fmt.Errorf("%v\n\npanicking goroutine's stack:\n%s", p, debug.Stack())
				caught.CompareAndSwap(nil, &err)
			}
		}()
		for ctx.Err() == nil && caught.Load() == nil {
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
	if err := caught.Load(); err != nil {
		panic(*err)
	}
	if int(cursor.Load()) < n {
		return ctx.Err()
	}
	return nil
}
