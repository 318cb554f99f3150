package dispatch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressExactlyOneOutcome hammers the dispatcher with concurrent
// clients under mixed deadlines and a deliberately small queue, and
// asserts the dispatcher's exactly-once contract: every Submit returns
// exactly one classified outcome (result, shed, context error, or the
// error of the one batch whose scorer panics), every successful result
// is correct and ordered, and the dispatcher drains clean: once every
// flight has retired, whether its waiters stayed, left or saw a panic,
// the whole MaxQueue budget is free again. Run under -race (CI's race job does) this also proves
// no batch ever touches a released waiter's memory: batches write only
// flight records, never request state.
func TestStressExactlyOneOutcome(t *testing.T) {
	stub := &stubScorer{delay: 200 * time.Microsecond, panics: 1}
	d := New(stub, Options{
		MaxBatch: 16,
		MaxWait:  500 * time.Microsecond,
		MaxQueue: 64,
	})

	const (
		clients    = 64
		iterations = 30
		hotIDs     = 48
	)
	var ok, shedFull, shedDeadline, ctxExpired, panicked, unexpected atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				// 1–3 items from a shared hot pool, so requests
				// overlap and the singleflight map sees real traffic.
				n := 1 + (c+i)%3
				ids := make([]string, n)
				for k := range ids {
					ids[k] = fmt.Sprintf("item-%d", (c*7+i*13+k*29)%hotIDs)
				}

				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch i % 3 {
				case 0: // tight: may be shed or expire mid-wait
					ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
				case 1: // loose: must comfortably succeed or shed
					ctx, cancel = context.WithTimeout(ctx, 250*time.Millisecond)
				}
				res, err := d.Submit(ctx, items(ids...))
				cancel()

				switch {
				case err == nil:
					ok.Add(1)
					if len(res.Detections) != n {
						t.Errorf("client %d iter %d: %d detections for %d items", c, i, len(res.Detections), n)
					}
					for k, id := range ids {
						if res.Detections[k].ItemID != id || res.Detections[k].Score != scoreOf(id) {
							t.Errorf("client %d iter %d: detection %d = %+v, want %s/%v",
								c, i, k, res.Detections[k], id, scoreOf(id))
						}
					}
				case errors.Is(err, ErrQueueFull):
					shedFull.Add(1)
				case errors.Is(err, ErrDeadline):
					shedDeadline.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					ctxExpired.Add(1)
				case strings.Contains(err.Error(), "scorer blew up"):
					panicked.Add(1)
				default:
					unexpected.Add(1)
					t.Errorf("client %d iter %d: unexpected outcome %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()

	total := ok.Load() + shedFull.Load() + shedDeadline.Load() + ctxExpired.Load() + panicked.Load() + unexpected.Load()
	if want := int64(clients * iterations); total != want {
		t.Fatalf("outcomes = %d, want exactly %d (one per request)", total, want)
	}
	if unexpected.Load() != 0 {
		t.Fatalf("%d unexpected outcomes", unexpected.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under stress; workload is degenerate")
	}
	t.Logf("outcomes: %d ok, %d queue-full, %d deadline-shed, %d ctx-expired, %d panicked",
		ok.Load(), shedFull.Load(), shedDeadline.Load(), ctxExpired.Load(), panicked.Load())

	// Every flight must retire even though some waiters left early, and
	// every retired flight gives its MaxQueue slot back.
	for deadline := time.Now().Add(10 * time.Second); d.InFlight() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d 10s after the clients finished, want 0", d.InFlight())
		}
	}
	drained := seq("drained", d.Options().MaxQueue)
	if _, err := d.Submit(context.Background(), items(drained...)); err != nil {
		t.Errorf("%d new items on the drained dispatcher: %v, want them admitted", len(drained), err)
	}
	d.Close()
	if n := d.InFlight(); n != 0 {
		t.Errorf("inflight = %d after Close, want 0", n)
	}
	if n := d.QueueDepth(); n != 0 {
		t.Errorf("queue depth = %d after Close, want 0", n)
	}
}

// TestStressCoalescingSavesWork floods one hot item from many clients
// and asserts the singleflight map actually deduplicates: the item is
// scored far fewer times than it is requested.
func TestStressCoalescingSavesWork(t *testing.T) {
	stub := &stubScorer{delay: time.Millisecond}
	d := New(stub, Options{MaxBatch: 32, MaxWait: time.Millisecond, MaxQueue: 1024})
	defer d.Close()

	const clients = 32
	const iterations = 20
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				res, err := d.Submit(context.Background(), items("trending"))
				if err != nil || len(res.Detections) != 1 || res.Detections[0].Score != scoreOf("trending") {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed or returned wrong verdicts", failures.Load())
	}
	requested := clients * iterations
	scored := stub.timesScored("trending")
	if scored >= requested/2 {
		t.Errorf("hot item scored %d times for %d requests; coalescing is not deduplicating", scored, requested)
	}
	t.Logf("hot item: %d requests, %d scoring passes (%.1f%% saved)",
		requested, scored, 100*(1-float64(scored)/float64(requested)))
}
