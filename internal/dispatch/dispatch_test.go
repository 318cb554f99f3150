package dispatch

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecom"
)

// scoreOf is the stub's deterministic verdict: a stable hash of the
// item ID mapped into [0, 1). Tests recover the expected score for any
// ID without threading state around.
func scoreOf(id string) float64 {
	h := fnv.New32a()
	h.Write([]byte(id))
	return float64(h.Sum32()%1000) / 1000
}

// stubScorer is a controllable Scorer: per-ID scoring counts, the IDs
// of every batch in call order, an optional entry handshake
// (started/release) to hold a batch open, an optional fixed delay, and
// an injectable error.
type stubScorer struct {
	mu      sync.Mutex
	calls   int
	scored  map[string]int
	batches [][]string
	started chan struct{} // closed on first call, if non-nil
	release chan struct{} // first call blocks on this, if non-nil
	once    sync.Once
	delay   time.Duration
	err     error
}

func (s *stubScorer) DetectWithFeatures(ctx context.Context, items []ecom.Item, workers int) ([]core.Detection, [][]float64, error) {
	s.mu.Lock()
	s.calls++
	if s.scored == nil {
		s.scored = map[string]int{}
	}
	ids := make([]string, len(items))
	for i := range items {
		s.scored[items[i].ID]++
		ids[i] = items[i].ID
	}
	s.batches = append(s.batches, ids)
	err := s.err
	s.mu.Unlock()
	if s.started != nil {
		blocked := false
		s.once.Do(func() {
			close(s.started)
			blocked = true
		})
		if blocked && s.release != nil {
			<-s.release
		}
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if err != nil {
		return nil, nil, err
	}
	dets := make([]core.Detection, len(items))
	X := make([][]float64, len(items))
	for i := range items {
		sc := scoreOf(items[i].ID)
		dets[i] = core.Detection{ItemID: items[i].ID, Score: sc, IsFraud: sc >= 0.5}
		X[i] = []float64{sc}
	}
	return dets, X, nil
}

func (s *stubScorer) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *stubScorer) batch(i int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches[i]
}

func (s *stubScorer) timesScored(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scored[id]
}

func item(id string) ecom.Item { return ecom.Item{ID: id, SalesVolume: 10} }

func items(ids ...string) []ecom.Item {
	out := make([]ecom.Item, len(ids))
	for i, id := range ids {
		out[i] = item(id)
	}
	return out
}

// checkResult asserts a Submit result carries the stub's verdict for
// every requested ID, in request order, with its feature row.
func checkResult(t *testing.T, res Result, ids ...string) {
	t.Helper()
	if len(res.Detections) != len(ids) {
		t.Fatalf("got %d detections, want %d", len(res.Detections), len(ids))
	}
	for i, id := range ids {
		if res.Detections[i].ItemID != id {
			t.Errorf("detection %d is %q, want %q", i, res.Detections[i].ItemID, id)
		}
		if want := scoreOf(id); res.Detections[i].Score != want {
			t.Errorf("score[%s] = %v, want %v", id, res.Detections[i].Score, want)
		}
		if len(res.Features[i]) != 1 || res.Features[i][0] != scoreOf(id) {
			t.Errorf("feature row %d = %v, want [%v]", i, res.Features[i], scoreOf(id))
		}
	}
}

// idleProcess forgets every batch the process has scored so far, the
// dispatchers of earlier tests included: the next Submit finds the
// scorer idle however short a while ago that was.
func idleProcess() { lastBusy.Store(0) }

// holdScorer makes the dispatcher busy: it submits one item ("gate")
// to an idle process, whose batch blocks inside the scorer, so every
// later Submit finds a batch running and queues behind it. The returned
// release opens the gate and waits for the gate's own Submit to return.
func holdScorer(t *testing.T, d *Dispatcher) (stub *stubScorer, release func()) {
	t.Helper()
	idleProcess()
	stub = d.scorer.(*stubScorer)
	stub.started, stub.release = make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := d.Submit(context.Background(), items("gate"))
		done <- err
	}()
	<-stub.started
	return stub, func() {
		t.Helper()
		close(stub.release)
		if err := <-done; err != nil {
			t.Errorf("gate submit: %v", err)
		}
	}
}

// submitAsync runs Submit on its own goroutine; the returned func waits
// for it and checks the result.
func submitAsync(t *testing.T, d *Dispatcher, ids ...string) (wait func()) {
	t.Helper()
	var res Result
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = d.Submit(context.Background(), items(ids...))
	}()
	return func() {
		t.Helper()
		<-done
		if err != nil {
			t.Fatalf("submit %v: %v", ids, err)
		}
		checkResult(t, res, ids...)
	}
}

// serveCounts is a reading of the dispatcher's flush-rule and coalesce
// counters. The series are per tenant label and outlive a Dispatcher, so
// tests compare readings, never absolute values.
type serveCounts struct{ size, idle, drain, timer, close, coalesced uint64 }

func countsOf(d *Dispatcher) serveCounts {
	return serveCounts{
		size:      d.m.flushSize.Value(),
		idle:      d.m.flushIdle.Value(),
		drain:     d.m.flushDrain.Value(),
		timer:     d.m.flushTimer.Value(),
		close:     d.m.flushClose.Value(),
		coalesced: d.m.coalesced.Value(),
	}
}

// since returns how far each counter moved after the reading before.
func (c serveCounts) since(before serveCounts) serveCounts {
	return serveCounts{c.size - before.size, c.idle - before.idle, c.drain - before.drain,
		c.timer - before.timer, c.close - before.close, c.coalesced - before.coalesced}
}

// awaitQueued blocks until n items are queued and not yet dispatched.
func awaitQueued(d *Dispatcher, n int) {
	for d.QueueDepth() < n {
		time.Sleep(time.Millisecond)
	}
}

func TestIdleSubmitDoesNotWait(t *testing.T) {
	stub := &stubScorer{}
	// MaxWait is an hour: the test completing at all proves a Submit to
	// an idle dispatcher does not wait for it.
	d := New(stub, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name()})
	defer d.Close()
	idleProcess()
	before := countsOf(d)
	res, err := d.Submit(context.Background(), items("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "a", "b")
	if got := stub.callCount(); got != 1 {
		t.Errorf("scorer calls = %d, want 1", got)
	}
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}

// TestRecentlyBusyProcessCollects is the other half of the idle rule:
// a Submit that follows a batch by less than MaxWait is traffic, not a
// lone request, and is left to collect — on the dispatcher that scored
// the batch and on any other in the process, since they share the
// cores. MaxWait is an hour, so only Close can flush what collected.
func TestRecentlyBusyProcessCollects(t *testing.T) {
	stub, other := &stubScorer{}, &stubScorer{}
	d := New(stub, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name()})
	d2 := New(other, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name() + "/other"})
	defer d.Close()
	defer d2.Close()
	idleProcess()
	before, before2 := countsOf(d), countsOf(d2)
	if _, err := d.Submit(context.Background(), items("a")); err != nil {
		t.Fatal(err)
	}

	waitB := submitAsync(t, d, "b")
	waitC := submitAsync(t, d2, "c")
	awaitQueued(d, 1)
	awaitQueued(d2, 1)
	if got := stub.callCount() + other.callCount(); got != 1 {
		t.Fatalf("scorer calls = %d with b and c queued, want 1 (a's)", got)
	}
	d.Close()
	d2.Close()
	waitB()
	waitC()
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1, close: 1}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
	if got, want := countsOf(d2).since(before2), (serveCounts{close: 1}); got != want {
		t.Errorf("other dispatcher's counters moved %+v, want %+v", got, want)
	}
}

// TestIdleAgainAfterMaxWait: the scorer counts as idle again once
// MaxWait has passed since the last batch.
func TestIdleAgainAfterMaxWait(t *testing.T) {
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: 5 * time.Millisecond, Tenant: t.Name()})
	defer d.Close()
	idleProcess()
	before := countsOf(d)
	for _, id := range []string{"a", "b"} {
		if _, err := d.Submit(context.Background(), items(id)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got, want := countsOf(d).since(before), (serveCounts{idle: 2}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}

func TestBusyQueueFlushesOnCompletion(t *testing.T) {
	// The scorer is busy and neither the size nor the time trigger is
	// reachable: only the running batch finishing can flush the queue.
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name()})
	defer d.Close()
	before := countsOf(d)
	stub, release := holdScorer(t, d)

	// Six submits over four distinct IDs: the duplicates coalesce onto
	// the queued flights.
	var waits []func()
	for _, ids := range [][]string{{"a"}, {"b", "c"}, {"d"}} {
		waits = append(waits, submitAsync(t, d, ids...))
	}
	awaitQueued(d, 4)
	for _, ids := range [][]string{{"a"}, {"c", "d"}, {"b"}} {
		waits = append(waits, submitAsync(t, d, ids...))
	}
	for countsOf(d).since(before).coalesced < 4 {
		time.Sleep(time.Millisecond)
	}
	if got := stub.callCount(); got != 1 {
		t.Fatalf("scorer calls = %d while the gate is held, want 1 (the gate's own)", got)
	}
	release()
	for _, wait := range waits {
		wait()
	}
	if got := stub.callCount(); got != 2 {
		t.Fatalf("scorer calls = %d, want exactly 2: the held batch, then everything queued behind it", got)
	}
	if got := len(stub.batch(1)); got != 4 {
		t.Errorf("follow-up batch carried %d items (%v), want the 4 distinct ones", got, stub.batch(1))
	}
	if depth := d.QueueDepth(); depth != 0 {
		t.Errorf("queue depth = %d after the drain flush, want 0", depth)
	}
	// One idle flush (the gate's own), one drain flush, and no other rule.
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1, drain: 1, coalesced: 4}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}

func TestFlushOnMaxBatch(t *testing.T) {
	// The scorer is busy and MaxWait is an hour: only the size trigger
	// can flush, and it must not wait for the running batch.
	d := New(&stubScorer{}, Options{MaxBatch: 4, MaxWait: time.Hour, MaxQueue: 100, Tenant: t.Name()})
	defer d.Close()
	before := countsOf(d)
	stub, release := holdScorer(t, d)
	defer release()

	wait1 := submitAsync(t, d, "a", "b", "c")
	awaitQueued(d, 3)
	wait2 := submitAsync(t, d, "d")
	wait1()
	wait2()
	if got := stub.callCount(); got != 2 {
		t.Errorf("scorer calls = %d, want 2: the held batch and 1 fused batch", got)
	}
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1, size: 1}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}

func TestMaxWaitCapsQueueWhileBusy(t *testing.T) {
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: 10 * time.Millisecond, Tenant: t.Name()})
	defer d.Close()
	before := countsOf(d)
	stub, release := holdScorer(t, d)
	defer release()

	// The gate stays shut: this Submit returning at all proves the cap
	// flushed the queue past the running batch.
	start := time.Now()
	res, err := d.Submit(context.Background(), items("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "a", "b")
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("flushed after %v, before the 10ms max wait", elapsed)
	}
	if got := stub.callCount(); got != 2 {
		t.Errorf("scorer calls = %d, want 2", got)
	}
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1, timer: 1}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}

// TestFlushUnderBatchQuota walks all three busy-side rules with one
// batch allowed to score at a time: a size flush parks its batch on the
// quota behind the held one, later items queue behind both, and only
// the last of them finishing drains the queue.
func TestFlushUnderBatchQuota(t *testing.T) {
	d := New(&stubScorer{}, Options{MaxBatch: 2, MaxWait: time.Hour, MaxConcurrentBatches: 1, Tenant: t.Name()})
	defer d.Close()
	before := countsOf(d)
	stub, release := holdScorer(t, d)

	waitA := submitAsync(t, d, "a")
	awaitQueued(d, 1)
	waitB := submitAsync(t, d, "b") // completes the batch: size flush
	for countsOf(d).since(before).size < 1 {
		time.Sleep(time.Millisecond)
	}
	waitC := submitAsync(t, d, "c")
	awaitQueued(d, 1)
	if got := stub.callCount(); got != 1 {
		t.Fatalf("scorer calls = %d while the quota is held, want 1", got)
	}
	release()
	waitA()
	waitB()
	waitC()
	if got := stub.callCount(); got != 3 {
		t.Fatalf("scorer calls = %d, want 3", got)
	}
	if got := stub.batch(2); len(got) != 1 || got[0] != "c" {
		t.Errorf("last batch = %v, want [c]", got)
	}
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1, size: 1, drain: 1}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}

// volumeScorer scores an item by its sales volume, so verdicts tell
// apart items that share an ID.
type volumeScorer struct{}

func (volumeScorer) DetectWithFeatures(ctx context.Context, items []ecom.Item, workers int) ([]core.Detection, [][]float64, error) {
	dets := make([]core.Detection, len(items))
	for i := range items {
		dets[i] = core.Detection{ItemID: items[i].ID, Score: float64(items[i].SalesVolume)}
	}
	return dets, make([][]float64, len(items)), nil
}

// TestIDlessItemsNeverCoalesce: an empty ID identifies nothing, so two
// such items are two items, each with its own verdict.
func TestIDlessItemsNeverCoalesce(t *testing.T) {
	d := New(volumeScorer{}, Options{MaxBatch: 100, MaxWait: time.Millisecond, Tenant: t.Name()})
	defer d.Close()
	before := countsOf(d)
	res, err := d.Submit(context.Background(), []ecom.Item{{SalesVolume: 7}, {SalesVolume: 900}, {ID: "x", SalesVolume: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{7, 900, 3} {
		if got := res.Detections[i].Score; got != want {
			t.Errorf("detection %d scored %v, want %v", i, got, want)
		}
	}
	if n := countsOf(d).since(before).coalesced; n != 0 {
		t.Errorf("coalesced = %d, want 0", n)
	}
	if n := d.InFlight(); n != 0 {
		t.Errorf("inflight = %d after the batch, want 0", n)
	}
}

func TestCoalesceIdenticalInFlight(t *testing.T) {
	stub := &stubScorer{started: make(chan struct{}), release: make(chan struct{})}
	d := New(stub, Options{MaxBatch: 100, MaxWait: time.Millisecond})
	defer d.Close()

	const waiters = 10
	coalescedBefore := d.m.coalesced.Value()
	var wg sync.WaitGroup
	results := make([]Result, waiters+1)
	errs := make([]error, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = d.Submit(context.Background(), items("hot"))
	}()
	<-stub.started // the batch holding "hot" is now inside the scorer
	for w := 1; w <= waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = d.Submit(context.Background(), items("hot"))
		}(w)
	}
	// Every late submitter must attach to the scoring flight, not queue
	// a duplicate; the coalesce counter records each attach.
	for d.m.coalesced.Value()-coalescedBefore < waiters {
		time.Sleep(time.Millisecond)
	}
	if depth := d.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth = %d, want 0 (everything coalesced)", depth)
	}
	close(stub.release)
	wg.Wait()
	for w := 0; w <= waiters; w++ {
		if errs[w] != nil {
			t.Fatalf("waiter %d: %v", w, errs[w])
		}
		checkResult(t, results[w], "hot")
	}
	if got := stub.timesScored("hot"); got != 1 {
		t.Errorf("item scored %d times for %d waiters, want 1", got, waiters+1)
	}
}

func TestDuplicateIDsWithinRequest(t *testing.T) {
	stub := &stubScorer{}
	d := New(stub, Options{MaxBatch: 100, MaxWait: time.Millisecond})
	defer d.Close()
	res, err := d.Submit(context.Background(), items("x", "y", "x"))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "x", "y", "x")
	if got := stub.timesScored("x"); got != 1 {
		t.Errorf("duplicate-in-request item scored %d times, want 1", got)
	}
}

func TestShedQueueFull(t *testing.T) {
	// The scorer is busy and neither the size nor the time trigger is
	// reachable, so the queue stays exactly as filled.
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: time.Hour, MaxQueue: 2, Tenant: t.Name()})
	defer d.Close()
	before := countsOf(d)
	_, release := holdScorer(t, d)
	waitQueued := submitAsync(t, d, "a", "b")
	awaitQueued(d, 2)

	// A new item does not fit.
	if _, err := d.Submit(context.Background(), items("c")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// Mixed requests shed atomically: nothing is enqueued, even though
	// "a" would have coalesced.
	if _, err := d.Submit(context.Background(), items("a", "c")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("mixed err = %v, want ErrQueueFull", err)
	}
	if depth := d.QueueDepth(); depth != 2 {
		t.Fatalf("queue depth after sheds = %d, want 2 (shed must not enqueue)", depth)
	}
	// A pure-coalesce request occupies no new slot and is admitted.
	waitDup := submitAsync(t, d, "a")
	for countsOf(d).since(before).coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	if got := d.InFlight(); got != 3 { // still just the gate, a and b
		t.Fatalf("inflight = %d after coalesced admit, want 3", got)
	}

	// The held batch finishing flushes the queue, releasing every
	// admitted waiter.
	release()
	waitQueued()
	waitDup()
	if !IsShed(ErrQueueFull) {
		t.Error("IsShed(ErrQueueFull) = false")
	}
}

func TestShedHopelessDeadline(t *testing.T) {
	stub := &stubScorer{}
	d := New(stub, Options{MaxBatch: 100, MaxWait: 250 * time.Millisecond})
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := d.Submit(ctx, items("a"))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("shed took %v; must reject immediately, not wait out the deadline", elapsed)
	}
	if got := stub.callCount(); got != 0 {
		t.Errorf("scorer called %d times for a shed request", got)
	}
	if !IsShed(err) {
		t.Error("IsShed(ErrDeadline) = false")
	}
}

func TestGenerousDeadlineAdmitted(t *testing.T) {
	stub := &stubScorer{}
	d := New(stub, Options{MaxBatch: 100, MaxWait: 5 * time.Millisecond})
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := d.Submit(ctx, items("a"))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "a")
}

func TestBypassLargeRequest(t *testing.T) {
	stub := &stubScorer{}
	d := New(stub, Options{MaxBatch: 4, MaxWait: time.Hour})
	defer d.Close()
	// At MaxBatch the request is its own batch: scored synchronously,
	// no queue involvement, despite the unreachable wait timer.
	res, err := d.Submit(context.Background(), items("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "a", "b", "c", "d")
	if got := stub.callCount(); got != 1 {
		t.Errorf("scorer calls = %d, want 1", got)
	}
	if depth := d.QueueDepth(); depth != 0 {
		t.Errorf("queue depth = %d after bypass, want 0", depth)
	}
}

func TestBatchErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	stub := &stubScorer{err: boom}
	d := New(stub, Options{MaxBatch: 100, MaxWait: time.Millisecond})
	defer d.Close()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = d.Submit(context.Background(), items(fmt.Sprintf("e%d", w)))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("waiter %d err = %v, want boom", w, err)
		}
	}
	if d.InFlight() != 0 {
		t.Errorf("inflight = %d after errored batch, want 0", d.InFlight())
	}
}

func TestWaiterCancellationReleasesOnlyTheWaiter(t *testing.T) {
	stub := &stubScorer{started: make(chan struct{}), release: make(chan struct{})}
	d := New(stub, Options{MaxBatch: 100, MaxWait: time.Millisecond})
	defer d.Close()

	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, err := d.Submit(ctx, items("a"))
		canceled <- err
	}()
	<-stub.started
	// A second waiter coalesces onto the in-flight item.
	coalescedBefore := d.m.coalesced.Value()
	var wg sync.WaitGroup
	wg.Add(1)
	var res Result
	var err2 error
	go func() {
		defer wg.Done()
		res, err2 = d.Submit(context.Background(), items("a"))
	}()
	for d.m.coalesced.Value() == coalescedBefore {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-canceled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not return while its batch was blocked")
	}
	// The flight itself survives the canceled waiter and still serves
	// the other one.
	close(stub.release)
	wg.Wait()
	if err2 != nil {
		t.Fatal(err2)
	}
	checkResult(t, res, "a")
	if got := stub.timesScored("a"); got != 1 {
		t.Errorf("item scored %d times, want 1", got)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	d := New(&stubScorer{}, Options{})
	d.Close()
	if _, err := d.Submit(context.Background(), items("a")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if !IsShed(ErrClosed) {
		t.Error("IsShed(ErrClosed) = false")
	}
	d.Close() // idempotent
}

func TestEmptySubmit(t *testing.T) {
	stub := &stubScorer{}
	d := New(stub, Options{})
	defer d.Close()
	res, err := d.Submit(context.Background(), nil)
	if err != nil || len(res.Detections) != 0 {
		t.Fatalf("empty submit: res=%+v err=%v", res, err)
	}
	if stub.callCount() != 0 {
		t.Error("scorer called for an empty submit")
	}
}

// BenchmarkSubmitLone is the unloaded floor: one caller, one item, an
// idle dispatcher with default options and a scorer that costs nothing,
// so ns/op is what the dispatcher itself adds to a lone request. The
// process is declared idle before every Submit: back to back they would
// be traffic, and collect for MaxWait each.
func BenchmarkSubmitLone(b *testing.B) {
	d := New(volumeScorer{}, Options{})
	defer d.Close()
	one := items("a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idleProcess()
		if _, err := d.Submit(context.Background(), one); err != nil {
			b.Fatal(err)
		}
	}
}
