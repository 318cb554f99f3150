package dispatch

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
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
	panics  int // the first this-many calls panic
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
	err, panics := s.err, s.calls <= s.panics
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
	if panics {
		panic("scorer blew up")
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

// seq returns n distinct IDs: prefix-0, prefix-1, ….
func seq(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return ids
}

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

// holdScorer makes the dispatcher busy: it submits one item ("gate")
// to the idle dispatcher, whose batch blocks inside the scorer, so every
// later Submit finds a batch running and queues behind it. The gate
// holds one MaxQueue slot until it is released. The returned release
// opens the gate and waits for the gate's own Submit to return.
//
// The gate is also opened by a t.Cleanup, so a test that fails with it
// shut does not hang in Close: such tests close the dispatcher with
// t.Cleanup(d.Close) registered before this call, never with defer,
// as cleanups run last-registered first and after every defer.
func holdScorer(t *testing.T, d *Dispatcher) (stub *stubScorer, release func()) {
	t.Helper()
	stub = d.scorer.(*stubScorer)
	stub.started, stub.release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(stub.release) }) }
	t.Cleanup(open)
	done := make(chan error, 1)
	go func() {
		_, err := d.Submit(context.Background(), items("gate"))
		done <- err
	}()
	select {
	case <-stub.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the gate was not dispatched within 10s: it waited for the MaxWait timer")
	}
	return stub, func() {
		t.Helper()
		open()
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

// awaitQueued blocks until n items are queued and not yet dispatched,
// failing the test if that takes over 10s.
func awaitQueued(t *testing.T, d *Dispatcher, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.QueueDepth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d after 10s, want %d", d.QueueDepth(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// rejected submits ids on a dispatcher that is expected to refuse them
// at once, and returns the error. A Submit still waiting after 10s was
// admitted instead: the test fails rather than hang on a held scorer.
func rejected(t *testing.T, d *Dispatcher, ids ...string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := d.Submit(context.Background(), items(ids...))
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("submit %v was admitted, want it refused", ids)
		return nil
	}
}

// submitWithin submits each request in turn on its own goroutine and
// checks every result, failing the test unless all are answered within
// a generous bound: a Submit that waits for a timer of an hour fails the
// test instead of hanging the package. The goroutine reports only
// through the channel, so a Submit the test has given up on may end
// later.
func submitWithin(t *testing.T, d *Dispatcher, requests ...[]string) {
	t.Helper()
	results := make([]Result, len(requests))
	done := make(chan error, 1)
	go func() {
		for i, ids := range requests {
			var err error
			if results[i], err = d.Submit(context.Background(), items(ids...)); err != nil {
				done <- fmt.Errorf("submit %v: %w", ids, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a Submit was not answered within 10s: it waited for the MaxWait timer")
	}
	for i, ids := range requests {
		checkResult(t, results[i], ids...)
	}
}

func TestIdleSubmitDoesNotWait(t *testing.T) {
	stub := &stubScorer{}
	// MaxWait is an hour: the test completing at all proves a Submit to
	// an idle dispatcher does not wait for it.
	d := New(stub, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name()})
	defer d.Close()
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

// TestBackToBackSubmitsDoNotWait: a client that sends its next request
// the moment the last is answered finds nothing scoring — the batch that
// answered it retired before its waiters were woken — so every request
// dispatches at once. MaxWait is an hour: a single timer flush would
// stall the loop.
func TestBackToBackSubmitsDoNotWait(t *testing.T) {
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name()})
	defer d.Close()
	requests := make([][]string, 50)
	for i := range requests {
		requests[i] = []string{fmt.Sprintf("b2b-%d", i)}
	}
	before := countsOf(d)
	submitWithin(t, d, requests...)
	if got, want := countsOf(d).since(before), (serveCounts{idle: 50}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}

// TestOtherDispatcherDoesNotDelay: idle is a fact about one tenant's
// dispatcher. Another dispatcher's batch held inside its scorer does not
// make this one collect.
func TestOtherDispatcherDoesNotDelay(t *testing.T) {
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name()})
	d2 := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name() + "/other"})
	t.Cleanup(d.Close)
	t.Cleanup(d2.Close)
	_, release := holdScorer(t, d2)
	defer release()
	before := countsOf(d)
	submitWithin(t, d, []string{"a"})
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}

func TestBusyQueueFlushesOnCompletion(t *testing.T) {
	// The scorer is busy and neither the size nor the time trigger is
	// reachable: only the running batch finishing can flush the queue.
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name()})
	t.Cleanup(d.Close)
	before := countsOf(d)
	stub, release := holdScorer(t, d)

	// Six submits over four distinct IDs: the duplicates coalesce onto
	// the queued flights.
	var waits []func()
	for _, ids := range [][]string{{"a"}, {"b", "c"}, {"d"}} {
		waits = append(waits, submitAsync(t, d, ids...))
	}
	awaitQueued(t, d, 4)
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
	t.Cleanup(d.Close)
	before := countsOf(d)
	stub, release := holdScorer(t, d)
	defer release()

	wait1 := submitAsync(t, d, "a", "b", "c")
	awaitQueued(t, d, 3)
	wait2 := submitAsync(t, d, "d")
	wait1()
	wait2()
	if got := stub.callCount(); got != 2 {
		t.Errorf("scorer calls = %d, want 2: the held batch and 1 fused batch", got)
	}

	// A request of more than MaxBatch items is queued like any other and
	// flushed at once, cut into MaxBatch chunks: 10 items score as 4, 4, 2.
	submitWithin(t, d, seq("big", 10))
	if got := stub.callCount(); got != 5 {
		t.Fatalf("scorer calls = %d, want 5: 3 more for the 10-item request", got)
	}
	sizes := map[int]int{}
	for i := 2; i < 5; i++ {
		sizes[len(stub.batch(i))]++
	}
	if sizes[4] != 2 || sizes[2] != 1 {
		t.Errorf("the 10-item request scored as batches %v, want 4, 4 and 2", [][]string{stub.batch(2), stub.batch(3), stub.batch(4)})
	}
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1, size: 2}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}

func TestMaxWaitCapsQueueWhileBusy(t *testing.T) {
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: 10 * time.Millisecond, Tenant: t.Name()})
	t.Cleanup(d.Close)
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
	t.Cleanup(d.Close)
	before := countsOf(d)
	stub, release := holdScorer(t, d)

	waitA := submitAsync(t, d, "a")
	awaitQueued(t, d, 1)
	waitB := submitAsync(t, d, "b") // completes the batch: size flush
	for countsOf(d).since(before).size < 1 {
		time.Sleep(time.Millisecond)
	}
	waitC := submitAsync(t, d, "c")
	awaitQueued(t, d, 1)
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
	d := New(stub, Options{MaxBatch: 4, MaxWait: time.Millisecond})
	defer d.Close()
	res, err := d.Submit(context.Background(), items("x", "y", "x"))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "x", "y", "x")
	if got := stub.timesScored("x"); got != 1 {
		t.Errorf("duplicate-in-request item scored %d times, want 1", got)
	}
	// A request of more than MaxBatch copies of one ID is one new item.
	ten := make([]string, 10)
	for i := range ten {
		ten[i] = "z"
	}
	if res, err = d.Submit(context.Background(), items(ten...)); err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, ten...)
	if got := stub.timesScored("z"); got != 1 {
		t.Errorf("ten copies of one ID analysed %d times, want 1", got)
	}
}

func TestShedQueueFull(t *testing.T) {
	// The scorer is busy and neither the size nor the time trigger is
	// reachable, so the queue stays exactly as filled. The gate holds
	// one of the three slots, a and b the other two.
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: time.Hour, MaxQueue: 3, Tenant: t.Name()})
	t.Cleanup(d.Close)
	before := countsOf(d)
	_, release := holdScorer(t, d)
	waitQueued := submitAsync(t, d, "a", "b")
	awaitQueued(t, d, 2)

	// A new item does not fit.
	if err := rejected(t, d, "c"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// Mixed requests shed atomically: nothing is enqueued, even though
	// "a" would have coalesced.
	if err := rejected(t, d, "a", "c"); !errors.Is(err, ErrQueueFull) {
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

// TestShedChargesEachNewIDOnce: a request's copies of one new ID
// coalesce onto one flight, so they take one queue slot between them,
// and ID-less items one each. A busy dispatcher with room for one item
// (the gate holds the other) admits ["a","a"] and still sheds two
// ID-less items, enqueueing nothing for them.
func TestShedChargesEachNewIDOnce(t *testing.T) {
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: time.Hour, MaxQueue: 2, Tenant: t.Name()})
	t.Cleanup(d.Close)
	_, release := holdScorer(t, d)
	if err := rejected(t, d, "", ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("two ID-less items: err = %v, want ErrQueueFull", err)
	}
	if depth := d.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth after the shed = %d, want 0", depth)
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.Submit(context.Background(), items("a", "a"))
		done <- err
	}()
	for d.QueueDepth() == 0 {
		select {
		case err := <-done:
			t.Fatalf(`["a","a"] with one free slot: err = %v, want it queued`, err)
		case <-time.After(time.Millisecond):
		}
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMaxQueueBoundsHeldItems: MaxQueue counts every item the tenant
// holds, queued or scoring. With one batch allowed to score at a time
// and the gate held, a size-flushed batch parked on the quota still
// holds its slots, so MaxQueue−1 new items fill the budget beside the
// gate, the next new item is shed, and a repeat of an admitted ID rides
// free. Once everything is answered the budget is whole again; a request
// larger than all of it is ErrTooLarge, which is no shed.
func TestMaxQueueBoundsHeldItems(t *testing.T) {
	const maxQueue = 4
	d := New(&stubScorer{}, Options{MaxBatch: 2, MaxWait: time.Hour, MaxQueue: maxQueue, MaxConcurrentBatches: 1, Tenant: t.Name()})
	t.Cleanup(d.Close)
	before := countsOf(d)
	_, release := holdScorer(t, d)
	waitAB := submitAsync(t, d, "a", "b") // a full batch: size-flushed, parked on the quota
	for countsOf(d).since(before).size < 1 {
		time.Sleep(time.Millisecond)
	}
	waitC := submitAsync(t, d, "c")
	awaitQueued(t, d, 1)
	if got := d.m.queueDepth.Value(); got != maxQueue {
		t.Fatalf("cats_serve_queue_depth = %d, want %d: the gate, a, b and c", got, maxQueue)
	}
	if err := rejected(t, d, "d"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("a new item beside %d held: err = %v, want ErrQueueFull", maxQueue, err)
	}
	waitDup := submitAsync(t, d, "a")
	for countsOf(d).since(before).coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	if got := d.m.queueDepth.Value(); got != maxQueue {
		t.Errorf("cats_serve_queue_depth = %d after the coalesced admit, want %d", got, maxQueue)
	}
	release()
	waitAB()
	waitC()
	waitDup()

	submitWithin(t, d, seq("fits", maxQueue))
	if err := rejected(t, d, seq("never", maxQueue+1)...); !errors.Is(err, ErrTooLarge) || IsShed(err) {
		t.Fatalf("%d new items against MaxQueue %d: err = %v (shed %v), want ErrTooLarge, not a shed", maxQueue+1, maxQueue, err, IsShed(err))
	}
	if got := d.m.queueDepth.Value(); got != 0 {
		t.Errorf("cats_serve_queue_depth = %d with nothing held, want 0", got)
	}
}

// TestShedHopelessDeadline: a request that would queue behind a running
// batch with a deadline shorter than MaxWait is shed at once, unscored.
func TestShedHopelessDeadline(t *testing.T) {
	d := New(&stubScorer{}, Options{MaxBatch: 100, MaxWait: 250 * time.Millisecond, Tenant: t.Name()})
	t.Cleanup(d.Close)
	stub, release := holdScorer(t, d)
	defer release()
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
	if got := stub.callCount(); got != 1 {
		t.Errorf("scorer called %d times, want 1 (the gate's own): a shed request is not scored", got)
	}
	if depth := d.QueueDepth(); depth != 0 {
		t.Errorf("queue depth = %d after the shed, want 0", depth)
	}
	if !IsShed(err) {
		t.Error("IsShed(ErrDeadline) = false")
	}
}

// TestShortDeadlineServedWhenIdle: a deadline shorter than MaxWait is
// no reason to shed a request that dispatches at once — nothing is
// running, so it never waits MaxWait.
func TestShortDeadlineServedWhenIdle(t *testing.T) {
	stub := &stubScorer{}
	d := New(stub, Options{MaxBatch: 100, MaxWait: time.Hour, Tenant: t.Name()})
	defer d.Close()
	before, shedBefore := countsOf(d), d.m.shedDeadline.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := d.Submit(ctx, items("a"))
	if err != nil {
		t.Fatalf("err = %v, want a verdict: an idle dispatcher answers in scoring time", err)
	}
	checkResult(t, res, "a")
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
	if n := d.m.shedDeadline.Value() - shedBefore; n != 0 {
		t.Errorf("deadline sheds = %d, want 0", n)
	}
}

// TestShortDeadlineServedBySizeFlush: a request that brings the queue
// to MaxBatch is dispatched at once by the size flush, so on a busy
// tenant too a deadline shorter than MaxWait is no reason to shed it —
// whether it completes a batch others started or is MaxBatch items or
// more by itself. The deadline is far under MaxWait (an hour) and far
// over what scoring takes.
func TestShortDeadlineServedBySizeFlush(t *testing.T) {
	d := New(&stubScorer{}, Options{MaxBatch: 4, MaxWait: time.Hour, Tenant: t.Name()})
	t.Cleanup(d.Close)
	before, shedBefore := countsOf(d), d.m.shedDeadline.Value()
	_, release := holdScorer(t, d)
	defer release()
	waitAB := submitAsync(t, d, "a", "b")
	awaitQueued(t, d, 2)
	for _, ids := range [][]string{{"c", "d"}, seq("big", 6)} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := d.Submit(ctx, items(ids...))
		cancel()
		if err != nil {
			t.Fatalf("%d items with a deadline under MaxWait on a busy tenant: err = %v, want the size flush to serve them", len(ids), err)
		}
		checkResult(t, res, ids...)
	}
	waitAB()
	if got, want := countsOf(d).since(before), (serveCounts{idle: 1, size: 2}); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
	if n := d.m.shedDeadline.Value() - shedBefore; n != 0 {
		t.Errorf("deadline sheds = %d, want 0", n)
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

// TestScorerPanicFailsOnlyItsBatch: a panic inside the scorer reaches
// each waiter of that batch as an error naming it. The batch's IDs
// retire, the work queued behind it is dispatched when it ends, the next
// Submit is served, and the process lives on. A request of more than
// MaxBatch items, one of whose chunks panics, fails the same way.
func TestScorerPanicFailsOnlyItsBatch(t *testing.T) {
	stub := &stubScorer{panics: 1, started: make(chan struct{}), release: make(chan struct{})}
	d := New(stub, Options{MaxBatch: 4, MaxWait: time.Hour})
	defer d.Close()
	errs := make(chan error, 2)
	submit := func() {
		_, err := d.Submit(context.Background(), items("p"))
		errs <- err
	}
	go submit() // an idle dispatcher: dispatched at once, held open, then panics
	<-stub.started
	coalescedBefore := d.m.coalesced.Value()
	go submit() // a second waiter on the same flight
	for d.m.coalesced.Value() == coalescedBefore {
		time.Sleep(time.Millisecond)
	}
	waitBehind := submitAsync(t, d, "q")
	awaitQueued(t, d, 1)

	close(stub.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "scorer blew up") {
			t.Errorf("waiter on the panicked batch: err = %v, want the panic named", err)
		}
	}
	waitBehind() // dispatched by the drain flush when the panicked batch ended
	if got := d.InFlight(); got != 0 {
		t.Errorf("inflight = %d after a panicked batch, want 0", got)
	}
	res, err := d.Submit(context.Background(), items("p"))
	if err != nil {
		t.Fatalf("submit after the panic: %v", err)
	}
	checkResult(t, res, "p")

	stub.mu.Lock()
	stub.panics = stub.calls + 1 // the next scorer call panics
	stub.mu.Unlock()
	big := seq("big", 10)
	if _, err := d.Submit(context.Background(), items(big...)); err == nil || !strings.Contains(err.Error(), "scorer blew up") {
		t.Errorf("10-item request with a panicking chunk: err = %v, want the panic named", err)
	}
	submitWithin(t, d, big)
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

// BenchmarkSubmitLone is the unloaded floor: one caller, one item at a
// time, back to back, on a dispatcher with default options and a scorer
// that costs nothing, so ns/op is what the dispatcher itself adds to a
// request that finds nothing scoring.
func BenchmarkSubmitLone(b *testing.B) {
	d := New(volumeScorer{}, Options{})
	defer d.Close()
	one := items("a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Submit(context.Background(), one); err != nil {
			b.Fatal(err)
		}
	}
}
