// Package dispatch is the serving layer's batching dispatcher and
// admission controller — the piece that turns many small concurrent
// detect requests into a few large fused scoreBatch calls without
// letting overload degrade into unbounded latency.
//
// The paper's deployment setting (72.3M comments across 1.48M items,
// §V) is traffic-shaped: most requests carry a handful of items, many
// of them the same trending items over and over. Per-request scoring
// wastes that structure twice — every call pays its own batch overhead,
// and identical in-flight items are re-analyzed for every waiter. The
// dispatcher fixes both:
//
//   - Submitted items enqueue onto a bounded queue. A Submit that finds
//     none of this dispatcher's batches running flushes at once: there
//     is nothing to coalesce with, so waiting would only leave the CPU
//     idle. Otherwise the queue collects behind the running batch, and
//     flushes when the last running batch finishes (what queued during
//     one batch is the next), when MaxBatch items are waiting, or when
//     MaxWait has elapsed since the queue went non-empty, whichever
//     comes first. Each flush scores the whole queue through one fused
//     Scorer call per MaxBatch chunk.
//   - A singleflight map keyed by item ID deduplicates identical
//     in-flight items: later submissions attach to the existing flight
//     and share its verdict instead of re-running analysis.
//   - Admission control sheds doomed work up front: a request whose new
//     items do not fit the queue, or that would queue behind a running
//     batch with a context deadline closer than MaxWait, fails
//     immediately with ErrQueueFull or ErrDeadline (the service maps
//     both to 503 + Retry-After) rather than queuing work nobody will
//     wait for.
//
// Requests already at or above MaxBatch bypass the queue entirely —
// they are a full batch by construction, and coalescing could only
// delay them.
//
// Every waiter gets exactly one outcome: its results, a shed error, or
// its own context error. Batches never touch waiter-owned memory; they
// write into the shared flight records and close the flight's done
// channel, so a waiter that gives up early (context canceled) simply
// stops listening while the flight completes for everyone else. A panic
// in scoring, queued or bypassed, fails that batch's waiters, not the
// process.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ecom"
	"repro/internal/obs"
)

// Scorer is the fused batch-detection surface the dispatcher drives;
// *core.Detector implements it.
type Scorer interface {
	DetectWithFeatures(ctx context.Context, items []ecom.Item, workers int) ([]core.Detection, [][]float64, error)
}

// Options tunes the dispatcher.
type Options struct {
	// MaxBatch flushes the queue once this many items are waiting, and
	// is the chunk size of dispatched batches; <= 0 means 256.
	MaxBatch int
	// MaxWait caps how long an item queued behind a running batch waits
	// before the queue is flushed anyway. An item submitted while none of
	// this dispatcher's batches is running never waits. <= 0 means 2ms.
	MaxWait time.Duration
	// MaxQueue bounds items enqueued and not yet dispatched. A request
	// whose new (non-coalesced) items do not fit is shed with
	// ErrQueueFull; <= 0 means 4096.
	MaxQueue int
	// RetryAfter is the back-pressure hint shed requests should relay
	// to clients (the service turns it into a Retry-After header);
	// <= 0 means 1s.
	RetryAfter time.Duration
	// Tenant labels this dispatcher's cats_serve_* metrics. Empty means
	// "default". Each tenant of the model registry runs its own
	// dispatcher, so the label separates the tenants' serving signals.
	Tenant string
	// MaxConcurrentBatches caps the scoring batches this dispatcher may
	// run at once — the per-tenant admission quota that keeps one hot
	// tenant from monopolizing every core while other tenants' batches
	// wait. Queued batches beyond the cap dispatch as running ones
	// finish. <= 0 means unlimited.
	MaxConcurrentBatches int
}

// defaultTenant mirrors core.DefaultTenant without importing it into
// the metric path.
const defaultTenant = "default"

func (o Options) withDefaults() Options {
	if o.Tenant == "" {
		o.Tenant = defaultTenant
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4096
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Shed and lifecycle errors.
var (
	// ErrQueueFull sheds a request whose new items exceed the queue's
	// free depth.
	ErrQueueFull = errors.New("dispatch: queue full")
	// ErrDeadline sheds a request that would queue behind a running
	// batch with a context deadline closer than MaxWait — it could
	// expire before its batch even started.
	ErrDeadline = errors.New("dispatch: deadline too close to survive batching")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("dispatch: dispatcher closed")
)

// IsShed reports whether err is an admission-control rejection — the
// outcomes a serving layer should answer with 503 + Retry-After.
func IsShed(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDeadline) || errors.Is(err, ErrClosed)
}

// Result is one request's detections in submission order, plus the
// feature vectors computed while scoring (nil rows for items the sales
// cutoff dropped before extraction). Coalesced items share vector
// slices with every other waiter on the same flight; callers must treat
// rows as read-only.
type Result struct {
	Detections []core.Detection
	Features   [][]float64
}

// flight is one unique in-flight item: the unit the singleflight map
// deduplicates and a batch scores. The batch goroutine writes det, vec,
// and err exactly once, then closes done; waiters read them only after
// done, so the channel close is the only synchronization needed.
type flight struct {
	item     ecom.Item
	enqueued time.Time
	done     chan struct{}
	det      core.Detection
	vec      []float64
	err      error
}

// Dispatcher coalesces concurrent Submit calls into fused Scorer
// batches. It is safe for concurrent use.
type Dispatcher struct {
	opts   Options
	scorer Scorer
	m      *serveMetrics
	sem    chan struct{} // nil = no batch-concurrency quota

	mu       sync.Mutex
	closed   bool
	queue    []*flight          // awaiting dispatch, FIFO
	inflight map[string]*flight // non-empty item ID → queued-or-scoring flight
	running  int                // batches dispatched and not yet finished
	timer    *time.Timer        // armed while the queue collects
	wg       sync.WaitGroup     // outstanding batch goroutines
}

// New returns a Dispatcher scoring through the given Scorer.
func New(s Scorer, opts Options) *Dispatcher {
	opts = opts.withDefaults()
	d := &Dispatcher{
		opts:     opts,
		scorer:   s,
		m:        serveByTenant.For(opts.Tenant),
		inflight: map[string]*flight{},
	}
	if opts.MaxConcurrentBatches > 0 {
		d.sem = make(chan struct{}, opts.MaxConcurrentBatches)
	}
	return d
}

// Options returns the dispatcher's resolved options.
func (d *Dispatcher) Options() Options { return d.opts }

// QueueDepth reports items enqueued and not yet dispatched.
func (d *Dispatcher) QueueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queue)
}

// InFlight reports unique items queued or currently scoring.
func (d *Dispatcher) InFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.inflight)
}

// Submit enqueues the request's items for batched scoring and blocks
// until every one has a verdict, the request is shed, or ctx ends.
// Exactly one outcome is returned: the Result (detections in item
// order), a shed error (ErrQueueFull, ErrDeadline, ErrClosed — see
// IsShed), ctx's error, or a scoring error.
//
// Identical item IDs — within the request or across concurrent
// requests — are scored once and fan the shared verdict out to every
// waiter; the dispatcher assumes an ID identifies one item's content,
// which is what platform item IDs mean. An empty ID identifies nothing:
// such items are always scored on their own.
func (d *Dispatcher) Submit(ctx context.Context, items []ecom.Item) (Result, error) {
	if len(items) == 0 {
		return Result{}, nil
	}
	// Oversize requests are already a full batch: score directly, no
	// queue wait, no coalescing delay.
	if len(items) >= d.opts.MaxBatch {
		return d.bypass(ctx, items)
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.m.shedClosed.Inc()
		return Result{}, ErrClosed
	}
	// Only a request that queues behind a running batch can wait
	// MaxWait; one that dispatches at once is answered in scoring time.
	now := time.Now()
	if dl, ok := ctx.Deadline(); ok && d.running > 0 && dl.Sub(now) < d.opts.MaxWait {
		d.mu.Unlock()
		d.m.shedDeadline.Inc()
		return Result{}, ErrDeadline
	}
	// Enqueue, then admit: each distinct new ID and each ID-less item
	// takes one queue slot, while a repeat (of an in-flight ID or of one
	// earlier in this request) rides along for free. A request whose new
	// items do not fit takes back all it queued before anyone sees it.
	flights := make([]*flight, len(items))
	queued := len(d.queue)
	for i := range items {
		if f := d.inflightFor(items[i].ID); f != nil {
			flights[i] = f
			continue
		}
		f := &flight{item: items[i], enqueued: now, done: make(chan struct{})}
		if f.item.ID != "" {
			d.inflight[f.item.ID] = f
		}
		d.queue = append(d.queue, f)
		flights[i] = f
	}
	if len(d.queue) > d.opts.MaxQueue {
		for _, f := range d.queue[queued:] {
			delete(d.inflight, f.item.ID)
		}
		clear(d.queue[queued:])
		d.queue = d.queue[:queued]
		d.mu.Unlock()
		d.m.shedQueueFull.Inc()
		return Result{}, ErrQueueFull
	}
	d.m.coalesced.Add(uint64(len(items) - (len(d.queue) - queued)))
	d.m.queueDepth.Set(int64(len(d.queue)))
	switch {
	case len(d.queue) >= d.opts.MaxBatch:
		d.flushLocked(d.m.flushSize)
	case d.running == 0:
		// Nothing of this dispatcher's is scoring, so nothing is about
		// to retire and take this queue with it: dispatch now.
		d.flushLocked(d.m.flushIdle)
	case len(d.queue) > 0 && d.timer == nil:
		d.armTimerLocked()
	}
	d.mu.Unlock()

	return wait(ctx, items, flights)
}

// inflightFor returns the queued-or-scoring flight an item ID may
// attach to. An empty ID never has one: items without an ID are distinct
// items, not copies of each other. Callers hold d.mu.
func (d *Dispatcher) inflightFor(id string) *flight {
	if id == "" {
		return nil
	}
	return d.inflight[id]
}

// wait blocks on each distinct flight and assembles the request's
// Result in item order.
func wait(ctx context.Context, items []ecom.Item, flights []*flight) (Result, error) {
	for _, f := range flights {
		select {
		case <-f.done:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	res := Result{
		Detections: make([]core.Detection, len(items)),
		Features:   make([][]float64, len(items)),
	}
	for i, f := range flights {
		if f.err != nil {
			return Result{}, f.err
		}
		res.Detections[i] = f.det
		res.Features[i] = f.vec
	}
	return res, nil
}

// bypass scores an already-batch-sized request directly on the caller's
// goroutine and context.
func (d *Dispatcher) bypass(ctx context.Context, items []ecom.Item) (Result, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.m.shedClosed.Inc()
		return Result{}, ErrClosed
	}
	d.mu.Unlock()
	// Bypassed requests are scoring batches too: they wait on the same
	// per-tenant quota, but on the caller's context, so an abandoned
	// request stops waiting for a slot.
	if d.sem != nil {
		select {
		case d.sem <- struct{}{}:
			defer func() { <-d.sem }()
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	d.m.bypass.Inc()
	d.m.batches.Inc()
	d.m.batchSize.Observe(float64(len(items)))
	dets, X, err := d.score(ctx, items)
	if err != nil {
		return Result{}, err
	}
	return Result{Detections: dets, Features: X}, nil
}

// armTimerLocked starts the MaxWait cap on a queue that went non-empty
// and was left to collect. Callers hold d.mu.
func (d *Dispatcher) armTimerLocked() {
	var t *time.Timer
	t = time.AfterFunc(d.opts.MaxWait, func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		// A flush that raced this firing already took the queue this
		// timer was capping (and may have armed a successor).
		if d.timer == t {
			d.flushLocked(d.m.flushTimer)
		}
	})
	d.timer = t
}

// flushLocked dispatches the entire queue as MaxBatch-sized chunks,
// each scored by its own goroutine, and counts the flush under the rule
// that fired it. Callers hold d.mu.
func (d *Dispatcher) flushLocked(reason *obs.Counter) {
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	if len(d.queue) == 0 {
		return
	}
	reason.Inc()
	for len(d.queue) > 0 {
		n := d.opts.MaxBatch
		if n > len(d.queue) {
			n = len(d.queue)
		}
		batch := make([]*flight, n)
		copy(batch, d.queue[:n])
		d.queue = d.queue[n:]
		d.running++
		d.wg.Add(1)
		go d.runBatch(batch)
	}
	d.queue = nil
	d.m.queueDepth.Set(0)
}

// runBatch scores one dispatched chunk and fans results out to the
// flights. The batch runs on its own context: it serves every waiter
// coalesced onto it, so no single request's cancellation may abort it.
func (d *Dispatcher) runBatch(batch []*flight) {
	defer d.wg.Done()
	// Per-tenant concurrency quota: a tenant over its batch budget
	// queues here, on its own goroutines, leaving the scoring cores to
	// the tenants under budget.
	if d.sem != nil {
		d.sem <- struct{}{}
		defer func() { <-d.sem }()
	}
	items := make([]ecom.Item, len(batch))
	now := time.Now()
	for i, f := range batch {
		items[i] = f.item
		d.m.wait.Observe(now.Sub(f.enqueued).Seconds())
	}
	d.m.batches.Inc()
	d.m.batchSize.Observe(float64(len(items)))
	dets, X, err := d.score(context.Background(), items)

	// Retire the IDs first so new submissions start fresh flights, then
	// publish results; the close is the happens-before edge waiters read
	// det/vec/err across. The last running batch to retire hands the
	// scorer straight to whatever queued behind it.
	d.mu.Lock()
	for _, f := range batch {
		if f.item.ID != "" {
			delete(d.inflight, f.item.ID)
		}
	}
	if d.running--; d.running == 0 {
		d.flushLocked(d.m.flushDrain)
	}
	d.mu.Unlock()
	for i, f := range batch {
		if err != nil {
			f.err = err
		} else {
			f.det = dets[i]
			f.vec = X[i]
		}
		close(f.done)
	}
}

// score is the dispatcher's one scorer call, for a queued batch and a
// bypass alike. A panic in scoring becomes the batch's error: its
// waiters each get a failure naming the panic, and the dispatcher goes
// on serving.
func (d *Dispatcher) score(ctx context.Context, items []ecom.Item) (dets []core.Detection, X [][]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("dispatch: scoring panicked: %v", p)
		}
	}()
	return d.scorer.DetectWithFeatures(ctx, items, 0)
}

// Close flushes the queue, rejects further submissions with ErrClosed,
// and blocks until every dispatched batch has fanned out. Safe to call
// more than once. A dispatcher need not be closed: with nothing queued
// it owns no goroutine, so the model registry leaves a swapped-out
// handle's dispatcher to the garbage collector.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		d.flushLocked(d.m.flushClose)
	}
	d.mu.Unlock()
	d.wg.Wait()
}
