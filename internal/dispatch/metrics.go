package dispatch

import "repro/internal/obs"

// Dispatcher instrumentation (DESIGN.md §11, §12). Every cats_serve_*
// family carries a trailing tenant label: each tenant runs its own
// dispatcher (internal/registry), so queue depth, shedding, and
// coalescing are per-tenant signals — exactly the view an operator
// needs to see one hot tenant saturating its own quota without
// starving the rest. Handles are resolved once per tenant and cached;
// every update on the request path is a lock-free atomic. The four
// headline signals an operator tunes the batcher by: queue depth
// (admission headroom), batch-size distribution (is coalescing actually
// happening), shed counts by reason (how overload degrades), and
// coalesce hits (how much work the singleflight map is saving).
var (
	vQueueDepth = obs.Default.GaugeVec("cats_serve_queue_depth",
		"Items the tenant holds: admitted and not yet answered, queued or "+
			"scoring; MaxQueue (catsserve -queue-depth) bounds it.", "tenant")

	vBatches = obs.Default.CounterVec("cats_serve_batches_total",
		"Fused scoring batches dispatched by the serving batcher.", "tenant")
	vBatchSize = obs.Default.HistogramVec("cats_serve_batch_size",
		"Items per dispatched serving batch.",
		obs.SizeBuckets, "tenant")

	vShed = obs.Default.CounterVec("cats_serve_shed_total",
		"Requests shed by admission control instead of being queued, by "+
			"reason: queue_full (the request's new items do not fit beside "+
			"the items the tenant already holds), deadline (the request would queue behind a running batch "+
			"with a context deadline closer than max wait), closed (dispatcher "+
			"shutting down).", "reason", "tenant")

	vCoalesced = obs.Default.CounterVec("cats_serve_coalesced_total",
		"Submitted items that attached to an identical in-flight item via "+
			"the singleflight map instead of being analyzed again.", "tenant")

	vFlushes = obs.Default.CounterVec("cats_serve_flushes_total",
		"Queue flushes by the rule that fired: size (max batch size "+
			"reached), idle (submitted while no batch of the tenant was scoring), drain "+
			"(the last running batch finished), timer (max wait elapsed "+
			"since the queue went non-empty), close (dispatcher shutting down).", "reason", "tenant")

	vWait = obs.Default.HistogramVec("cats_serve_wait_seconds",
		"Time items spend queued before their batch starts scoring: near "+
			"zero when submitted while no batch of the tenant was scoring, "+
			"otherwise until the running batch finishes or max wait has "+
			"passed.", obs.LatencyBuckets, "tenant")
)

// serveMetrics is one tenant's pre-resolved cats_serve_* handle set.
type serveMetrics struct {
	queueDepth    *obs.Gauge
	batches       *obs.Counter
	batchSize     *obs.Histogram
	shedQueueFull *obs.Counter
	shedDeadline  *obs.Counter
	shedClosed    *obs.Counter
	coalesced     *obs.Counter
	flushSize     *obs.Counter
	flushIdle     *obs.Counter
	flushDrain    *obs.Counter
	flushTimer    *obs.Counter
	flushClose    *obs.Counter
	wait          *obs.Histogram
}

// serveByTenant resolves (and caches) the handle set for one tenant
// label. Dispatchers resolve once at construction; the request path
// only touches the returned atomics.
var serveByTenant = obs.PerTenant[serveMetrics]{Resolve: resolveServeMetrics}

// resolveServeMetrics takes the family locks once and resolves every
// per-tenant series handle. tenant must be a process-owned string: the
// families retain it as a label value.
func resolveServeMetrics(tenant string) *serveMetrics {
	return &serveMetrics{
		queueDepth:    vQueueDepth.With(tenant),
		batches:       vBatches.With(tenant),
		batchSize:     vBatchSize.With(tenant),
		shedQueueFull: vShed.With("queue_full", tenant),
		shedDeadline:  vShed.With("deadline", tenant),
		shedClosed:    vShed.With("closed", tenant),
		coalesced:     vCoalesced.With(tenant),
		flushSize:     vFlushes.With("size", tenant),
		flushIdle:     vFlushes.With("idle", tenant),
		flushDrain:    vFlushes.With("drain", tenant),
		flushTimer:    vFlushes.With("timer", tenant),
		flushClose:    vFlushes.With("close", tenant),
		wait:          vWait.With(tenant),
	}
}
