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
		"Items currently enqueued and awaiting batch dispatch.", "tenant")

	vBatches = obs.Default.CounterVec("cats_serve_batches_total",
		"Fused scoring batches dispatched by the serving batcher.", "tenant")
	vBatchSize = obs.Default.HistogramVec("cats_serve_batch_size",
		"Items per dispatched serving batch (bypassed oversize requests included).",
		obs.SizeBuckets, "tenant")

	vShed = obs.Default.CounterVec("cats_serve_shed_total",
		"Requests shed by admission control instead of being queued, by "+
			"reason: queue_full (no queue headroom for the request's new "+
			"items), deadline (the request's context deadline cannot survive "+
			"a full flush wait), closed (dispatcher shutting down).", "reason", "tenant")

	vCoalesced = obs.Default.CounterVec("cats_serve_coalesced_total",
		"Submitted items that attached to an identical in-flight item via "+
			"the singleflight map instead of being analyzed again.", "tenant")
	vBypass = obs.Default.CounterVec("cats_serve_bypass_total",
		"Requests at or above the max batch size dispatched directly, "+
			"skipping the queue (they are already a full batch).", "tenant")

	vFlushes = obs.Default.CounterVec("cats_serve_flushes_total",
		"Queue flushes by the rule that fired: size (max batch size "+
			"reached), idle (submitted to a scorer idle for max wait), drain "+
			"(the last running batch finished), timer (max wait elapsed "+
			"since the queue went non-empty), close (dispatcher shutting down).", "reason", "tenant")

	vWait = obs.Default.HistogramVec("cats_serve_wait_seconds",
		"Time items spend queued before their batch starts scoring: near "+
			"zero when submitted to an idle scorer, otherwise until the "+
			"running batch finishes or max wait has passed.", obs.LatencyBuckets, "tenant")
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
	bypass        *obs.Counter
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
		bypass:        vBypass.With(tenant),
		flushSize:     vFlushes.With("size", tenant),
		flushIdle:     vFlushes.With("idle", tenant),
		flushDrain:    vFlushes.With("drain", tenant),
		flushTimer:    vFlushes.With("timer", tenant),
		flushClose:    vFlushes.With("close", tenant),
		wait:          vWait.With(tenant),
	}
}
