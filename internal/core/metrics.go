package core

import "repro/internal/obs"

// DefaultTenant is the tenant label applied to pipeline metrics when no
// tenant is named — the single-model deployments that predate the
// multi-tenant registry keep their metrics under it.
const DefaultTenant = "default"

// Pipeline instrumentation (DESIGN.md §10, §12). Every cats_pipeline_*
// family carries a trailing tenant label so a multi-tenant deployment
// (internal/registry) can tell one platform's traffic from another's.
// Handles are resolved once per tenant and cached, so the per-item cost
// in the detection loop stays an atomic add (counters) or two
// wall-clock reads plus atomic adds (spans). The stage taxonomy follows
// the fused pipeline of §6: "analyze" is the single
// tokenize→filter→features pass (segmentation and feature assembly are
// one stage by construction), "score" is the classifier.
var (
	pipelineItems = obs.Default.CounterVec("cats_pipeline_items_total",
		"Items through the two-stage detection pipeline, by outcome: scored, "+
			"filtered_sales (dropped by the stage-one sales cutoff before any "+
			"text analysis), filtered_signal (analyzed, then dropped for lacking "+
			"a positive word or 2-gram).", "outcome", "tenant")

	pipelineBatches = obs.Default.CounterVec("cats_pipeline_batches_total",
		"Detection batches dispatched (Detect/DetectContext/DetectStream chunks).",
		"tenant")
	pipelineBatchSize = obs.Default.HistogramVec("cats_pipeline_batch_size",
		"Items per detection batch.", obs.SizeBuckets, "tenant")

	pipelineStage = obs.Default.HistogramVec("cats_pipeline_stage_seconds",
		"Pipeline stage latency in seconds. analyze = the fused "+
			"tokenize+filter+features pass, observed per item; score = the "+
			"classifier, observed per scoring call (per batch for the flattened "+
			"GBT ensemble, per item otherwise).", obs.LatencyBuckets, "stage", "tenant")

	pipelineComments = obs.Default.CounterVec("cats_pipeline_comments_total",
		"Comments fed through the fused analysis pass.", "tenant")
)

// pipelineMetrics is one tenant's pre-resolved handle set: the detector
// stores one and updates it lock-free on the hot path.
type pipelineMetrics struct {
	itemsScored         *obs.Counter
	itemsFilteredSales  *obs.Counter
	itemsFilteredSignal *obs.Counter
	batches             *obs.Counter
	batchSize           *obs.Histogram
	stageAnalyze        *obs.Histogram
	stageScore          *obs.Histogram
	commentsAnalyzed    *obs.Counter
}

// pipelineByTenant resolves (and caches) the handle set for one
// tenant label; detectors hold the returned struct, so the detection
// loop itself never comes back here.
var pipelineByTenant = obs.PerTenant[pipelineMetrics]{Resolve: resolvePipelineMetrics}

// resolvePipelineMetrics takes the family locks once and resolves every
// per-tenant series handle. tenant must be a process-owned string: the
// families retain it as a label value.
func resolvePipelineMetrics(tenant string) *pipelineMetrics {
	return &pipelineMetrics{
		itemsScored:         pipelineItems.With("scored", tenant),
		itemsFilteredSales:  pipelineItems.With("filtered_sales", tenant),
		itemsFilteredSignal: pipelineItems.With("filtered_signal", tenant),
		batches:             pipelineBatches.With(tenant),
		batchSize:           pipelineBatchSize.With(tenant),
		stageAnalyze:        pipelineStage.With("analyze", tenant),
		stageScore:          pipelineStage.With("score", tenant),
		commentsAnalyzed:    pipelineComments.With(tenant),
	}
}
