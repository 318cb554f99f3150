package graph

import "repro/internal/obs"

// DefaultTenant labels graph metrics when no tenant is named, matching
// core's convention.
const DefaultTenant = "default"

// Graph instrumentation (DESIGN.md §14). Every cats_graph_* family
// carries a trailing tenant label per the PR-6 discipline; phase and
// outcome label values are compile-time constants, so catslint's
// metric-discipline rule holds. Handles are resolved once per tenant
// and cached — the CSR scatter and pair-mining hotpaths never touch a
// Vec.
var (
	graphBuild = obs.Default.HistogramVec("cats_graph_build_seconds",
		"Graph phase latency in seconds: csr = intern+counting-sort CSR "+
			"build, cluster = pair mining + union-find + report assembly.",
		obs.LatencyBuckets, "phase", "tenant")

	graphEdges = obs.Default.CounterVec("cats_graph_edges_total",
		"User→item evidence edges frozen into CSR graphs.", "tenant")

	graphPairs = obs.Default.CounterVec("cats_graph_pairs_total",
		"Co-purchase user pairs mined from fraud-scored items, by outcome: "+
			"candidate (distinct pairs seen), qualifying (shared "+
			"MinSharedItems+ fraud items).", "outcome", "tenant")

	graphClusters = obs.Default.CounterVec("cats_graph_clusters_total",
		"Colluding-user clusters emitted by clustering runs.", "tenant")

	graphClusterSize = obs.Default.HistogramVec("cats_graph_cluster_size",
		"Members per emitted cluster.", obs.SizeBuckets, "tenant")
)

// graphMetrics is one tenant's pre-resolved handle set.
type graphMetrics struct {
	buildCSR        *obs.Histogram
	cluster         *obs.Histogram
	edges           *obs.Counter
	pairsCandidate  *obs.Counter
	pairsQualifying *obs.Counter
	clusters        *obs.Counter
	clusterSize     *obs.Histogram
}

// graphByTenant resolves (and caches) the handle set for one tenant
// label (Config.withDefaults has already named the empty one).
var graphByTenant = obs.PerTenant[graphMetrics]{Resolve: resolveGraphMetrics}

// resolveGraphMetrics takes the family locks once and resolves every
// per-tenant series handle. tenant must be a process-owned string: the
// families retain it as a label value.
func resolveGraphMetrics(tenant string) *graphMetrics {
	return &graphMetrics{
		buildCSR:        graphBuild.With("csr", tenant),
		cluster:         graphBuild.With("cluster", tenant),
		edges:           graphEdges.With(tenant),
		pairsCandidate:  graphPairs.With("candidate", tenant),
		pairsQualifying: graphPairs.With("qualifying", tenant),
		clusters:        graphClusters.With(tenant),
		clusterSize:     graphClusterSize.With(tenant),
	}
}

// startPhase opens a span on one build-phase histogram.
func startPhase(h *obs.Histogram) obs.Span { return obs.StartSpan(h) }
