package registry

import "repro/internal/obs"

// Registry instrumentation (DESIGN.md §12): reload counts by outcome
// and the live model generation, both per tenant. An operator watching
// a rollout reads cats_registry_reloads_total{outcome="ok"} move and
// cats_registry_model_version step to the new generation; a rejected
// candidate shows up under outcome="rejected" (probe-set veto) or
// outcome="error" (snapshot unreadable) with the old generation still
// live.
var (
	vReloads = obs.Default.CounterVec("cats_registry_reloads_total",
		"Model (re)load attempts through the tenant registry, by outcome: "+
			"ok (validated and published), rejected (candidate vetoed by the "+
			"golden probe set), error (snapshot missing, truncated, or "+
			"version-incompatible).", "outcome", "tenant")
	vModelVersion = obs.Default.GaugeVec("cats_registry_model_version",
		"Generation number of the tenant's live model: increments on every "+
			"published reload.", "tenant")
)

type tenantMetrics struct {
	reloadOK       *obs.Counter
	reloadRejected *obs.Counter
	reloadError    *obs.Counter
	modelVersion   *obs.Gauge
}

var metricsByTenant = obs.PerTenant[tenantMetrics]{Resolve: resolveTenantMetrics}

// resolveTenantMetrics takes the family locks once and resolves every
// per-tenant series handle. tenant must be a process-owned string: the
// families retain it as a label value.
func resolveTenantMetrics(tenant string) *tenantMetrics {
	return &tenantMetrics{
		reloadOK:       vReloads.With("ok", tenant),
		reloadRejected: vReloads.With("rejected", tenant),
		reloadError:    vReloads.With("error", tenant),
		modelVersion:   vModelVersion.With(tenant),
	}
}
