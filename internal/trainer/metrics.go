package trainer

import "repro/internal/obs"

// Trainer instrumentation (DESIGN.md §15): retrain cycles by outcome,
// the live feedback-window size and bytes, the gate's F1 delta
// distribution, and challenger training time — all per tenant. An operator watching the
// drift loop reads cats_trainer_cycles_total{outcome="promoted"} move
// and cats_trainer_promoted_generation step; a loop that never fires
// shows a growing window with cycles stuck on min_samples or cooldown.
var (
	vCycles = obs.Default.CounterVec("cats_trainer_cycles_total",
		"Champion/challenger retrain cycles, by outcome: promoted "+
			"(challenger won the gate and was published), lost (challenger "+
			"evaluated but did not beat the champion), cooldown (skipped, "+
			"inside the post-promotion cooldown), min_samples (window below "+
			"the retrain floor), class_skew (window lacks enough examples "+
			"of one class to split), probe_rejected (challenger won the "+
			"holdout gate but the golden probe set vetoed it), no_model "+
			"(tenant has no live champion yet), error (training or "+
			"publication failed).", "outcome", "tenant")
	vWindowSize = obs.Default.GaugeVec("cats_trainer_window_size",
		"Labeled feedback examples currently retained in the tenant's "+
			"sliding retrain window.", "tenant")
	vWindowBytes = obs.Default.GaugeVec("cats_trainer_window_bytes",
		"Bytes the tenant's retrain window holds for its entries: each one's "+
			"item id, its comments' text, and four bytes of offset per comment.", "tenant")
	vPromotedGen = obs.Default.GaugeVec("cats_trainer_promoted_generation",
		"Model generation of the tenant's most recent trainer promotion; "+
			"0 until the loop first wins.", "tenant")
	vGateDelta = obs.Default.HistogramVec("cats_trainer_gate_f1_delta",
		"Challenger-minus-champion holdout F1 at the promotion gate, one "+
			"observation per evaluated challenger (promoted or lost). "+
			"Mass below zero means the label stream no longer supports a "+
			"better model; mass above means the champion is stale.",
		[]float64{-0.5, -0.2, -0.1, -0.05, -0.02, -0.01, 0,
			0.01, 0.02, 0.05, 0.1, 0.2, 0.5}, "tenant")
	vTrainSeconds = obs.Default.HistogramVec("cats_trainer_train_seconds",
		"Wall-clock seconds spent fitting one challenger (feature "+
			"extraction plus GBT rounds), as measured by the trainer's "+
			"injected clock.",
		[]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30},
		"tenant")
)

type tenantTrainerMetrics struct {
	cyclePromoted      *obs.Counter
	cycleLost          *obs.Counter
	cycleCooldown      *obs.Counter
	cycleMinSamples    *obs.Counter
	cycleClassSkew     *obs.Counter
	cycleProbeRejected *obs.Counter
	cycleNoModel       *obs.Counter
	cycleError         *obs.Counter
	windowSize         *obs.Gauge
	windowBytes        *obs.Gauge
	promotedGen        *obs.Gauge
	gateDelta          *obs.Histogram
	trainSeconds       *obs.Histogram
}

var metricsByTenant = obs.PerTenant[tenantTrainerMetrics]{Resolve: resolveTrainerMetrics}

// resolveTrainerMetrics takes the family locks once and resolves every
// per-tenant series handle. tenant must be a process-owned string: the
// families retain it as a label value.
func resolveTrainerMetrics(tenant string) *tenantTrainerMetrics {
	return &tenantTrainerMetrics{
		cyclePromoted:      vCycles.With("promoted", tenant),
		cycleLost:          vCycles.With("lost", tenant),
		cycleCooldown:      vCycles.With("cooldown", tenant),
		cycleMinSamples:    vCycles.With("min_samples", tenant),
		cycleClassSkew:     vCycles.With("class_skew", tenant),
		cycleProbeRejected: vCycles.With("probe_rejected", tenant),
		cycleNoModel:       vCycles.With("no_model", tenant),
		cycleError:         vCycles.With("error", tenant),
		windowSize:         vWindowSize.With(tenant),
		windowBytes:        vWindowBytes.With(tenant),
		promotedGen:        vPromotedGen.With(tenant),
		gateDelta:          vGateDelta.With(tenant),
		trainSeconds:       vTrainSeconds.With(tenant),
	}
}

func (m *tenantTrainerMetrics) countOutcome(o Outcome) {
	switch o {
	case OutcomePromoted:
		m.cyclePromoted.Inc()
	case OutcomeLost:
		m.cycleLost.Inc()
	case OutcomeCooldown:
		m.cycleCooldown.Inc()
	case OutcomeMinSamples:
		m.cycleMinSamples.Inc()
	case OutcomeClassSkew:
		m.cycleClassSkew.Inc()
	case OutcomeProbeRejected:
		m.cycleProbeRejected.Inc()
	case OutcomeNoModel:
		m.cycleNoModel.Inc()
	default:
		m.cycleError.Inc()
	}
}
