package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ml/eval"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/trainer"
)

// driftRoundScale sizes each feedback round relative to the lab's D0
// scale: half the training set per round, with a two-round window, so a
// challenger trains on roughly as much labeled data as the champion did
// — otherwise the gate compares a well-trained model against an
// undertrained one and the loop cannot win honestly.
const driftRoundScale = 0.5

// DriftRound is one feedback round of the closed-loop experiment. The
// frozen and live models are scored on the round's items BEFORE the
// round's labels are fed to the trainer, so the live model is only ever
// credited for what it learned from earlier rounds.
type DriftRound struct {
	Round        int             `json:"round"`
	VocabShift   float64         `json:"vocab_shift"`
	SubtleFraud  float64         `json:"subtle_fraud"`
	StyleJitter  float64         `json:"style_jitter"`
	Enthusiastic float64         `json:"enthusiastic_normal"`
	Frozen       eval.Metrics    `json:"frozen"`
	Live         eval.Metrics    `json:"live"`
	Generation   uint64          `json:"generation"`
	Outcome      trainer.Outcome `json:"outcome"`
	WindowSize   int             `json:"window_size"`
}

// DriftResult is the closed-loop retraining experiment: a frozen copy
// of the champion rides through an escalating distribution shift while
// the champion/challenger loop retrains on the same labeled stream.
// The paper's deployment claim (§ operational) is that fraud campaigns
// drift and a static model decays; the loop's job is to recover the
// lost F1 without ever promoting a challenger that failed the gate.
type DriftResult struct {
	Rounds        []DriftRound `json:"rounds"`
	Promotions    int          `json:"promotions"`
	FrozenFinalF1 float64      `json:"frozen_final_f1"`
	LiveFinalF1   float64      `json:"live_final_f1"`
	// Recovery is live minus frozen F1 on the final round — how much of
	// the drift-induced loss the loop won back.
	Recovery float64 `json:"recovery"`
}

// Drift runs the champion/challenger loop against an injected
// distribution shift. Rounds 0–3 escalate vocabulary shift, subtle
// fraud, and style jitter up to the regime where word-level features
// misfire; rounds 4–5 hold the shifted regime so the promoted
// challenger's recovery is measured on data it has not seen. Everything
// is seeded and clocked by a FakeClock, so the run is reproducible.
func (l *Lab) Drift(ctx context.Context) (fmt.Stringer, error) {
	a, err := l.Analyzer()
	if err != nil {
		return nil, err
	}
	// A fresh champion (not the cached l.System()): installing a
	// detector binds its pipeline metrics to the tenant, and the cached
	// system is shared with every other experiment.
	champion, err := l.trainOnD0(a, core.DetectorConfig{})
	if err != nil {
		return nil, err
	}

	reg := registry.New(registry.Options{})
	defer reg.Close()
	if _, err := reg.Install(ctx, "drift", "champion-v1", champion, a); err != nil {
		return nil, err
	}

	// The shift schedule models a fraud ecosystem adapting to
	// detection: campaigns go cautious (SubtleFraud → 1), the platform's
	// organic reviews grow more fraud-like (EnthusiasticNormal up from
	// the trained 0.12), product vocabulary churns (VocabShift), and
	// comment style drifts (StyleJitter). Round 0 leaves every knob at
	// the champion's training regime (SubtleFraud 0 resolves to the
	// synth default 0.3) as a no-drift control where both models must
	// agree; rounds 4–5 hold the shifted regime steady so the promoted
	// challenger is scored on shifted data it has not seen.
	stages := []struct{ shift, subtle, jitter, enthusiastic float64 }{
		{0, 0, 0, 0.12},
		{0.4, 0.6, 0.15, 0.25},
		{0.7, 0.85, 0.25, 0.4},
		{0.9, 1.0, 0.35, 0.55},
		{0.9, 1.0, 0.35, 0.55},
		{0.9, 1.0, 0.35, 0.55},
	}
	universes := make([]*synth.Universe, len(stages))
	for r, st := range stages {
		cfg := l.scaled(synth.D0Config(), l.cfg.D0Scale*driftRoundScale, 8700+int64(137*r))
		cfg.VocabShift = st.shift
		cfg.SubtleFraud = st.subtle
		cfg.StyleJitter = st.jitter
		cfg.EnthusiasticNormal = st.enthusiastic
		universes[r] = synth.Generate(cfg)
	}

	// Window of two rounds: each Feed slides the oldest round out, so
	// the challenger trains on the most recent regimes while stale data
	// ages out of the store.
	clk := trainer.NewFakeClock(time.Unix(1_700_000_000, 0))
	tr := trainer.New(reg, clk, trainer.Config{
		Window:     2 * len(universes[0].Dataset.Items),
		MinSamples: 20,
		Seed:       77,
	})
	defer tr.Close()

	res := &DriftResult{}
	for r, st := range stages {
		u := universes[r]
		frozen, err := evaluate(ctx, champion, u.Dataset.Items)
		if err != nil {
			return nil, err
		}
		var live eval.Metrics
		var gen uint64
		if !reg.Tenant("drift").Do(func(h *registry.Handle) {
			live, err = evaluate(ctx, h.Detector, u.Dataset.Items)
			gen = h.Generation
		}) {
			return nil, fmt.Errorf("drift tenant lost its model at round %d", r)
		}
		if err != nil {
			return nil, err
		}

		fbs := make([]trainer.Feedback, len(u.Dataset.Items))
		for i, it := range u.Dataset.Items {
			fbs[i] = trainer.Feedback{Item: it, Fraud: it.Label.IsFraud()}
		}
		if _, err := tr.Feed("drift", fbs); err != nil {
			return nil, err
		}
		d, err := tr.RunCycle(ctx, "drift")
		if err != nil {
			return nil, err
		}
		if d.Outcome == trainer.OutcomePromoted {
			res.Promotions++
		}
		res.Rounds = append(res.Rounds, DriftRound{
			Round:        r,
			VocabShift:   st.shift,
			SubtleFraud:  st.subtle,
			StyleJitter:  st.jitter,
			Enthusiastic: st.enthusiastic,
			Frozen:       frozen,
			Live:         live,
			Generation:   gen,
			Outcome:      d.Outcome,
			WindowSize:   d.WindowSize,
		})
	}
	last := res.Rounds[len(res.Rounds)-1]
	res.FrozenFinalF1 = last.Frozen.F1
	res.LiveFinalF1 = last.Live.F1
	res.Recovery = res.LiveFinalF1 - res.FrozenFinalF1
	return res, nil
}

// String prints the closed-loop report.
func (r *DriftResult) String() string {
	var b strings.Builder
	b.WriteString("Drift loop — frozen champion vs champion/challenger retraining under shift\n")
	for _, row := range r.Rounds {
		fmt.Fprintf(&b,
			"  round %d (shift %.2f subtle %.2f jitter %.2f enth %.2f): frozen F1 %.3f | live F1 %.3f (gen %d) | %s, window %d\n",
			row.Round, row.VocabShift, row.SubtleFraud, row.StyleJitter, row.Enthusiastic,
			row.Frozen.F1, row.Live.F1, row.Generation, row.Outcome, row.WindowSize)
	}
	fmt.Fprintf(&b, "  final round: frozen F1 %.3f, live F1 %.3f — loop recovered %+.3f after %d promotion(s)\n",
		r.FrozenFinalF1, r.LiveFinalF1, r.Recovery, r.Promotions)
	return b.String()
}
