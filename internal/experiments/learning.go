package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ml/eval"
)

// LearningCurve sweeps the labeled training-set size (a row's X): how
// much ground truth does CATS need before its D1 metrics saturate? The
// paper trains on 34k labeled items (D0) without justifying the size;
// this curve, from stratified subsamples of D0 each evaluated on D1,
// shows where returns diminish.
func (l *Lab) LearningCurve(ctx context.Context) (fmt.Stringer, error) {
	a, err := l.Analyzer()
	if err != nil {
		return nil, err
	}
	d0 := l.D0().Dataset

	var fraudIdx, normalIdx []int
	for i := range d0.Items {
		if d0.Items[i].Label.IsFraud() {
			fraudIdx = append(fraudIdx, i)
		} else {
			normalIdx = append(normalIdx, i)
		}
	}
	rng := rand.New(rand.NewSource(1700 + l.cfg.Seed))
	rng.Shuffle(len(fraudIdx), func(i, j int) { fraudIdx[i], fraudIdx[j] = fraudIdx[j], fraudIdx[i] })
	rng.Shuffle(len(normalIdx), func(i, j int) { normalIdx[i], normalIdx[j] = normalIdx[j], normalIdx[i] })

	res := &Sweep{Title: "Learning curve — D1 metrics vs labeled training-set size"}
	for _, frac := range []float64{0.05, 0.15, 0.4, 1.0} {
		nf := int(float64(len(fraudIdx)) * frac)
		nn := int(float64(len(normalIdx)) * frac)
		if nf < 2 || nn < 2 {
			continue
		}
		sub := d0
		sub.Items = nil
		for _, i := range fraudIdx[:nf] {
			sub.Items = append(sub.Items, d0.Items[i])
		}
		for _, i := range normalIdx[:nn] {
			sub.Items = append(sub.Items, d0.Items[i])
		}
		det := core.NewDetector(a, core.DetectorConfig{})
		if err := det.Train(&sub, 0); err != nil {
			return nil, fmt.Errorf("learning curve at %d items: %w", len(sub.Items), err)
		}
		m, err := evaluate(ctx, det, l.D1().Dataset.Items)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, SweepRow{fmt.Sprintf("%6d train items:", len(sub.Items)), float64(len(sub.Items)), m})
	}
	return res, nil
}

// RoundsCurve trains once on D0 and evaluates prefixes of the ensemble
// (a row's X is the tree count) on D1 via staged prediction — the
// rounds-vs-quality trade without retraining.
func (l *Lab) RoundsCurve(ctx context.Context) (fmt.Stringer, error) {
	det, err := l.System()
	if err != nil {
		return nil, err
	}
	g := det.Model()
	items := l.D1().Dataset.Items
	// One fused pass yields both the filter decisions and the feature
	// matrix for every staged evaluation below.
	dets, X, err := det.DetectWithFeatures(ctx, items, 0)
	if err != nil {
		return nil, err
	}
	res := &Sweep{Title: "Rounds curve — D1 metrics vs boosting rounds (staged prediction)"}
	for _, rounds := range []int{5, 20, 50, 100, g.NumTrees()} {
		if rounds > g.NumTrees() {
			continue
		}
		var c eval.Confusion
		for i := range items {
			c.Add(items[i].Label.IsFraud(), !dets[i].Filtered && g.PredictProbaAt(X[i], rounds) >= 0.5)
		}
		res.Rows = append(res.Rows, SweepRow{fmt.Sprintf("%4d trees:", rounds), float64(rounds), eval.FromConfusion(c)})
	}
	return res, nil
}
