package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/ml/eval"
)

// LearningCurveRow is one training-set-size result.
type LearningCurveRow struct {
	TrainItems int
	Metrics    eval.Metrics
}

// LearningCurveResult sweeps the labeled training-set size: how much
// ground truth does CATS need before its D1 metrics saturate? The paper
// trains on 34k labeled items (D0) without justifying the size; this
// curve shows where returns diminish.
type LearningCurveResult struct {
	Rows []LearningCurveRow
}

// LearningCurve subsamples D0 at several sizes (stratified) and
// evaluates each detector on D1.
func (l *Lab) LearningCurve() (*LearningCurveResult, error) {
	a, err := l.Analyzer()
	if err != nil {
		return nil, err
	}
	d0 := l.D0().Dataset
	d1Items := l.D1().Dataset.Items

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

	res := &LearningCurveResult{}
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
		if err := det.Train(&sub, l.cfg.Workers); err != nil {
			return nil, fmt.Errorf("learning curve at %d items: %w", len(sub.Items), err)
		}
		dets, err := det.Detect(d1Items, l.cfg.Workers)
		if err != nil {
			return nil, err
		}
		var c eval.Confusion
		for i, d := range dets {
			truth := 0
			if d1Items[i].Label.IsFraud() {
				truth = 1
			}
			pred := 0
			if d.IsFraud {
				pred = 1
			}
			c.Add(truth, pred)
		}
		res.Rows = append(res.Rows, LearningCurveRow{
			TrainItems: len(sub.Items),
			Metrics:    eval.FromConfusion(c),
		})
	}
	return res, nil
}

// String prints the learning curve.
func (r *LearningCurveResult) String() string {
	var b strings.Builder
	b.WriteString("Learning curve — D1 metrics vs labeled training-set size\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d train items: %s\n", row.TrainItems, row.Metrics)
	}
	return b.String()
}

// RoundsCurveRow is one boosting-rounds result.
type RoundsCurveRow struct {
	Rounds  int
	Metrics eval.Metrics
}

// RoundsCurveResult evaluates a single trained ensemble at several tree
// counts via staged prediction — the rounds-vs-quality trade without
// retraining.
type RoundsCurveResult struct {
	Rows []RoundsCurveRow
}

// RoundsCurve trains once on D0 and evaluates prefixes of the ensemble
// on D1.
func (l *Lab) RoundsCurve() (*RoundsCurveResult, error) {
	det, err := l.System()
	if err != nil {
		return nil, err
	}
	g := det.Model()
	items := l.D1().Dataset.Items
	// One fused pass yields both the filter decisions and the feature
	// matrix for every staged evaluation below.
	dets, X, err := det.DetectWithFeatures(context.Background(), items, l.cfg.Workers)
	if err != nil {
		return nil, err
	}
	res := &RoundsCurveResult{}
	for _, rounds := range []int{5, 20, 50, 100, g.NumTrees()} {
		if rounds > g.NumTrees() {
			continue
		}
		var c eval.Confusion
		for i := range items {
			if dets[i].Filtered {
				c.Add(boolToInt(items[i].Label.IsFraud()), 0)
				continue
			}
			pred := 0
			if g.PredictProbaAt(X[i], rounds) >= 0.5 {
				pred = 1
			}
			c.Add(boolToInt(items[i].Label.IsFraud()), pred)
		}
		res.Rows = append(res.Rows, RoundsCurveRow{Rounds: rounds, Metrics: eval.FromConfusion(c)})
	}
	return res, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// String prints the rounds curve.
func (r *RoundsCurveResult) String() string {
	var b strings.Builder
	b.WriteString("Rounds curve — D1 metrics vs boosting rounds (staged prediction)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %4d trees: %s\n", row.Rounds, row.Metrics)
	}
	return b.String()
}
