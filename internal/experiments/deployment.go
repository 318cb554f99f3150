package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ml/eval"
)

// CategoryRow is one category's detection result.
type CategoryRow struct {
	Category string
	Items    int
	Fraud    int
	Metrics  eval.Metrics
}

// DeploymentResult reproduces the Section VI deployment setting: the
// D0-pretrained detector evaluated separately on each of the eight
// item categories CATS was incorporated into at Taobao.
type DeploymentResult struct {
	Rows []CategoryRow
}

// Deployment evaluates the trained detector on D1 per category.
func (l *Lab) Deployment(ctx context.Context) (fmt.Stringer, error) {
	det, err := l.System()
	if err != nil {
		return nil, err
	}
	items := l.D1().Dataset.Items
	dets, err := det.DetectContext(ctx, items, 0)
	if err != nil {
		return nil, err
	}
	byCat := map[string]*eval.Confusion{}
	for i := range items {
		c := byCat[items[i].Category]
		if c == nil {
			c = new(eval.Confusion)
			byCat[items[i].Category] = c
		}
		c.Add(items[i].Label.IsFraud(), dets[i].IsFraud)
	}
	cats := make([]string, 0, len(byCat))
	for cat := range byCat {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	res := &DeploymentResult{}
	for _, cat := range cats {
		c := *byCat[cat]
		res.Rows = append(res.Rows, CategoryRow{
			Category: cat, Items: c.Total(), Fraud: c.TP + c.FN,
			Metrics: eval.FromConfusion(c),
		})
	}
	return res, nil
}

// String prints the per-category deployment table.
func (r *DeploymentResult) String() string {
	var b strings.Builder
	b.WriteString("Deployment — per-category detection on D1 (Section VI's eight categories)\n")
	fmt.Fprintf(&b, "  %-22s %-8s %-7s %s\n", "category", "items", "fraud", "metrics")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-22s %-8d %-7d %s\n", row.Category, row.Items, row.Fraud, row.Metrics)
	}
	return b.String()
}

// ThresholdSweepResult quantifies the precision/recall trade of the
// detection threshold on the E-platform universe — the analysis behind
// the high-confidence reporting cutoff (EPlatThreshold).
type ThresholdSweepResult struct {
	Curve []eval.PRPoint
	// AP is the average precision (area under the PR curve) and AUC
	// the area under the ROC curve.
	AP  float64
	AUC float64
	// BestF1 is the F1-optimal operating point; At95 is the
	// highest-recall point with precision >= 0.95 (false when
	// unreachable).
	BestF1      eval.PRPoint
	At95        eval.PRPoint
	At95Reached bool
}

// ThresholdSweep scores the E-platform universe with the D0-pretrained
// model and sweeps the reporting threshold.
func (l *Lab) ThresholdSweep(ctx context.Context) (fmt.Stringer, error) {
	det, err := l.System()
	if err != nil {
		return nil, err
	}
	items := l.EPlat().Dataset.Items
	dets, err := det.DetectContext(ctx, items, 0)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, 0, len(items))
	labels := make([]int, 0, len(items))
	for i := range items {
		if dets[i].Filtered {
			continue
		}
		scores = append(scores, dets[i].Score)
		y := 0
		if items[i].Label.IsFraud() {
			y = 1
		}
		labels = append(labels, y)
	}
	curve := eval.PRCurve(scores, labels)
	res := &ThresholdSweepResult{
		Curve: curve,
		AP:    eval.AveragePrecision(curve),
		AUC:   eval.ROCAUC(scores, labels),
	}
	if p, ok := eval.BestThreshold(curve); ok {
		res.BestF1 = p
	}
	if p, ok := eval.ThresholdForPrecision(curve, 0.95); ok {
		res.At95 = p
		res.At95Reached = true
	}
	return res, nil
}

// String prints the threshold sweep.
func (r *ThresholdSweepResult) String() string {
	var b strings.Builder
	b.WriteString("Threshold sweep — PR curve on E-platform (D0-pretrained model)\n")
	fmt.Fprintf(&b, "  average precision: %.3f   ROC AUC: %.3f\n", r.AP, r.AUC)
	fmt.Fprintf(&b, "  F1-optimal: thr=%.2f P=%.2f R=%.2f\n", r.BestF1.Threshold, r.BestF1.Precision, r.BestF1.Recall)
	if r.At95Reached {
		fmt.Fprintf(&b, "  precision>=0.95 reachable at thr=%.2f with recall %.2f — the basis for the %.2f reporting threshold\n",
			r.At95.Threshold, r.At95.Recall, EPlatThreshold)
	} else {
		b.WriteString("  precision>=0.95 not reachable at this scale\n")
	}
	b.WriteString(indent(eval.FormatCurve(r.Curve, 10), "  "))
	return b.String()
}
