package experiments

import (
	"testing"

	"repro/internal/ecom"
)

func TestDeploymentCoversCategories(t *testing.T) {
	r := run[*DeploymentResult](t, (*Lab).Deployment)
	if len(r.Rows) != len(ecom.Categories) {
		t.Fatalf("rows = %d, want %d categories", len(r.Rows), len(ecom.Categories))
	}
	totalItems, totalFraud := 0, 0
	for _, row := range r.Rows {
		if row.Items == 0 {
			t.Errorf("category %q has no items", row.Category)
		}
		totalItems += row.Items
		totalFraud += row.Fraud
		if row.Metrics.Accuracy < 0.9 {
			t.Errorf("category %q accuracy %.2f", row.Category, row.Metrics.Accuracy)
		}
	}
	stats := testLab(t).D1().Dataset.Stats()
	if totalItems != stats.FraudItems+stats.NormalItems {
		t.Fatalf("category rows cover %d items, want %d", totalItems, stats.FraudItems+stats.NormalItems)
	}
	if totalFraud != stats.FraudItems {
		t.Fatalf("category fraud %d, want %d", totalFraud, stats.FraudItems)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestThresholdSweep(t *testing.T) {
	r := run[*ThresholdSweepResult](t, (*Lab).ThresholdSweep)
	if len(r.Curve) == 0 {
		t.Fatal("empty PR curve")
	}
	if r.AP < 0.5 {
		t.Errorf("average precision %.3f suspiciously low", r.AP)
	}
	if r.BestF1.Precision == 0 && r.BestF1.Recall == 0 {
		t.Error("no F1-optimal point")
	}
	// Recall must be non-decreasing along the curve.
	prev := -1.0
	for _, p := range r.Curve {
		if p.Recall < prev {
			t.Fatal("PR curve recall not monotone")
		}
		prev = p.Recall
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestRobustnessSweep(t *testing.T) {
	r := run[*Sweep](t, (*Lab).RobustnessSweep)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The platform-independence claim: detection does not
		// collapse even at 50% vocabulary divergence.
		if row.Metrics.F1 < 0.5 {
			t.Errorf("vocab shift %.2f: F1 %.2f collapsed", row.X, row.Metrics.F1)
		}
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestAppendix(t *testing.T) {
	r := run[*AppendixResult](t, (*Lab).Appendix)
	if len(r.EPlat) == 0 || len(r.Taobao) == 0 {
		t.Fatal("empty appendix tables")
	}
	if r.SharedCount < len(r.EPlat)/2 {
		t.Errorf("only %d/%d words shared across platforms", r.SharedCount, len(r.EPlat))
	}
	// The top of both lists must be positive-dominated.
	posTop := 0
	for _, w := range r.Taobao[:10] {
		if w.Positive {
			posTop++
		}
	}
	if posTop < 6 {
		t.Errorf("only %d/10 top Taobao fraud words positive", posTop)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestTimeAspect(t *testing.T) {
	r := run[*TimeAspectResult](t, (*Lab).TimeAspect)
	if r.MedianFraudDays >= r.MedianNormalDays {
		t.Fatalf("fraud comment span %.1f days not below normal %.1f", r.MedianFraudDays, r.MedianNormalDays)
	}
	if r.KS < 0.5 {
		t.Errorf("time-span KS %.3f; burstiness should separate sharply", r.KS)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestLearningCurve(t *testing.T) {
	r := run[*Sweep](t, (*Lab).LearningCurve)
	if len(r.Rows) < 3 {
		t.Fatalf("rows = %d, want >= 3", len(r.Rows))
	}
	// More data must not make things dramatically worse: the final
	// (full-data) F1 must be at least the smallest subsample's.
	first := r.Rows[0].Metrics.F1
	last := r.Rows[len(r.Rows)-1].Metrics.F1
	if last+0.05 < first {
		t.Errorf("full-data F1 %.2f below small-sample F1 %.2f", last, first)
	}
	// Sizes strictly increase.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].X <= r.Rows[i-1].X {
			t.Fatal("train sizes not increasing")
		}
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestRoundsCurve(t *testing.T) {
	r := run[*Sweep](t, (*Lab).RoundsCurve)
	if len(r.Rows) < 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The full ensemble must match the Table 6 run exactly (staged
	// prediction with n = NumTrees is the plain prediction).
	t6 := run[*Table6Result](t, (*Lab).Table6)
	full := r.Rows[len(r.Rows)-1].Metrics
	if full.Precision != t6.Overall.Precision || full.Recall != t6.Overall.Recall {
		t.Errorf("full-ensemble staged metrics %v != Table6 %v", full, t6.Overall)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}
