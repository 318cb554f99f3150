package main

import (
	"math"
	"testing"
	"time"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile
		// chosen, and the next candidate up would leave fewer.
		p := topPercentile(c.n)
		if p > 50 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 10: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(p%g) = %g, want %g", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestWindowStatTakesMedianOfWindowStats(t *testing.T) {
	// Three one-second windows with medians 1, 100 and 3: one bad second
	// moves one window, not the figure.
	var obs []timed
	for w, v := range []float64{1, 100, 3} {
		for i := 0; i < 5; i++ {
			obs = append(obs, timed{at: time.Duration(w)*time.Second + time.Duration(i)*100*time.Millisecond, value: v})
		}
	}
	// A trailing partial window must not count.
	obs = append(obs, timed{at: 3*time.Second + time.Millisecond, value: 1e6})
	p50 := func(s []float64) float64 { return percentile(s, 50) }
	if got := windowStat(obs, time.Second, 3500*time.Millisecond, p50); got != 3 {
		t.Errorf("windowStat = %g, want 3", got)
	}
	// No full window: the statistic runs over everything.
	if got := windowStat(obs[:5], time.Second, 500*time.Millisecond, p50); got != 1 {
		t.Errorf("windowStat without a full window = %g, want 1", got)
	}
}

func TestBacklogRunsInEvenChunks(t *testing.T) {
	ops := make([]op, 1003)
	parts := splitEvenly(ops, 8)
	total := 0
	for i, p := range parts {
		total += len(p)
		if i < 7 && len(p) != 125 {
			t.Errorf("chunk %d holds %d ops, want 125", i, len(p))
		}
	}
	if len(parts) != 8 || total != len(ops) {
		t.Errorf("%d chunks holding %d ops, want 8 holding %d", len(parts), total, len(ops))
	}
	if got := splitEvenly(ops[:3], 8); len(got) != 3 {
		t.Errorf("3 ops in %d chunks, want one each", len(got))
	}
}

// TestYardstickScale pins the direction of the scaling: on a machine
// running at half the reference speed a timing is halved.
func TestYardstickScale(t *testing.T) {
	if got := scale(2*yardstickRefMS, 2*yardstickRefMS); got != 0.5 {
		t.Errorf("scale at half speed = %g, want 0.5", got)
	}
	if got := scale(yardstickRefMS/2, 3*yardstickRefMS/2); got != 1 {
		t.Errorf("scale of readings averaging the reference = %g, want 1", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	for i, pair := range [][2]float64{{q1, 3.5}, {q2, 13.5}, {q3, 31}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("quartile %d = %g, want %g", i+1, pair[0], pair[1])
		}
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three values = %g %g %g", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "job_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "items_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v * 1.002} }
	for _, c := range []struct {
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{lower, steady(1), steady(1.05), "ok"},
		{lower, steady(1), steady(1.2), "regressed"},
		{lower, steady(1), steady(0.5), "ok"},
		{higher, steady(100), steady(80), "regressed"},
		{higher, steady(100), steady(130), "ok"},
		{lower, steady(1), []float64{0.7, 1, 1.3, 1.6, 1.2}, "unresolved"},
	} {
		if got, _ := judge(c.spec, c.old, c.new); got != c.want {
			t.Errorf("judge(%s, %v → %v) = %s, want %s", c.spec.Name, c.old, c.new, got, c.want)
		}
	}
}
