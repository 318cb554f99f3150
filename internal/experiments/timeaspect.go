package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/ecom"
	"repro/internal/stats"
)

// TimeAspectResult extends the measurement study with a temporal view
// (beyond the paper's item/user/order aspects): promotion campaigns
// inject their comments in a short burst, while organic comments
// accumulate over an item's whole listing life. The per-item comment
// time span separates the two populations sharply.
type TimeAspectResult struct {
	// FraudSpan and NormalSpan are histograms of per-item comment time
	// spans in days.
	FraudSpan  *stats.Histogram
	NormalSpan *stats.Histogram
	KS         float64
	// MedianFraudDays and MedianNormalDays summarize the split.
	MedianFraudDays  float64
	MedianNormalDays float64
}

// TimeAspect measures comment time spans on the E-platform universe.
func (l *Lab) TimeAspect(context.Context) (fmt.Stringer, error) {
	ep := l.EPlat()
	spanDays := func(it *ecom.Item) (float64, bool) {
		if len(it.Comments) < 2 {
			return 0, false
		}
		var lo, hi time.Time
		for i := range it.Comments {
			d := it.Comments[i].Date
			if i == 0 || d.Before(lo) {
				lo = d
			}
			if i == 0 || d.After(hi) {
				hi = d
			}
		}
		return hi.Sub(lo).Hours() / 24, true
	}
	var fraud, normal []float64
	for i := range ep.Dataset.Items {
		it := &ep.Dataset.Items[i]
		s, ok := spanDays(it)
		if !ok {
			continue
		}
		if it.Label.IsFraud() {
			fraud = append(fraud, s)
		} else {
			normal = append(normal, s)
		}
	}
	res := &TimeAspectResult{
		FraudSpan:  stats.NewHistogram(fraud, 0, 200, 20),
		NormalSpan: stats.NewHistogram(normal, 0, 200, 20),
		KS:         stats.KS(fraud, normal),
	}
	res.MedianFraudDays = stats.Summarize(fraud).Median
	res.MedianNormalDays = stats.Summarize(normal).Median
	return res, nil
}

// String prints the time-aspect measurement.
func (r *TimeAspectResult) String() string {
	var b strings.Builder
	b.WriteString("Time aspect — per-item comment time span (days), fraud vs normal\n")
	fmt.Fprintf(&b, "  median span: fraud %.1f days, normal %.1f days (KS %.3f)\n",
		r.MedianFraudDays, r.MedianNormalDays, r.KS)
	b.WriteString("  campaigns land in bursts; organic comments accrue over the listing's life\n")
	return b.String()
}
