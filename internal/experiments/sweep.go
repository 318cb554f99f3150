package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ecom"
	"repro/internal/ml/eval"
)

// Sweep is the report of an experiment that varies one setting and
// scores a detector at each value: the ablations, the learning and
// rounds curves, the vocabulary-shift robustness run.
type Sweep struct {
	Title string     `json:"title"`
	Rows  []SweepRow `json:"rows"`
}

// SweepRow is one setting's result. Label is the row as printed, up to
// the metrics; X is the setting where it is a number (vocabulary shift,
// lexicon cap, trees, training items, features kept, items the rule
// filter removed) and 0 where it is not.
type SweepRow struct {
	Label   string       `json:"label"`
	X       float64      `json:"x"`
	Metrics eval.Metrics `json:"metrics"`
}

// String prints the title and one "label metrics" line per row.
func (s *Sweep) String() string {
	var b strings.Builder
	b.WriteString(s.Title + "\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "  %s %s\n", r.Label, r.Metrics)
	}
	return b.String()
}

// evaluate runs det over labelled items and scores its verdicts under
// the one labelling convention (core.Evaluate).
func evaluate(ctx context.Context, det *core.Detector, items []ecom.Item) (eval.Metrics, error) {
	dets, err := det.DetectContext(ctx, items, 0)
	if err != nil {
		return eval.Metrics{}, err
	}
	return core.Evaluate(items, dets), nil
}
