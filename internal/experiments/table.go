package experiments

import (
	"context"
	"fmt"
)

// Experiment is one report catsbench can print: its id and the Lab
// method that produces it.
type Experiment struct {
	ID  string
	Run func(context.Context, *Lab) (fmt.Stringer, error)
}

// Table declares every experiment once, in report order. `catsbench
// -exp all`, its -exp help text and the root BenchmarkExperiments are
// all derived from it. Performance is not in here: bench/ measures the
// real binaries (bench/README.md, "What this supersedes"); graph and
// drift stay because bench/ leaves the clustering layer and the
// retrain loop's F1 trajectory out on purpose.
var Table = []Experiment{
	fallible("table1", (*Lab).Table1),
	fallible("table3", (*Lab).Table3),
	pure("table4", (*Lab).Table4),
	pure("table5", (*Lab).Table5),
	fallible("table6", (*Lab).Table6),
	fallible("fig1", (*Lab).Fig1),
	fallible("fig2", (*Lab).Fig2),
	fallible("fig3", (*Lab).Fig3),
	fallible("fig4", (*Lab).Fig4),
	fallible("fig5", (*Lab).Fig5),
	fallible("fig7", (*Lab).Fig7),
	fallible("fig8", (*Lab).Fig8),
	fallible("appendix", (*Lab).Appendix),
	fallible("fig10", (*Lab).Fig10),
	pure("fig11", (*Lab).Fig11),
	pure("fig12", (*Lab).Fig12),
	fallible("fig13", (*Lab).Fig13),
	{"eplatform", func(ctx context.Context, l *Lab) (fmt.Stringer, error) { return l.EPlatform(ctx) }},
	pure("riskyusers", (*Lab).RiskyUsers),
	pure("timeaspect", (*Lab).TimeAspect),
	fallible("deployment", (*Lab).Deployment),
	fallible("thresholdsweep", (*Lab).ThresholdSweep),
	fallible("robustness", (*Lab).RobustnessSweep),
	fallible("drift", (*Lab).Drift),
	fallible("learningcurve", (*Lab).LearningCurve),
	fallible("roundscurve", (*Lab).RoundsCurve),
	fallible("graph", (*Lab).Graph),
	fallible("filterablation", (*Lab).FilterAblation),
	fallible("featureablation", (*Lab).FeatureGroupAblation),
	fallible("lexiconablation", (*Lab).LexiconSizeAblation),
	fallible("gbtablation", (*Lab).GBTAblation),
}

// fallible and pure adapt the two Lab method shapes to a table entry.
func fallible[T fmt.Stringer](id string, f func(*Lab) (T, error)) Experiment {
	return Experiment{id, func(_ context.Context, l *Lab) (fmt.Stringer, error) { return f(l) }}
}

func pure[T fmt.Stringer](id string, f func(*Lab) T) Experiment {
	return Experiment{id, func(_ context.Context, l *Lab) (fmt.Stringer, error) { return f(l), nil }}
}

// Lookup resolves an experiment id. fig9 (the normal items' word
// cloud) is printed by Fig8's report, so it names fig8's entry.
func Lookup(id string) (Experiment, bool) {
	if id == "fig9" {
		id = "fig8"
	}
	for _, e := range Table {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists the table's ids in report order.
func IDs() []string {
	ids := make([]string, len(Table))
	for i, e := range Table {
		ids[i] = e.ID
	}
	return ids
}
