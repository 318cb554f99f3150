package experiments

import (
	"context"
	"fmt"
)

// Experiment is one report catsbench can print: its id and the Lab
// method that produces it. Every experiment has this one shape, so an
// entry is a method expression and nothing adapts it.
type Experiment struct {
	ID  string
	Run func(*Lab, context.Context) (fmt.Stringer, error)
}

// Table declares every experiment once, in report order. `catsbench
// -exp all`, its -exp help text and the root BenchmarkExperiments are
// all derived from it. Performance is not in here: bench/ measures the
// real binaries (bench/README.md, "What this supersedes"); graph and
// drift stay because bench/ leaves the clustering layer and the
// retrain loop's F1 trajectory out on purpose.
var Table = []Experiment{
	{"table1", (*Lab).Table1},
	{"table3", (*Lab).Table3},
	{"table4", (*Lab).Table4},
	{"table5", (*Lab).Table5},
	{"table6", (*Lab).Table6},
	{"fig1", (*Lab).Fig1},
	{"fig2", (*Lab).Fig2},
	{"fig3", (*Lab).Fig3},
	{"fig4", (*Lab).Fig4},
	{"fig5", (*Lab).Fig5},
	{"fig7", (*Lab).Fig7},
	{"fig8", (*Lab).Fig8},
	{"appendix", (*Lab).Appendix},
	{"fig10", (*Lab).Fig10},
	{"fig11", (*Lab).Fig11},
	{"fig12", (*Lab).Fig12},
	{"fig13", (*Lab).Fig13},
	{"eplatform", (*Lab).EPlatform},
	{"riskyusers", (*Lab).RiskyUsers},
	{"timeaspect", (*Lab).TimeAspect},
	{"deployment", (*Lab).Deployment},
	{"thresholdsweep", (*Lab).ThresholdSweep},
	{"robustness", (*Lab).RobustnessSweep},
	{"drift", (*Lab).Drift},
	{"learningcurve", (*Lab).LearningCurve},
	{"roundscurve", (*Lab).RoundsCurve},
	{"graph", (*Lab).Graph},
	{"filterablation", (*Lab).FilterAblation},
	{"featureablation", (*Lab).FeatureGroupAblation},
	{"lexiconablation", (*Lab).LexiconSizeAblation},
	{"gbtablation", (*Lab).GBTAblation},
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
