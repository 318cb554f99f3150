package experiments

import (
	"reflect"
	"testing"
)

// TestExperimentTable pins the one experiment list: ids non-empty and
// unique, fig9 naming fig8's entry, and the report order `catsbench
// -exp all` has always printed (the retired throughput/serve/corpus
// perf arms aside — bench/ measures those).
func TestExperimentTable(t *testing.T) {
	want := []string{
		"table1", "table3", "table4", "table5", "table6",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "appendix",
		"fig10", "fig11", "fig12", "fig13",
		"eplatform", "riskyusers", "timeaspect", "deployment", "thresholdsweep", "robustness",
		"drift", "learningcurve", "roundscurve", "graph",
		"filterablation", "featureablation", "lexiconablation", "gbtablation",
	}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("table order:\n got %v\nwant %v", got, want)
	}
	// want is duplicate-free, so equality above also proves uniqueness.
	for _, e := range Table {
		if got, ok := Lookup(e.ID); !ok || got.ID != e.ID || got.Run == nil {
			t.Errorf("Lookup(%q) = %q, %v (Run nil: %v)", e.ID, got.ID, ok, got.Run == nil)
		}
	}
	if e, ok := Lookup("fig9"); !ok || e.ID != "fig8" {
		t.Errorf("Lookup(fig9) = %q, %v; want fig8's entry", e.ID, ok)
	}
	for _, gone := range []string{"throughput", "serve", "corpus", "all", ""} {
		if _, ok := Lookup(gone); ok {
			t.Errorf("Lookup(%q) resolved", gone)
		}
	}
}
