package experiments

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
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

// TestReportsGolden holds every table entry's printed report on the
// shared test lab to testdata/reports.golden, so a refactoring of the
// runner cannot change a byte of what `catsbench` prints. Graph's
// phases and memory lines are wall times and peak RSS, the only text
// that differs between two runs; they are dropped. Regenerate with
//
//	CATS_UPDATE_GOLDEN=1 go test -run TestReportsGolden ./internal/experiments
func TestReportsGolden(t *testing.T) {
	l := testLab(t)
	var b strings.Builder
	for _, e := range Table {
		out, err := e.Run(l, context.Background())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&b, "== %s ==\n", e.ID)
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			if e.ID == "graph" && (strings.HasPrefix(line, "  phases ") || strings.HasPrefix(line, "  memory ")) {
				continue
			}
			b.WriteString(line)
		}
	}
	const path = "testdata/reports.golden"
	if os.Getenv("CATS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with CATS_UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("report text differs from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report text differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
