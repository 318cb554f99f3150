package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// want is one expected diagnostic: a rule pinned to an exact line of
// the fixture, with a distinguishing message fragment.
type want struct {
	rule string
	line int
	sub  string
}

// fixtureCfg scopes the package-scoped rules onto the fixture packages
// the way DefaultConfig scopes them onto the real tree.
var fixtureCfg = Config{
	DeterministicPkgs:    []string{"fix/wallclock", "fix/obsfix", "fix/obsbridge"},
	PinnedOrderPkgs:      []string{"fix/maprange"},
	WallclockExemptPkgs:  []string{"fix/obsfix"},
	WallclockBridges:     map[string][]string{"fix/obsfix": {"StartSpan"}},
	MetricLabelAllowlist: []string{"tenant", "route"},
}

func TestFixtureCorpus(t *testing.T) {
	r := NewRunner()
	// Pre-load the stand-in dependency packages so fixtures importing
	// them type-check regardless of subtest filtering order.
	for _, dep := range []string{"obsfix", "obsvec"} {
		if _, err := r.load(filepath.Join("testdata", "src", dep), "fix/"+dep); err != nil {
			t.Fatalf("load %s fixture: %v", dep, err)
		}
	}
	cases := []struct {
		pkg  string
		want []want
	}{
		{
			pkg: "hotpath",
			want: []want{
				{"hotpath-alloc", 12, "string conversion copies"},
				{"hotpath-alloc", 13, "[]byte conversion copies"},
				{"hotpath-alloc", 14, "fmt.Sprintf allocates"},
				{"hotpath-alloc", 21, "make allocates"},
				{"hotpath-alloc", 22, "map literal allocates"},
				{"hotpath-alloc", 25, `append to "fresh"`},
				{"hotpath-alloc", 27, `closure captures "total"`},
			},
		},
		{
			pkg: "maprange",
			want: []want{
				{"map-range-determinism", 8, "range over map map[string]float64"},
				{"lint-ignore", 28, "has no reason"},
				{"map-range-determinism", 29, "range over map map[string]int"},
			},
		},
		{
			pkg: "ctxflow",
			want: []want{
				{"ctx-propagation", 15, "context.Background inside Handler"},
				{"ctx-propagation", 15, "not given the caller's ctx"},
				{"ctx-propagation", 16, "not given the caller's ctx"},
			},
		},
		{
			// The registry's load → validate → publish shape: probe
			// validation must ride the reload's context.
			pkg: "registryctx",
			want: []want{
				{"ctx-propagation", 20, "context.Background inside Load"},
				{"ctx-propagation", 20, "not given the caller's ctx"},
			},
		},
		{
			pkg: "wallclock",
			want: []want{
				{"no-wallclock-rand", 12, "time.Now reads the wall clock"},
				{"no-wallclock-rand", 17, "math/rand.Float64 uses the globally-seeded source"},
			},
		},
		{
			// Deterministic in the fixture config, but exempted through
			// WallclockExemptPkgs: its time.Now/Since calls are clean
			// without any inline ignore.
			pkg:  "obsfix",
			want: nil,
		},
		{
			// Deterministic package laundering the wall clock through the
			// obs span API: the bridge call is flagged, the counter-shaped
			// Observe call is not.
			pkg: "obsbridge",
			want: []want{
				{"no-wallclock-rand", 13, "reads the wall clock through fix/obsfix"},
			},
		},
		{
			pkg: "metricvec",
			want: []want{
				{"metric-discipline", 23, "1 label values; the family declares 2"},
				{"metric-discipline", 28, `declares "tenant" at position 1`},
				{"metric-discipline", 33, "depends on userID"},
				{"metric-discipline", 41, "With inside //cats:hotpath score"},
				{"metric-discipline", 59, "2 label values; the family declares 1"},
				{"metric-discipline", 66, "depends on suffix()"},
				{"metric-discipline", 67, "depends on key()"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.pkg)
			diags, err := r.LintDir(dir, "fix/"+tc.pkg, fixtureCfg)
			if err != nil {
				t.Fatalf("lint %s: %v", dir, err)
			}
			if len(diags) != len(tc.want) {
				t.Errorf("got %d diagnostics, want %d:\n%s", len(diags), len(tc.want), render(diags))
			}
			unmatched := append([]Diagnostic(nil), diags...)
			for _, w := range tc.want {
				i := match(unmatched, w)
				if i < 0 {
					t.Errorf("missing diagnostic %s at line %d containing %q\ngot:\n%s", w.rule, w.line, w.sub, render(diags))
					continue
				}
				unmatched = append(unmatched[:i], unmatched[i+1:]...)
			}
			for _, d := range unmatched {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		})
	}
}

// match returns the index of the first diagnostic matching w, or -1.
func match(diags []Diagnostic, w want) int {
	for i, d := range diags {
		if d.Rule == w.rule && d.Line == w.line && strings.Contains(d.Message, w.sub) {
			return i
		}
	}
	return -1
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// TestRepoIsClean runs the full suite over the repository itself: the
// tree must lint clean — any finding is either a real regression of a
// pinned invariant or needs an explicit //lint:ignore with a reason.
func TestRepoIsClean(t *testing.T) {
	diags, err := NewRunner().LintModule(filepath.Join("..", ".."), DefaultConfig)
	if err != nil {
		t.Fatalf("lint module: %v", err)
	}
	if len(diags) > 0 {
		t.Errorf("catslint found %d issue(s) in the repository:\n%s", len(diags), render(diags))
	}
}

// TestRepoHasHotpathAnnotations guards the annotation contract itself:
// if someone strips the //cats:hotpath markers, the alloc rule silently
// stops checking anything, so assert the known hot-path surfaces stay
// annotated.
func TestRepoHasHotpathAnnotations(t *testing.T) {
	r := NewRunner()
	if _, err := r.LintModule(filepath.Join("..", ".."), DefaultConfig); err != nil {
		t.Fatalf("lint module: %v", err)
	}
	counts := map[string]int{}
	for path, p := range r.loaded {
		for _, fn := range p.funcDecls() {
			if isHotpath(fn) {
				counts[path]++
			}
		}
	}
	for _, pkg := range []string{
		"repro/internal/tokenize",
		"repro/internal/features",
		"repro/internal/stats",
		"repro/internal/ml/gbt",
		"repro/internal/sentiment",
		"repro/internal/colfmt",
		"repro/internal/core",
		"repro/internal/dataset",
		"repro/internal/graph",
	} {
		if counts[pkg] == 0 {
			t.Errorf("package %s has no //cats:hotpath annotations left", pkg)
		}
	}
}

// TestAnalyzerNamesStable pins the rule names: suppression comments in
// the tree reference them, so a rename is a breaking change.
func TestAnalyzerNamesStable(t *testing.T) {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	want := []string{
		"ctx-propagation",
		"hotpath-alloc",
		"map-range-determinism",
		"metric-discipline",
		"no-wallclock-rand",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("analyzer names = %v, want %v", names, want)
	}
}
