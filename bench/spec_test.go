package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// benchmarkJSON is the driver's manifest at the checkout root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

// perLayerJSON is a per-layer entry: the manifest allows no bound key
// there, not even an empty one.
type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func manifestFromSpec() benchmarkJSON {
	m := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, perLayerJSON{s.Name, s.Unit, s.Better})
	}
	return m
}

// TestBenchmarkJSONMatchesSpec keeps the manifest and spec.go in step:
// the names printed by the program are the names the driver expects.
// `go test -run BenchmarkJSON -update` regenerates the file.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(manifestFromSpec()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("%s is out of step with spec.go; run `go test -run BenchmarkJSON -update` in bench/", path)
	}
}

// TestSpecWithinManifestLimits checks the limits a manifest is refused
// for, so a rename cannot break the driver unnoticed.
func TestSpecWithinManifestLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a valid manifest name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, s := range endToEnd {
		check("end-to-end", s.Name)
		if !unit.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", s.Name, s.Unit, s.Better)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Name == "setup_s" {
			hasSetup = s.Unit == "s" && s.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, s := range perLayer {
		check("per-layer", s.Name)
		if !unit.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") || s.Bound != 0 {
			t.Errorf("per-layer %s: unit %q, better %q, bound %g", s.Name, s.Unit, s.Better, s.Bound)
		}
	}
	for name := range serveSpecs {
		if w, ok := workloadByName(name); !ok || !w.serve {
			t.Errorf("serveSpecs names %q, which is not a serve workload", name)
		}
	}
}
