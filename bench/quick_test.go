package main

import (
	"math"
	"testing"
)

// TestQuickRun is the benchmark's own CI hook: every workload runs once
// at -quick sizes with the traced pass on (which also fills the
// end-to-end metrics), and every metric named in spec.go must come out
// exactly once with a finite value, with no failed operation. It needs
// the go toolchain on PATH to build cats and catsserve.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(runConfig{workload: w, seed: 1, seconds: 1.5, trace: true, sz: quickSizes})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, res.problems)
			}
			check := func(kind string, specs []metricSpec, got map[string]float64) {
				if len(got) != len(specs) {
					t.Errorf("%s: %d metrics emitted, spec.go names %d", kind, len(got), len(specs))
				}
				for _, s := range specs {
					v, ok := got[s.Name]
					if !ok {
						t.Errorf("%s metric %s was not emitted", kind, s.Name)
					} else if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s metric %s = %v", kind, s.Name, v)
					}
				}
			}
			check("end-to-end", endToEnd, res.EndToEnd)
			check("per-layer", perLayer, res.Layers)
			for _, s := range endToEnd {
				if res.EndToEnd[s.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v; these must never be 0", s.Name, res.EndToEnd[s.Name])
				}
			}
			if res.Layers["failed_share"] != 0 {
				t.Errorf("failed_share = %v", res.Layers["failed_share"])
			}
		})
	}
}
