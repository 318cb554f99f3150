package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runFile is what -repeat -out writes and -compare reads: the runs and
// where they were made. baseline.json is one of these with two sets.
type runFile struct {
	Meta runMeta     `json:"meta"`
	Runs []runResult `json:"runs"`
}

type runMeta struct {
	NProc   int     `json:"nproc"`
	Go      string  `json:"go"`
	Commit  string  `json:"commit"`
	Machine string  `json:"machine"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Quick   bool    `json:"quick,omitempty"`
}

func collectMeta(seed int64, seconds float64, quick bool) runMeta {
	m := runMeta{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown", Seed: seed, Seconds: seconds, Quick: quick}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	m.Machine = runtime.GOOS + "/" + runtime.GOARCH
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.Machine += ", " + strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return m
}

// write saves the runs; when the file already exists they are appended
// to the runs in it (its meta is kept), which is how baseline.json comes
// to hold two sets.
func (f *runFile) write(path string) error {
	if b, err := os.ReadFile(path); err == nil {
		var prev runFile
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("%s exists and is not a run file: %w", path, err)
		}
		f = &runFile{Meta: prev.Meta, Runs: append(prev.Runs, f.Runs...)}
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readRuns loads a run file. "path#N" selects the runs whose set is N
// from a file that holds several sets (baseline.json).
func readRuns(arg string) ([]runResult, error) {
	path, setStr, hasSet := strings.Cut(arg, "#")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := 0
	if hasSet {
		if set, err = strconv.Atoi(setStr); err != nil {
			return nil, fmt.Errorf("%s: set %q is not a number", arg, setStr)
		}
	}
	var runs []runResult
	for _, r := range f.Runs {
		if !hasSet || r.Set == set {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", arg)
	}
	return runs, nil
}

// series collects one metric's values per workload from valid runs of
// the given pass.
func series(runs []runResult, trace int, pick func(*runResult) map[string]float64) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for i := range runs {
		r := &runs[i]
		if r.Trace != trace || r.Invalid != "" {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range pick(r) {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

func endToEndOf(r *runResult) map[string]float64 { return r.EndToEnd }
func layersOf(r *runResult) map[string]float64   { return r.Layers }

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// summarise prints each metric's median, quartiles and spread over
// repeated runs, per workload.
func summarise(runs []runResult) {
	for _, pass := range []struct {
		trace int
		specs []metricSpec
		pick  func(*runResult) map[string]float64
	}{{0, endToEnd, endToEndOf}, {1, perLayer, layersOf}} {
		byWorkload := series(runs, pass.trace, pass.pick)
		for _, w := range workloads {
			metrics := byWorkload[w.Name]
			if metrics == nil {
				continue
			}
			fmt.Printf("== %s over %d runs (trace %d)\n", w.Name, len(metrics[pass.specs[0].Name]), pass.trace)
			fmt.Printf("    %-34s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
			for _, s := range pass.specs {
				q1, q2, q3 := quartiles(metrics[s.Name])
				bound := ""
				if s.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*s.Bound)
				}
				fmt.Printf("    %-34s %12.4f %12.4f %12.4f %7.1f%% %8s  %s\n", s.Name, q1, q2, q3, 100*spread(metrics[s.Name]), bound, s.Unit)
			}
		}
	}
	for i := range runs {
		if runs[i].Invalid != "" {
			fmt.Printf("  run %d of %s left out as invalid: %s\n", i+1, runs[i].Workload, runs[i].Invalid)
		}
	}
}

// compareFiles prints, for every end-to-end metric of every workload,
// both medians, the change, and a verdict against the metric's bound:
// regressed (worse by more than the bound), unresolved (either side's
// spread is wider than the bound, so the medians prove nothing), else
// ok. Per-layer metrics are listed without a verdict. It returns the
// process exit code: 1 when anything regressed or failed.
func compareFiles(oldArg, newArg string) int {
	oldRuns, err := readRuns(oldArg)
	if err != nil {
		fatalf("%v", err)
	}
	newRuns, err := readRuns(newArg)
	if err != nil {
		fatalf("%v", err)
	}
	exit := 0
	for i := range newRuns {
		if !newRuns[i].Correct {
			fmt.Printf("FAILED: %s run in %s had %d failed operations\n", newRuns[i].Workload, newArg, newRuns[i].Failed)
			exit = 1
		}
	}
	oldE, newE := series(oldRuns, 0, endToEndOf), series(newRuns, 0, endToEndOf)
	for _, w := range workloads {
		if oldE[w.Name] == nil || newE[w.Name] == nil {
			continue
		}
		fmt.Printf("== %s, end to end (%d old runs, %d new)\n", w.Name, len(oldE[w.Name][endToEnd[0].Name]), len(newE[w.Name][endToEnd[0].Name]))
		fmt.Printf("    %-16s %12s %12s %9s %7s  %s\n", "metric", "old median", "new median", "change", "bound", "verdict")
		for _, s := range endToEnd {
			o, n := oldE[w.Name][s.Name], newE[w.Name][s.Name]
			verdict, change := judge(s, o, n)
			if verdict == "regressed" {
				exit = 1
			}
			fmt.Printf("    %-16s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n", s.Name, median(o), median(n), 100*change, 100*s.Bound, verdict)
		}
	}
	oldL, newL := series(oldRuns, 1, layersOf), series(newRuns, 1, layersOf)
	for _, w := range workloads {
		if oldL[w.Name] == nil || newL[w.Name] == nil {
			continue
		}
		fmt.Printf("== %s, per layer (no bounds)\n", w.Name)
		names := make([]string, 0, len(perLayer))
		for _, s := range perLayer {
			names = append(names, s.Name)
		}
		sort.Strings(names)
		for _, name := range names {
			o, n := median(oldL[w.Name][name]), median(newL[w.Name][name])
			change := 0.0
			if o != 0 {
				change = (n - o) / o
			}
			fmt.Printf("    %-34s %14.4f %14.4f %+8.1f%%\n", name, o, n, 100*change)
		}
	}
	return exit
}

// judge compares one metric's two samples. change is signed so that
// positive means worse.
func judge(s metricSpec, old, new []float64) (verdict string, change float64) {
	o, n := median(old), median(new)
	if o == 0 {
		return "unresolved", 0
	}
	change = (n - o) / o
	if s.Better == "higher" {
		change = -change
	}
	switch {
	case spread(old) > s.Bound || spread(new) > s.Bound:
		return "unresolved", change
	case change > s.Bound:
		return "regressed", change
	default:
		return "ok", change
	}
}
