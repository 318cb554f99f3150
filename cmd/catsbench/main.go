// Command catsbench regenerates every table and figure of the paper's
// evaluation on the synthetic stand-in universes, printing each in a
// paper-like textual format.
//
// Usage:
//
//	catsbench [-exp all|<id>] [-d0scale f] [-d1scale f] [-epscale f]
//	          [-sample n] [-corpus n] [-graphusers n] [-graphedges n]
//	          [-seed n] [-json]
//
// The ids are the entries of experiments.Table; `catsbench -h` lists
// them. Performance is measured by bench/ (bash bench/run.sh), not here.
//
// Scales default to laptop-sized fractions of the paper's dataset
// sizes; raise them toward 1.0 to approach the full-size experiments.
//
// With -json, each experiment additionally writes a machine-readable
// BENCH_<exp>.json in the working directory recording wall time,
// allocation counts, and the experiment's result value — the repo's
// perf trajectory as data instead of prose.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "'all' or one of: "+strings.Join(experiments.IDs(), " "))
		d0scale = flag.Float64("d0scale", 0, "D0 scale factor (default 0.1)")
		d1scale = flag.Float64("d1scale", 0, "D1 scale factor (default 0.008)")
		epscale = flag.Float64("epscale", 0, "E-platform scale factor (default 0.002)")
		sample  = flag.Int("sample", 0, "per-class item sample for distribution figures (default 400)")
		corpus  = flag.Int("corpus", 0, "word2vec corpus comments (default 20000)")
		gusers  = flag.Int("graphusers", 0, "graph-experiment user pool (default 200000)")
		gedges  = flag.Int("graphedges", 0, "graph-experiment edge count (default 2000000)")
		seed    = flag.Int64("seed", 0, "seed offset for all universes")
		asJSON  = flag.Bool("json", false, "also write BENCH_<exp>.json per experiment (ns, allocs, result)")
	)
	flag.Parse()

	lab := experiments.NewLab(experiments.Config{
		D0Scale: *d0scale, D1Scale: *d1scale, EPlatScale: *epscale,
		SampleItems: *sample, CorpusComments: *corpus,
		GraphUsers: *gusers, GraphEdges: *gedges, Seed: *seed,
	})
	if err := run(lab, *exp, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "catsbench:", err)
		os.Exit(1)
	}
}

// benchRecord is the BENCH_<exp>.json payload: one experiment run's
// wall time and allocation cost, plus its result value so downstream
// tooling can read e.g. the graph run's phase seconds without parsing
// the textual report.
type benchRecord struct {
	Exp        string    `json:"exp"`
	RunAt      time.Time `json:"run_at"`
	ElapsedNs  int64     `json:"elapsed_ns"`
	NsPerOp    int64     `json:"ns_per_op"` // one experiment run is one op
	Mallocs    uint64    `json:"allocs_per_op"`
	BytesAlloc uint64    `json:"bytes_per_op"`
	Result     any       `json:"result,omitempty"`
}

func run(lab *experiments.Lab, exp string, asJSON bool) error {
	if exp == "all" {
		for _, id := range experiments.IDs() {
			if err := run(lab, id, asJSON); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	e, ok := experiments.Lookup(exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q; valid ids: all %s", exp, strings.Join(experiments.IDs(), " "))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, bytes := ms.Mallocs, ms.TotalAlloc
	start := time.Now()
	out, err := e.Run(lab, context.Background())
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Print(out.String())
	fmt.Printf("  [%s in %v]\n\n", exp, elapsed.Round(time.Millisecond))
	if asJSON {
		runtime.ReadMemStats(&ms)
		rec := benchRecord{
			Exp:        exp,
			RunAt:      time.Now().UTC(),
			ElapsedNs:  elapsed.Nanoseconds(),
			NsPerOp:    elapsed.Nanoseconds(),
			Mallocs:    ms.Mallocs - mallocs,
			BytesAlloc: ms.TotalAlloc - bytes,
			Result:     out,
		}
		if err := writeBenchJSON(rec); err != nil {
			return fmt.Errorf("write BENCH_%s.json: %w", exp, err)
		}
	}
	return nil
}

// writeBenchJSON writes one experiment's benchRecord to BENCH_<exp>.json
// in the working directory. Results that don't marshal (none today —
// every experiment result is a plain exported struct) degrade to their
// String form rather than failing the run.
func writeBenchJSON(rec benchRecord) error {
	if _, err := json.Marshal(rec.Result); err != nil {
		rec.Result = fmt.Sprint(rec.Result)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%s.json", rec.Exp), append(data, '\n'), 0o644)
}
