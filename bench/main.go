// Command bench is the repository's benchmark: it builds the shipped
// binaries, generates every input from a seed, drives the real
// catsserve over a loopback socket and the real cats CLI over a corpus
// file, checks every verdict against an in-process reference, and
// prints every metric by name with its unit. README.md in this
// directory defines the workloads and metrics.
//
// Usage (from the checkout root; bench/ is its own Go module):
//
//	bash bench/run.sh                       # all workloads, end-to-end pass
//	bash bench/run.sh -trace 1              # all workloads, per-layer pass
//	bash bench/run.sh -workload serve_hot -seed 2 -seconds 15 -trace 0
//	bash bench/run.sh -repeat 10 -out runs.json
//	bash bench/run.sh -compare old.json new.json
//
// `go run -C bench .` does the same with the ambient Go build cache.
// The last line of standard output of a single-workload run is the JSON
// object BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", defaultSeconds, "measuring time per run; phases are fractions of it")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced per-layer pass")
		quick    = flag.Bool("quick", false, "tiny models and corpora, one set-up: a smoke run, not a measurement")
		repeat   = flag.Int("repeat", 1, "run the selection this many times and summarise medians and quartiles")
		out      = flag.String("out", "", "write every run to this JSON file, appending if it exists (input of -compare)")
		set      = flag.Int("set", 0, "with -out: number this invocation's runs as a set, selectable as file.json#N in -compare")
		compare  = flag.Bool("compare", false, "compare two run files: bench -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	if *seconds <= 0 || *repeat < 1 {
		fatalf("-seconds and -repeat must be positive")
	}
	var selected []workloadSpec
	if *workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*workload); ok {
		selected = []workloadSpec{w}
	} else {
		fatalf("unknown workload %q", *workload)
	}
	sz := normalSizes
	if *quick {
		sz = quickSizes
	}
	// One sender per connection and nothing else of weight: the
	// generator gets as many processors as it has connections.
	runtime.GOMAXPROCS(connCount())

	file := runFile{Meta: collectMeta(*seed, *seconds, *quick)}
	exit := 0
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			fmt.Printf("== %s (seed %d, %.0f s, trace %d", w.Name, *seed, *seconds, *trace)
			if *repeat > 1 {
				fmt.Printf(", run %d of %d", rep+1, *repeat)
			}
			fmt.Println(")")
			res, err := runWorkload(runConfig{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, sz: sz})
			if err != nil {
				fatalf("%v", err)
			}
			res.Set = *set
			printResult(res)
			file.Runs = append(file.Runs, *res)
			if !res.Correct {
				exit = 1
			}
			if len(selected) == 1 && *repeat == 1 {
				printContractLine(res)
			}
		}
	}
	if *repeat > 1 {
		summarise(file.Runs)
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fatalf("%v", err)
		}
	}
	os.Exit(exit)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// cleanupOnSignal kills the children and removes the scratch directory
// when the benchmark itself is interrupted; the returned function stops
// watching.
func cleanupOnSignal(h *harness) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			h.cleanup()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// printResult lists the run's metrics by name and unit.
func printResult(res *runResult) {
	specs, values := endToEnd, res.EndToEnd
	if res.Trace == 1 {
		fmt.Println("  end to end (tracing on: for reading, not for comparing):")
		for _, s := range endToEnd {
			fmt.Printf("    %-34s %14.4f %s\n", s.Name, res.EndToEnd[s.Name], s.Unit)
		}
		fmt.Println("  per layer:")
		specs, values = perLayer, res.Layers
	}
	for _, s := range specs {
		fmt.Printf("    %-34s %14.4f %s", s.Name, values[s.Name], s.Unit)
		if raw, ok := res.Raw[s.Name]; ok && res.Trace == 0 {
			fmt.Printf("   (as timed: %.4f)", raw)
		}
		fmt.Println()
	}
	fmt.Printf("  yardstick: median %.2f ms against the reference %.2f ms — the host ran at %.0f%% of reference speed\n",
		res.YardMS, yardstickRefMS, 100*yardstickRefMS/res.YardMS)
	fmt.Printf("  correct %v: %d operations attempted, %d failed\n", res.Correct, res.Attempted, res.Failed)
	for _, p := range res.problems {
		fmt.Printf("  mismatch: %s\n", p)
	}
	if res.Invalid != "" {
		fmt.Printf("  INVALID RUN (not a slow one): %s\n", res.Invalid)
	}
}

// contractLine is the driver's result object.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the single JSON object the driver reads as
// the last line of standard output: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one.
func printContractLine(res *runResult) {
	specs, values := endToEnd, res.EndToEnd
	if res.Trace == 1 {
		specs, values = perLayer, res.Layers
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for _, s := range specs {
		line.Metrics[s.Name] = contractMetric{Value: values[s.Name], Unit: s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}
