// Command catslint runs the project's invariant linter over the module
// tree, five rules: the zero-allocation hot path (//cats:hotpath),
// map-iteration determinism, context propagation, wall-clock/randomness
// hygiene, and obs label discipline (metric-discipline). It exits 0 when
// the tree is clean, 1 when there are findings, and 2 on a load or usage
// error.
//
// Usage:
//
//	catslint [-root dir] [-rules r1,r2] [-json] [-list]
//
// Findings print as file:line:col: rule: message; -json emits a JSON
// array instead. Suppress a finding in source with
// //lint:ignore <rule> <reason> on the offending line or the line
// directly above it. Which packages each package-scoped rule covers is
// the repository's policy, lint.DefaultConfig, and not a flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	root := flag.String("root", ".", "module root (directory containing go.mod)")
	rules := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	list := flag.Bool("list", false, "list the rules and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-24s %s\n", a.Name, a.Doc)
		}
		return
	}

	keep := map[string]bool{}
	if *rules != "" {
		known := map[string]bool{}
		for _, a := range lint.Analyzers() {
			known[a.Name] = true
		}
		for _, r := range strings.Split(*rules, ",") {
			r = strings.TrimSpace(r)
			if !known[r] {
				fmt.Fprintf(os.Stderr, "catslint: unknown rule %q (try -list)\n", r)
				os.Exit(2)
			}
			keep[r] = true
		}
	}

	diags, err := lint.NewRunner().LintModule(*root, lint.DefaultConfig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catslint: %v\n", err)
		os.Exit(2)
	}
	if len(keep) > 0 {
		filtered := diags[:0]
		for _, d := range diags {
			// lint-ignore findings (malformed suppressions) always show.
			if keep[d.Rule] || d.Rule == "lint-ignore" {
				filtered = append(filtered, d)
			}
		}
		diags = filtered
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "catslint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "catslint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}
