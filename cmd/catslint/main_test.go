package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles the test binary as the catslint CLI: a child process
// with CATSLINT_RUN_MAIN set runs main() verbatim, which is what lets
// the tests below observe real exit codes without building a binary.
func TestMain(m *testing.M) {
	if os.Getenv("CATSLINT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCatslint re-execs the test binary as the CLI and returns its
// stdout, stderr, and exit code.
func runCatslint(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CATSLINT_RUN_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// corpusRoot is the fixture corpus, its own module (module fix). Under
// the repository's scoping none of its packages is deterministic or
// pinned, so what the CLI finds there are the rules that need no
// scoping (hotpath, handlelease, ctxflow, registryctx, metricvec);
// internal/lint's TestFixtureCorpus pins every finding of every rule.
func corpusRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestExitCodeCleanTree(t *testing.T) {
	stdout, stderr, code := runCatslint(t, "-root", filepath.Join("testdata", "cleanmod"))
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean run printed findings:\n%s", stdout)
	}
}

func TestExitCodeFindings(t *testing.T) {
	stdout, stderr, code := runCatslint(t, "-root", corpusRoot(t))
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "handle-lease") || !strings.Contains(stdout, "metric-discipline") {
		t.Fatalf("corpus findings missing expected rules:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Fatalf("stderr missing findings summary: %s", stderr)
	}
}

func TestExitCodeUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-rules", "no-such-rule", "-root", filepath.Join("testdata", "cleanmod")},
		{"-root", filepath.Join("testdata", "does-not-exist")},
		{"-no-such-flag"},
	} {
		_, stderr, code := runCatslint(t, args...)
		if code != 2 {
			t.Errorf("catslint %v: exit = %d, want 2\nstderr: %s", args, code, stderr)
		}
	}
}

func TestListNamesEveryRule(t *testing.T) {
	stdout, _, code := runCatslint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, rule := range []string{
		"hotpath-alloc", "map-range-determinism", "ctx-propagation",
		"no-wallclock-rand", "handle-lease", "metric-discipline",
	} {
		if !strings.Contains(stdout, rule) {
			t.Errorf("-list output missing %s", rule)
		}
	}
	if n := strings.Count(stdout, "\n"); n != 6 {
		t.Errorf("-list printed %d rules, want 6:\n%s", n, stdout)
	}
}

// TestJSONGolden pins the -json output schema byte for byte on a small
// stable slice of the corpus (handle-lease plus the always-shown
// lint-ignore finding). File paths are normalized to SRC so the golden
// is location-independent.
func TestJSONGolden(t *testing.T) {
	root := corpusRoot(t)
	stdout, stderr, code := runCatslint(t, "-root", root, "-json", "-rules", "handle-lease")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr)
	}

	// Schema check: exactly the five published keys on every finding.
	var raw []map[string]any
	if err := json.Unmarshal([]byte(stdout), &raw); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	for _, f := range raw {
		if len(f) != 5 {
			t.Fatalf("finding has %d keys, want 5 (rule, file, line, col, message): %v", len(f), f)
		}
		for _, key := range []string{"rule", "file", "line", "col", "message"} {
			if _, ok := f[key]; !ok {
				t.Fatalf("finding missing key %q: %v", key, f)
			}
		}
	}

	got := strings.ReplaceAll(stdout, root, "SRC")
	goldenPath := filepath.Join("testdata", "findings.golden.json")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-json output drifted from %s:\ngot:\n%s\nwant:\n%s", goldenPath, got, want)
	}
}

// TestJSONCleanTreeIsEmptyArray pins the clean-tree -json shape: an
// empty array, not null.
func TestJSONCleanTreeIsEmptyArray(t *testing.T) {
	stdout, _, code := runCatslint(t, "-json", "-root", filepath.Join("testdata", "cleanmod"))
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Fatalf("clean -json output = %q, want []", stdout)
	}
}
