package cats_test

// End-to-end integration test of the command-line tools: catsgen →
// cats (train, save) → cats (load, detect) → catsserve. Exercises the
// exact flows the README documents. Skipped under -short.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test; skipped with -short")
	}
	dir := t.TempDir()
	catsgen := buildTool(t, dir, "catsgen")
	catsBin := buildTool(t, dir, "cats")
	catsserve := buildTool(t, dir, "catsserve")
	catsbench := buildTool(t, dir, "catsbench")

	trainPath := filepath.Join(dir, "d0.jsonl")
	detectPath := filepath.Join(dir, "d1.jsonl")
	modelPath := filepath.Join(dir, "model.json")
	outPath := filepath.Join(dir, "dets.tsv")

	run := func(bin string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
		}
		return string(out)
	}

	// 1. Generate datasets.
	run(catsgen, "-dataset", "d0", "-scale", "0.004", "-out", trainPath)
	run(catsgen, "-dataset", "d1", "-scale", "0.0003", "-out", detectPath)

	// 2. Train, detect, save.
	run(catsBin, "-train", trainPath, "-detect", detectPath,
		"-corpus", "4000", "-save-model", modelPath, "-out", outPath)
	tsv, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(tsv)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "item_id\t") {
		t.Fatalf("unexpected TSV output:\n%s", string(tsv)[:min(200, len(tsv))])
	}

	// 3. Reload the model and detect again — output must match.
	out2 := filepath.Join(dir, "dets2.tsv")
	run(catsBin, "-load-model", modelPath, "-detect", detectPath, "-out", out2)
	tsv2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tsv, tsv2) {
		t.Fatal("detections differ between trained and reloaded model")
	}
	// A flag the loaded-model run would not read is refused by name.
	ignored := exec.Command(catsBin, "-load-model", modelPath, "-detect", detectPath, "-out", out2, "-threshold", "0.9")
	if out, err := ignored.CombinedOutput(); ignored.ProcessState.ExitCode() != 2 || !strings.Contains(string(out), "-threshold") {
		t.Fatalf("cats -load-model -threshold: %v, exit %d, want a usage error naming the flag:\n%s", err, ignored.ProcessState.ExitCode(), out)
	}

	// 4. One quick experiment through catsbench.
	benchOut := run(catsbench, "-exp", "table4", "-d0scale", "0.002")
	if !strings.Contains(benchOut, "Table IV") {
		t.Fatalf("catsbench output missing table: %s", benchOut)
	}

	// 5. Serve the model and query it.
	srv := exec.Command(catsserve, "-model", modelPath, "-addr", "127.0.0.1:18932")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	var healthy bool
	for i := 0; i < 50; i++ {
		resp, err := http.Get("http://127.0.0.1:18932/healthz")
		if err == nil {
			resp.Body.Close()
			healthy = resp.StatusCode == http.StatusOK
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !healthy {
		t.Fatal("catsserve never became healthy")
	}
	// Post the first few items from the detect set.
	f, err := os.Open(detectPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var items []json.RawMessage
	dec := json.NewDecoder(f)
	for len(items) < 5 {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			break
		}
		items = append(items, raw)
	}
	body, err := json.Marshal(map[string]any{"items": items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://127.0.0.1:18932/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status %d", resp.StatusCode)
	}
	var dr service.DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Detections) != len(items) {
		t.Fatalf("served %d detections for %d items", len(dr.Detections), len(items))
	}
	fmt.Fprintf(os.Stderr, "integration: served %d detections OK\n", len(dr.Detections))
}
