package registry

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/ecom"
	"repro/internal/synth"
	"repro/internal/textgen"
)

// trainSnapshot trains a small detector from the given seeds and
// returns it with its snapshot, so tests can load the same model into
// the registry and compute reference outputs outside it.
func trainSnapshot(t testing.TB, trainSeed int64, cfg core.DetectorConfig) (*core.Detector, *core.Analyzer, *core.DetectorSnapshot) {
	t.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(600, 91)
	analyzer, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(analyzer, cfg)
	train := synth.Generate(synth.Config{
		Name: "reg-train", Seed: trainSeed, FraudEvidence: 60, Normal: 90, Shops: 5,
	})
	if err := det.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := det.Snapshot(bank.Vocabulary(), analyzer)
	if err != nil {
		t.Fatal(err)
	}
	return det, analyzer, snap
}

func testItems(t testing.TB, seed int64) []ecom.Item {
	t.Helper()
	u := synth.Generate(synth.Config{
		Name: "reg-test", Seed: seed, FraudEvidence: 8, Normal: 16, Shops: 3,
	})
	return u.Dataset.Items
}

func boolPtr(b bool) *bool { return &b }

func TestLoadPublishesModel(t *testing.T) {
	_, _, snap := trainSnapshot(t, 101, core.DetectorConfig{})
	r := New(Options{})
	info, err := r.Load(context.Background(), "taobao", "m1", snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tenant != "taobao" || info.Version != "m1" || info.Generation != 1 {
		t.Fatalf("info = %+v", info)
	}
	tn := r.Tenant("taobao")
	if tn == nil {
		t.Fatal("tenant not registered")
	}
	h := tn.Acquire()
	if h == nil {
		t.Fatal("no handle after load")
	}
	defer h.Release()
	if h.Detector == nil || h.Analyzer == nil {
		t.Fatal("handle missing detector or analyzer")
	}
	if got, _, ok := tn.Version(); !ok || got != "m1" {
		t.Fatalf("Version() = %q, %v", got, ok)
	}
	dets, err := h.Detector.Detect(testItems(t, 11), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("no detections from published model")
	}
}

// TestProbeRejection pins the validation gate: a candidate that misses
// more WantFraud expectations than the probe set allows is rejected,
// the previous model stays live, and the rejection counter moves.
func TestProbeRejection(t *testing.T) {
	det, _, snap := trainSnapshot(t, 102, core.DetectorConfig{})
	items := testItems(t, 12)
	dets, err := det.Detect(items, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Honest probes: expect exactly what the model produces.
	good := ProbeSet{}
	for i := range items {
		good.Probes = append(good.Probes, Probe{Item: items[i], WantFraud: boolPtr(dets[i].IsFraud)})
	}
	// Poisoned probes: invert every expectation.
	bad := ProbeSet{}
	for i := range items {
		bad.Probes = append(bad.Probes, Probe{Item: items[i], WantFraud: boolPtr(!dets[i].IsFraud)})
	}

	r := New(Options{Probes: good})
	if _, err := r.Load(context.Background(), "eplatform", "v1", snap); err != nil {
		t.Fatalf("honest probes rejected a matching model: %v", err)
	}

	r.SetProbes("eplatform", bad)
	if _, err := r.Load(context.Background(), "eplatform", "v2", snap); !errors.Is(err, ErrProbeRejected) {
		t.Fatalf("poisoned probes admitted the model: %v", err)
	}
	if v, gen, ok := r.Tenant("eplatform").Version(); !ok || v != "v1" || gen != 1 {
		t.Fatalf("rejected load replaced the live model: %q gen %d", v, gen)
	}
	tm := r.Tenant("eplatform").m
	if tm.reloadOK.Value() != 1 || tm.reloadRejected.Value() != 1 {
		t.Fatalf("reload counters ok=%d rejected=%d, want 1/1",
			tm.reloadOK.Value(), tm.reloadRejected.Value())
	}

	// MaxMismatches headroom admits a partially-drifting candidate.
	tolerant := ProbeSet{Probes: bad.Probes, MaxMismatches: len(bad.Probes)}
	r.SetProbes("eplatform", tolerant)
	if _, err := r.Load(context.Background(), "eplatform", "v3", snap); err != nil {
		t.Fatalf("tolerant probe set rejected: %v", err)
	}
}

// TestLoadFileErrorsAreDiagnosable pins the satellite contract: a
// truncated snapshot surfaces the decode byte offset and the snapshot
// version in the reload error, and counts as outcome=error.
func TestLoadFileErrorsAreDiagnosable(t *testing.T) {
	_, _, snap := trainSnapshot(t, 103, core.DetectorConfig{})
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "model.json")
	if err := os.WriteFile(full, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.json")
	if err := os.WriteFile(trunc, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r := New(Options{})
	errBefore := metricsByTenant.For("taobao").reloadError.Value()
	if _, err := r.LoadFile(context.Background(), "taobao", full); err != nil {
		t.Fatal(err)
	}
	_, err := r.LoadFile(context.Background(), "taobao", trunc)
	if err == nil {
		t.Fatal("truncated snapshot loaded")
	}
	if !strings.Contains(err.Error(), "byte offset") {
		t.Errorf("truncation error lacks byte offset: %v", err)
	}
	if !strings.Contains(err.Error(), trunc) {
		t.Errorf("truncation error lacks path: %v", err)
	}
	if v, gen, ok := r.Tenant("taobao").Version(); !ok || gen != 1 || !strings.HasPrefix(v, "model.json#") {
		t.Fatalf("failed reload disturbed the live model: %q gen %d ok %v", v, gen, ok)
	}
	if got := r.Tenant("taobao").m.reloadError.Value() - errBefore; got != 1 {
		t.Fatalf("reloadError delta = %d, want 1", got)
	}

	// Reload re-reads the remembered source; rewriting the file and
	// reloading bumps the generation with a new content hash.
	if err := os.WriteFile(full, append(buf.Bytes(), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := r.Reload(context.Background(), "taobao")
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 {
		t.Fatalf("generation after reload = %d, want 2", info.Generation)
	}
}

// TestLoadFileVersionIsContentHash: a file load's version is its base
// name and a 64-bit content hash in 16 hex digits. The same bytes give
// the same version under any name; a one-byte change gives a new one.
func TestLoadFileVersionIsContentHash(t *testing.T) {
	_, _, snap := trainSnapshot(t, 104, core.DetectorConfig{})
	var buf bytes.Buffer
	if err := core.WriteSnapshotFormat(&buf, snap, core.FormatColumnar); err != nil {
		t.Fatal(err)
	}
	// The same model with one byte changed: the JSON encoding's
	// trailing newline as a space.
	var js bytes.Buffer
	if err := core.WriteSnapshot(&js, snap); err != nil {
		t.Fatal(err)
	}
	edited := bytes.Clone(js.Bytes())
	edited[len(edited)-1] = ' '
	dir := t.TempDir()
	files := map[string][]byte{"a.catc": buf.Bytes(), "b.catc": buf.Bytes(), "c.json": js.Bytes(), "d.json": edited}
	hash := map[string]string{}
	r := New(Options{})
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := r.LoadFile(context.Background(), "taobao", path)
		if err != nil {
			t.Fatal(err)
		}
		base, h, ok := strings.Cut(info.Version, "#")
		if !ok || base != name || len(h) != 16 || strings.Trim(h, "0123456789abcdef") != "" {
			t.Fatalf("%s: version %q, want %s# and 16 hex digits", name, info.Version, name)
		}
		hash[name] = h
	}
	if hash["a.catc"] != hash["b.catc"] {
		t.Errorf("the same bytes hash to %s and %s", hash["a.catc"], hash["b.catc"])
	}
	if hash["c.json"] == hash["d.json"] {
		t.Errorf("a one-byte change kept the hash %s", hash["c.json"])
	}
}

// TestFailedFirstLoadMakesNoTenant: a load that fails for a name the
// registry does not know — a missing file, a snapshot that does not
// decode, a candidate the probes veto — counts the failure under that
// name and leaves no slot behind, so the name stays unroutable (404, not
// 503) and out of every Names() walk. A slot SetProbes asked for stays.
func TestFailedFirstLoadMakesNoTenant(t *testing.T) {
	det, analyzer, snap := trainSnapshot(t, 106, core.DetectorConfig{})
	r := New(Options{})
	if _, err := r.Load(context.Background(), "taobao", "m1", snap); err != nil {
		t.Fatal(err)
	}
	names := r.Names()
	errBefore := metricsByTenant.For("typo").reloadError.Value()
	rejBefore := metricsByTenant.For("typo").reloadRejected.Value()

	if _, err := r.LoadFile(context.Background(), "typo", filepath.Join(t.TempDir(), "missing.catc")); err == nil {
		t.Fatal("a missing file loaded")
	}
	if _, err := r.Load(context.Background(), "typo", "bad", &core.DetectorSnapshot{}); err == nil {
		t.Fatal("an empty snapshot loaded")
	}
	strict := New(Options{Probes: ProbeSet{Probes: []Probe{{Item: testItems(t, 13)[0], WantFraud: boolPtr(true)}, {Item: testItems(t, 13)[0], WantFraud: boolPtr(false)}}}})
	if _, err := strict.Install(context.Background(), "typo", "vetoed", det, analyzer); !errors.Is(err, ErrProbeRejected) {
		t.Fatalf("contradictory probes admitted the model: %v", err)
	}
	if r.Tenant("typo") != nil || strict.Tenant("typo") != nil || !slices.Equal(r.Names(), names) || len(strict.Names()) != 0 {
		t.Fatalf("failed loads left slots: %v, %v", r.Names(), strict.Names())
	}
	if got := metricsByTenant.For("typo").reloadError.Value() - errBefore; got != 2 {
		t.Errorf("reloadError{typo} moved by %d, want 2", got)
	}
	if got := metricsByTenant.For("typo").reloadRejected.Value() - rejBefore; got != 1 {
		t.Errorf("reloadRejected{typo} moved by %d, want 1", got)
	}

	r.SetProbes("later", ProbeSet{})
	if r.Tenant("later") == nil {
		t.Fatal("SetProbes made no slot")
	}
	if _, err := r.LoadFile(context.Background(), "later", filepath.Join(t.TempDir(), "missing.catc")); err == nil || r.Tenant("later") == nil {
		t.Fatalf("a failed load removed the slot SetProbes made (err %v)", err)
	}
}

// TestLoadFileRejectsHostileTrees: a snapshot that decodes cleanly but
// whose trees split on feature 99 of 11 must fail the load — counted as
// outcome=error, the previous generation still answering. Before the
// load-time bound such a file reached the golden-probe pass and
// panicked inside a scoring goroutine, which no recover can catch: a
// reload took the whole process down.
func TestLoadFileRejectsHostileTrees(t *testing.T) {
	det, _, snap := trainSnapshot(t, 105, core.DetectorConfig{})
	items := testItems(t, 15)
	want, err := det.Detect(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	probes := ProbeSet{}
	for i := range items {
		probes.Probes = append(probes.Probes, Probe{Item: items[i], WantFraud: boolPtr(want[i].IsFraud)})
	}
	dir := t.TempDir()
	write := func(name string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := core.WriteSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json")
	for _, tree := range snap.GBT.Trees {
		for i := range tree {
			if !tree[i].Leaf {
				tree[i].Feature = 99
			}
		}
	}
	hostile := write("hostile.json")

	r := New(Options{Probes: probes})
	if _, err := r.LoadFile(context.Background(), "hostile-trees", good); err != nil {
		t.Fatal(err)
	}
	tn := r.Tenant("hostile-trees")
	errBefore := tn.m.reloadError.Value()
	_, err = r.LoadFile(context.Background(), "hostile-trees", hostile)
	if err == nil || !strings.Contains(err.Error(), "split feature 99") {
		t.Fatalf("hostile snapshot: err = %v, want the out-of-range split feature named", err)
	}
	if got := tn.m.reloadError.Value() - errBefore; got != 1 {
		t.Fatalf("reloadError delta = %d, want 1", got)
	}
	if v, gen, ok := tn.Version(); !ok || gen != 1 || !strings.HasPrefix(v, "good.json#") {
		t.Fatalf("failed load disturbed the live model: %q gen %d ok %v", v, gen, ok)
	}
	h := tn.Acquire()
	defer h.Release()
	got, err := h.Detector.Detect(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d: previous generation answers %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCASOrderingConcurrentLoads hammers one tenant with concurrent
// loads and asserts the swap protocol's ordering contract: generations
// are assigned exactly once each, the final live generation is the
// highest assigned, and the version gauge agrees with it.
func TestCASOrderingConcurrentLoads(t *testing.T) {
	_, _, snap := trainSnapshot(t, 104, core.DetectorConfig{})
	r := New(Options{})
	// cats_registry_* series are process-global per tenant label, so
	// assert deltas, not absolutes.
	okBefore := metricsByTenant.For("taobao").reloadOK.Value()
	const loaders, perLoader = 8, 5
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perLoader; i++ {
				if _, err := r.Load(context.Background(), "taobao", "concurrent", snap); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	tn := r.Tenant("taobao")
	_, gen, ok := tn.Version()
	if !ok || gen != loaders*perLoader {
		t.Fatalf("final generation = %d (ok %v), want %d", gen, ok, loaders*perLoader)
	}
	if got := tn.m.modelVersion.Value(); got != int64(gen) {
		t.Fatalf("cats_registry_model_version = %d, want %d", got, gen)
	}
	if got := tn.m.reloadOK.Value() - okBefore; got != loaders*perLoader {
		t.Fatalf("reloadOK delta = %d, want %d", got, loaders*perLoader)
	}
}

// TestSwapStressMidFlight is the zero-downtime contract under -race:
// 64 concurrent clients submit through the tenant's current handle
// while a swapper alternates two distinguishable models (different
// training seeds, hence different scores) through load→validate→CAS.
// Every request must (a) succeed — a swap may never shed or error
// in-flight work — and (b) be served by exactly one coherent
// (detector, analyzer) pair: its full verdict vector equals the
// reference output of the model its handle advertises, never a mix.
func TestSwapStressMidFlight(t *testing.T) {
	detA, _, snapA := trainSnapshot(t, 105, core.DetectorConfig{})
	detB, _, snapB := trainSnapshot(t, 106, core.DetectorConfig{})
	items := testItems(t, 13)

	wantA, err := detA.Detect(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := detB.Detect(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The stress only proves coherence if the models disagree somewhere.
	differ := false
	for i := range wantA {
		if wantA[i] != wantB[i] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("models A and B produce identical verdicts; stress proves nothing")
	}

	r := New(Options{Batching: dispatch.Options{
		MaxBatch: 8, MaxWait: 100 * time.Microsecond, MaxQueue: 1 << 16,
	}})
	if _, err := r.Load(context.Background(), "taobao", "A", snapA); err != nil {
		t.Fatal(err)
	}
	tn := r.Tenant("taobao")

	const clients = 64
	perClient := 25
	if testing.Short() {
		perClient = 5
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Swapper: alternate A and B as fast as loads complete.
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			version, snap := "A", snapA
			if i%2 == 1 {
				version, snap = "B", snapB
			}
			if _, err := r.Load(context.Background(), "taobao", version, snap); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				h := tn.Acquire()
				if h == nil {
					t.Error("Acquire returned nil mid-run")
					return
				}
				res, err := h.Dispatcher().Submit(context.Background(), items)
				if err != nil {
					t.Errorf("request dropped during swap: %v", err)
					h.Release()
					return
				}
				want := wantA
				if h.Version == "B" {
					want = wantB
				}
				for j := range want {
					if res.Detections[j] != want[j] {
						t.Errorf("handle %s item %d: got %+v, want %+v — verdicts from a torn model pair",
							h.Version, j, res.Detections[j], want[j])
						h.Release()
						return
					}
				}
				h.Release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapDone
	r.Close()

	// After Close every handle is retired; Acquire must observe none.
	if h := tn.Acquire(); h != nil {
		t.Fatal("Acquire returned a handle after Close")
	}
}

// TestHandleOutlivesSwap pins the drain half of zero-downtime: a
// handle acquired before a swap keeps serving after it.
func TestHandleOutlivesSwap(t *testing.T) {
	_, _, snapA := trainSnapshot(t, 107, core.DetectorConfig{})
	_, _, snapB := trainSnapshot(t, 108, core.DetectorConfig{})
	items := testItems(t, 14)

	r := New(Options{Batching: dispatch.Options{MaxBatch: 4, MaxWait: time.Millisecond}})
	if _, err := r.Load(context.Background(), "taobao", "A", snapA); err != nil {
		t.Fatal(err)
	}
	tn := r.Tenant("taobao")
	h := tn.Acquire()
	if h == nil || h.Version != "A" {
		t.Fatalf("acquired %+v", h)
	}
	if _, err := r.Load(context.Background(), "taobao", "B", snapB); err != nil {
		t.Fatal(err)
	}
	// The old handle still serves — its dispatcher must not be closed.
	if _, err := h.Dispatcher().Submit(context.Background(), items); err != nil {
		t.Fatalf("retired-but-held handle refused work: %v", err)
	}
	h.Release()
	// The new handle is live and serving.
	h2 := tn.Acquire()
	defer h2.Release()
	if h2.Version != "B" {
		t.Fatalf("live version = %s, want B", h2.Version)
	}
	if _, err := h2.Dispatcher().Submit(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	r.Close()
}
