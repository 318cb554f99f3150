package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecom"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/trainer"
)

// newTrainerService builds a registry-backed service with the drift
// loop attached: a champion trained on the clean distribution published
// as the default tenant, and a trainer driven by a fake clock.
func newTrainerService(t testing.TB, tcfg trainer.Config, opts Options) (*Server, *httptest.Server, *trainer.Trainer, *trainer.FakeClock) {
	t.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(800, 91)
	analyzer, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(analyzer, core.DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "svc-train", Seed: 92, FraudEvidence: 80, Normal: 120, Shops: 6,
	})
	if err := det.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{Workers: opts.Workers})
	if opts.DefaultTenant == "" {
		opts.DefaultTenant = DefaultTenant
	}
	if _, err := reg.Install(context.Background(), opts.DefaultTenant, "seed-v1", det, analyzer); err != nil {
		t.Fatal(err)
	}
	clk := trainer.NewFakeClock(time.Unix(1_700_000_000, 0))
	tr := trainer.New(reg, clk, tcfg)
	t.Cleanup(tr.Close)
	opts.Trainer = tr
	srv := NewWithRegistry(reg, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(reg.Close)
	return srv, ts, tr, clk
}

// shiftedEntries generates post-drift labeled feedback: the generative
// universe with most of the neutral vocabulary swapped out.
func shiftedEntries(seed int64) []FeedbackEntry {
	u := synth.Generate(synth.Config{
		Name: "svc-shifted", Seed: seed,
		FraudEvidence: 70, Normal: 110, Shops: 6, VocabShift: 0.6,
	})
	out := make([]FeedbackEntry, len(u.Dataset.Items))
	for i, it := range u.Dataset.Items {
		out[i] = FeedbackEntry{Item: it, Fraud: it.Label.IsFraud()}
	}
	return out
}

func postJSON(t testing.TB, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestFeedbackEndpoint(t *testing.T) {
	_, ts, tr, _ := newTrainerService(t, trainer.Config{}, Options{MaxItems: 500})

	entries := shiftedEntries(501)
	resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{Feedback: entries[:10]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	var out FeedbackResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 10 || out.Tenant != DefaultTenant {
		t.Errorf("response = %+v, want 10 accepted for %q", out, DefaultTenant)
	}
	st := tr.Status()
	if len(st) != 1 || st[0].WindowSize != 10 {
		t.Errorf("trainer status = %+v, want window 10", st)
	}

	// Unknown tenant via path routing.
	if resp := postJSON(t, ts.URL+"/t/nope/v1/feedback", FeedbackRequest{Feedback: entries[:1]}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant status = %d", resp.StatusCode)
	}
	// Empty body list.
	if resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty feedback status = %d", resp.StatusCode)
	}
	// Entry without an item id.
	if resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{Feedback: []FeedbackEntry{{Fraud: true}}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing-id status = %d", resp.StatusCode)
	}
	// Over the item cap.
	big := make([]FeedbackEntry, 501)
	for i := range big {
		big[i] = entries[i%len(entries)]
	}
	if resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{Feedback: big}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap status = %d", resp.StatusCode)
	}
	// Rejected requests must not have grown the window.
	if st := tr.Status(); st[0].WindowSize != 10 {
		t.Errorf("window grew to %d after rejected requests", st[0].WindowSize)
	}
}

// TestWindowPinsNoRequestMemory: the decoder cuts every string of a
// body's items from one arena the size of the body, so an item kept
// whole would pin its request — here 1 MiB of item_name per two short
// comments. The window keeps a copy of the comments' text and nothing
// else, so 64 such requests leave next to nothing behind (64 MiB if a
// single arena string were kept).
func TestWindowPinsNoRequestMemory(t *testing.T) {
	srv, _, tr, _ := newTrainerService(t, trainer.Config{}, Options{})
	handler := srv.Handler()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first only moves a sync.Pool's buffers to its victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	name := strings.Repeat("n", 1<<20)
	const requests = 64
	before := heap()
	for i := 0; i < requests; i++ {
		id := fmt.Sprintf("pin-%d", i)
		body := feedbackBody(t, []FeedbackEntry{{Fraud: i%2 == 0, Item: ecom.Item{
			ID: id, Name: name, SalesVolume: 9,
			Comments: []ecom.Comment{{ItemID: id, Content: "好评 很好"}, {ItemID: id, Content: "不错"}},
		}}})
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("feedback %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	grew := int64(heap()) - int64(before)
	if st := tr.Status(); len(st) != 1 || st[0].WindowSize != requests {
		t.Fatalf("trainer status = %+v, want a window of %d", st, requests)
	}
	if grew >= 8<<20 {
		t.Errorf("heap grew %d MiB over %d fed requests; the window pins request memory", grew>>20, requests)
	}
}

func TestFeedbackDisabled(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{Feedback: shiftedEntries(501)[:1]})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("no-trainer feedback status = %d, want 501", resp.StatusCode)
	}
}

func TestAdminTrainerEndpoints(t *testing.T) {
	const token = "sesame-open"
	_, ts, _, _ := newTrainerService(t,
		trainer.Config{MinSamples: 40, MinF1Gain: -2},
		Options{AdminToken: token})

	adminReq := func(method, path string, body any, auth string) *http.Response {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", "Bearer "+auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Auth gates both endpoints.
	if resp := adminReq(http.MethodGet, "/admin/trainer", nil, ""); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated trainer status = %d", resp.StatusCode)
	}
	if resp := adminReq(http.MethodPost, "/admin/retrain", RetrainRequest{}, "wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad-token retrain status = %d", resp.StatusCode)
	}

	// Status before any cycle.
	resp := adminReq(http.MethodGet, "/admin/trainer", nil, token)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trainer status = %d", resp.StatusCode)
	}
	var st TrainerStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled {
		t.Error("trainer reported disabled")
	}

	// Feed labels, then trigger a manual retrain for the tenant: the
	// negative margin forces a promotion, visible in the decision and
	// in /admin/tenants.
	if resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{Feedback: shiftedEntries(501)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	resp = adminReq(http.MethodPost, "/admin/retrain", RetrainRequest{Tenant: DefaultTenant}, token)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain status = %d", resp.StatusCode)
	}
	var rr RetrainResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Decisions) != 1 || rr.Decisions[0].Outcome != trainer.OutcomePromoted {
		t.Fatalf("retrain decisions = %+v, want one promotion", rr.Decisions)
	}
	if rr.Decisions[0].PromotedGen != 2 {
		t.Errorf("promoted generation = %d, want 2", rr.Decisions[0].PromotedGen)
	}

	// Unknown tenant 404s; empty tenant runs every tenant.
	if resp := adminReq(http.MethodPost, "/admin/retrain", RetrainRequest{Tenant: "nope"}, token); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-tenant retrain status = %d", resp.StatusCode)
	}
	resp = adminReq(http.MethodPost, "/admin/retrain", RetrainRequest{}, token)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run-all retrain status = %d", resp.StatusCode)
	}

	// The status log now carries the promotion.
	resp = adminReq(http.MethodGet, "/admin/trainer", nil, token)
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Both cycles promoted: the forced gate promotes even the tie the
	// run-all retrain evaluated.
	if len(st.Tenants) != 1 || st.Tenants[0].Promotions != 2 || st.Tenants[0].Cycles != 2 {
		t.Errorf("trainer status after promotions = %+v", st.Tenants)
	}
}

func TestAdminTrainerWithoutTrainer(t *testing.T) {
	const token = "sesame-open"
	_, ts, _ := newTestService(t, Options{AdminToken: token})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/admin/trainer", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st TrainerStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.Enabled {
		t.Errorf("no-trainer status = %d enabled=%v, want 200/disabled", resp.StatusCode, st.Enabled)
	}
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/retrain", bytes.NewReader([]byte("{}")))
	req2.Header.Set("Authorization", "Bearer "+token)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotImplemented {
		t.Errorf("no-trainer retrain status = %d, want 501", resp2.StatusCode)
	}
}

// TestPromotedModelDriftBaseline is the reservoir-staleness regression
// test: after the trainer promotes a retrained model, /v1/drift must
// measure traffic against the promoted model's own training window —
// not the retired champion's baseline — and the reservoir must restart.
func TestPromotedModelDriftBaseline(t *testing.T) {
	const token = "sesame-open"
	srv, ts, tr, _ := newTrainerService(t,
		trainer.Config{MinSamples: 40, MinF1Gain: -2},
		Options{AdminToken: token})

	// Shifted traffic: the champion's training distribution no longer
	// matches what it scores.
	shifted := shiftedEntries(501)
	items := make([]ecom.Item, 0, 60)
	for _, e := range shifted[:60] {
		items = append(items, e.Item)
	}
	if resp := postJSON(t, ts.URL+"/v1/detect", DetectRequest{Items: items}); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d", resp.StatusCode)
	}

	getDrift := func() DriftResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/drift")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drift status = %d", resp.StatusCode)
		}
		var dr DriftResponse
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
		return dr
	}
	before := getDrift()
	if before.ModelGeneration != 1 || before.ItemsObserved == 0 {
		t.Fatalf("pre-promotion drift = %+v", before)
	}

	// Promote a model retrained on the shifted window.
	if resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{Feedback: shifted}); resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	d, err := tr.RunCycle(context.Background(), DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != trainer.OutcomePromoted {
		t.Fatalf("cycle outcome = %+v, want promoted", d)
	}

	// Same shifted traffic against the promoted model.
	if resp := postJSON(t, ts.URL+"/v1/detect", DetectRequest{Items: items}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-promotion detect status = %d", resp.StatusCode)
	}
	after := getDrift()
	if after.ModelGeneration != 2 {
		t.Fatalf("post-promotion drift generation = %d, want 2", after.ModelGeneration)
	}
	if after.ItemsObserved >= before.ItemsObserved+int64(len(items)) {
		t.Errorf("reservoir did not reset on promotion: observed %d after %d before",
			after.ItemsObserved, before.ItemsObserved)
	}
	// The promoted model was trained on the shifted distribution, so the
	// same shifted traffic must diverge strictly less from its baseline
	// than it did from the retired champion's.
	if after.MaxKS >= before.MaxKS {
		t.Errorf("promoted model inherited a stale baseline: max KS %.3f after vs %.3f before",
			after.MaxKS, before.MaxKS)
	}
	_ = srv
}

// TestRetrainSwapMidFlight is the -race stress for the drift loop: 64
// concurrent detect clients run against continuous retrain→promote
// cycles driven through the fake clock. Every response must carry a
// model generation and match the reference output of exactly that
// generation, with zero non-2xx across the swaps; the trainer must
// drain cleanly on Close.
func TestRetrainSwapMidFlight(t *testing.T) {
	cycleDone := make(chan trainer.Decision, 64)
	srv, ts, tr, clk := newTrainerService(t,
		trainer.Config{
			Interval: time.Minute, MinSamples: 20, MinF1Gain: -2,
			OnCycle: func(d trainer.Decision) { cycleDone <- d },
		},
		Options{})

	// The fixed probe batch every client sends.
	probe := synth.Generate(synth.Config{
		Name: "svc-probe", Seed: 97, FraudEvidence: 3, Normal: 5, Shops: 3,
	})
	items := probe.Dataset.Items

	// reference computes the expected response for the generation
	// currently live in the registry, keyed by that generation.
	refs := map[uint64][]DetectionDTO{}
	var refMu sync.Mutex
	reference := func() {
		h := srv.ModelRegistry().Tenant(DefaultTenant).Acquire()
		if h == nil {
			t.Error("no live model while computing reference")
			return
		}
		defer h.Release()
		dets, err := h.Detector.DetectContext(context.Background(), items, 0)
		if err != nil {
			t.Errorf("reference detect: %v", err)
			return
		}
		out := make([]DetectionDTO, len(dets))
		for i, d := range dets {
			out[i] = detectionDTO(d)
		}
		refMu.Lock()
		refs[h.Generation] = out
		refMu.Unlock()
	}
	reference() // generation 1

	if resp := postJSON(t, ts.URL+"/v1/feedback", FeedbackRequest{Feedback: shiftedEntries(501)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}

	type observed struct {
		gen  uint64
		dets []DetectionDTO
	}
	const clients = 64
	const perClient = 6
	results := make([][]observed, clients)
	body, err := json.Marshal(DetectRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: non-2xx %d during swap", c, resp.StatusCode)
					resp.Body.Close()
					return
				}
				var out DetectResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Errorf("client %d: decode: %v", c, err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				if out.ModelGeneration == 0 {
					t.Errorf("client %d: response without model generation", c)
					return
				}
				results[c] = append(results[c], observed{gen: out.ModelGeneration, dets: out.Detections})
			}
		}(c)
	}
	go func() { wg.Wait(); close(done) }()

	// Drive retrain→promote cycles through the fake clock while the
	// clients hammer detect. Each promotion's reference is computed
	// right after its cycle completes — the trainer is the only
	// promoter, so the live generation is the one just published.
	tr.Start()
	swaps := 0
loop:
	for {
		select {
		case <-done:
			break loop
		default:
		}
		clk.Advance(time.Minute)
		select {
		case d := <-cycleDone:
			if d.Outcome == trainer.OutcomePromoted {
				reference()
				swaps++
			}
		case <-done:
			break loop
		}
	}
	tr.Close()

	if swaps == 0 {
		t.Fatal("no promotion happened mid-flight; the stress never exercised a swap")
	}
	checked := 0
	for c := range results {
		for _, ob := range results[c] {
			refMu.Lock()
			want, ok := refs[ob.gen]
			refMu.Unlock()
			if !ok {
				t.Fatalf("client %d reported generation %d with no reference", c, ob.gen)
			}
			if len(ob.dets) != len(want) {
				t.Fatalf("client %d: %d detections, want %d", c, len(ob.dets), len(want))
			}
			for i := range want {
				if ob.dets[i] != want[i] {
					t.Fatalf("client %d gen %d item %d: got %+v, want %+v — response does not match the generation it reports",
						c, ob.gen, i, ob.dets[i], want[i])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no responses recorded")
	}
	t.Logf("verified %d responses across %d promotions (%d generations)", checked, swaps, len(refs))
}
