package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/trainer"
)

const testAdminToken = "sesame-open"

// newTenantFixture boots a registry-backed server with two file-loaded
// tenants ("taobao" is the default) and returns it with the snapshot
// directory, so tests can write new model files and hot-reload them.
func newTenantFixture(t *testing.T) (*Server, *httptest.Server, string, []byte) {
	t.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(600, 91)
	analyzer, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(analyzer, core.DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "tenant-train", Seed: 71, FraudEvidence: 60, Normal: 90, Shops: 5,
	})
	if err := det.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := det.Snapshot(bank.Vocabulary(), analyzer)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"taobao.json", "eplatform.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := registry.New(registry.Options{})
	for _, tenant := range []string{"taobao", "eplatform"} {
		if _, err := reg.LoadFile(context.Background(), tenant, filepath.Join(dir, tenant+".json")); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewWithRegistry(reg, Options{DefaultTenant: "taobao", AdminToken: testAdminToken})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	test := synth.Generate(synth.Config{
		Name: "tenant-test", Seed: 72, FraudEvidence: 8, Normal: 16, Shops: 3,
	})
	body, err := json.Marshal(DetectRequest{Items: test.Dataset.Items})
	if err != nil {
		t.Fatal(err)
	}
	return srv, ts, dir, body
}

func detectAt(t *testing.T, url, path string, header map[string]string, body []byte) (*http.Response, DetectResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out DetectResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestTenantRouting covers the three resolution paths — /t/{tenant}/
// prefix, X-Cats-Tenant header, default fallback — plus the 404 for a
// tenant that does not exist.
func TestTenantRouting(t *testing.T) {
	_, ts, _, body := newTenantFixture(t)

	resp, out := detectAt(t, ts.URL, "/t/eplatform/v1/detect", nil, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("path-routed status = %d", resp.StatusCode)
	}
	if out.Tenant != "eplatform" || !strings.HasPrefix(out.ModelVersion, "eplatform.json#") {
		t.Fatalf("path routing: tenant=%q version=%q", out.Tenant, out.ModelVersion)
	}

	resp, out = detectAt(t, ts.URL, "/v1/detect", map[string]string{"X-Cats-Tenant": "eplatform"}, body)
	if resp.StatusCode != http.StatusOK || out.Tenant != "eplatform" {
		t.Fatalf("header routing: status=%d tenant=%q", resp.StatusCode, out.Tenant)
	}

	resp, out = detectAt(t, ts.URL, "/v1/detect", nil, body)
	if resp.StatusCode != http.StatusOK || out.Tenant != "taobao" {
		t.Fatalf("default routing: status=%d tenant=%q", resp.StatusCode, out.Tenant)
	}
	if out.ModelGeneration == 0 {
		t.Fatal("response missing model generation")
	}

	resp, _ = detectAt(t, ts.URL, "/t/nosuch/v1/detect", nil, body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d, want 404", resp.StatusCode)
	}
}

func adminReq(t *testing.T, method, url, token string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestAdminAuth: the admin surface is 401 without the right bearer
// token and 403 (disabled) when the server has no token configured.
func TestAdminAuth(t *testing.T) {
	_, ts, _, _ := newTenantFixture(t)
	if resp := adminReq(t, http.MethodGet, ts.URL+"/admin/tenants", "", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token status = %d, want 401", resp.StatusCode)
	}
	if resp := adminReq(t, http.MethodGet, ts.URL+"/admin/tenants", "wrong", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token status = %d, want 401", resp.StatusCode)
	}
	resp := adminReq(t, http.MethodGet, ts.URL+"/admin/tenants", testAdminToken, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good token status = %d, want 200", resp.StatusCode)
	}
	var listing struct {
		Default string          `json:"default"`
		Tenants []registry.Info `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Default != "taobao" || len(listing.Tenants) != 2 {
		t.Fatalf("listing = %+v", listing)
	}

	// A server built without a token has the admin surface disabled.
	_, ts2, _ := newTestService(t, Options{}, dispatch.Options{})
	if resp := adminReq(t, http.MethodGet, ts2.URL+"/admin/tenants", "anything", nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless server status = %d, want 403", resp.StatusCode)
	}
}

// TestAdminReload exercises the hot-reload path end to end: a reload
// bumps the tenant's generation and subsequent responses carry it; a
// truncated snapshot is rejected with a diagnosable 422 while the old
// model keeps serving; unknown tenants 404.
func TestAdminReload(t *testing.T) {
	_, ts, dir, body := newTenantFixture(t)

	_, before := detectAt(t, ts.URL, "/t/eplatform/v1/detect", nil, body)

	reload := func(payload string) *http.Response {
		return adminReq(t, http.MethodPost, ts.URL+"/admin/reload", testAdminToken, []byte(payload))
	}
	resp := reload(`{"tenant":"eplatform"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}
	var info registry.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != before.ModelGeneration+1 {
		t.Fatalf("reload generation = %d, want %d", info.Generation, before.ModelGeneration+1)
	}
	_, after := detectAt(t, ts.URL, "/t/eplatform/v1/detect", nil, body)
	if after.ModelGeneration != info.Generation {
		t.Fatalf("post-reload generation = %d, want %d", after.ModelGeneration, info.Generation)
	}
	// Explain names the generation too: the version, a content hash, is
	// the same for both generations of one file.
	var items DetectRequest
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatal(err)
	}
	explainBody, err := json.Marshal(ExplainRequest{Item: items.Items[0]})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/t/eplatform/v1/explain", "application/json", bytes.NewReader(explainBody))
	if err != nil {
		t.Fatal(err)
	}
	var explained ExplainResponse
	err = json.NewDecoder(resp.Body).Decode(&explained)
	resp.Body.Close()
	if err != nil || explained.ModelGeneration != info.Generation || explained.ModelVersion != info.Version {
		t.Fatalf("post-reload explain: generation %d version %q, want %d %q (%v)",
			explained.ModelGeneration, explained.ModelVersion, info.Generation, info.Version, err)
	}
	// Same snapshot bytes → same verdicts either side of the swap.
	if len(after.Detections) != len(before.Detections) {
		t.Fatalf("detections %d vs %d across reload", len(after.Detections), len(before.Detections))
	}
	for i := range after.Detections {
		if after.Detections[i] != before.Detections[i] {
			t.Fatalf("detection %d changed across identical-model reload", i)
		}
	}

	// Truncated snapshot: rejected with the byte offset in the error,
	// old model stays live.
	bad := filepath.Join(dir, "bad.json")
	raw, err := os.ReadFile(filepath.Join(dir, "eplatform.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	resp = reload(`{"tenant":"eplatform","path":"` + bad + `"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("truncated reload status = %d, want 422", resp.StatusCode)
	}
	var errBody map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBody["error"], "byte offset") {
		t.Fatalf("error not diagnosable: %q", errBody["error"])
	}
	if r, out := detectAt(t, ts.URL, "/t/eplatform/v1/detect", nil, body); r.StatusCode != http.StatusOK || out.ModelGeneration != info.Generation {
		t.Fatalf("tenant disturbed by rejected reload: status=%d gen=%d", r.StatusCode, out.ModelGeneration)
	}

	if resp := reload(`{"tenant":"nosuch"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant reload status = %d, want 404", resp.StatusCode)
	}
	if resp := reload(`{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing tenant status = %d, want 400", resp.StatusCode)
	}
}

// TestModelDriftBaseline: registry-backed servers pick up each model's
// snapshot-carried training sample, so /v1/drift works per tenant with
// no explicit configuration and reports the tenant it serves.
func TestModelDriftBaseline(t *testing.T) {
	_, ts, _, body := newTenantFixture(t)
	if resp, _ := detectAt(t, ts.URL, "/t/eplatform/v1/detect", nil, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/t/eplatform/v1/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drift status = %d", resp.StatusCode)
	}
	var out DriftResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != "eplatform" || out.SampleSize == 0 {
		t.Fatalf("drift = %+v", out)
	}
}

// TestFailedReloadMakesNoTenant: an /admin/reload that names a new tenant
// and a file that is not there answers 422 and creates nothing: the name
// stays a 404 for detect and feedback, no retrain cycle runs for it, and
// /admin/tenants does not list it.
func TestFailedReloadMakesNoTenant(t *testing.T) {
	_, ts, tr, _ := newTrainerService(t, trainer.Config{}, Options{AdminToken: testAdminToken})
	resp := adminReq(t, http.MethodPost, ts.URL+"/admin/reload", testAdminToken, []byte(`{"tenant":"typo","path":"/missing.catc"}`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("reload from a missing file: status %d, want 422", resp.StatusCode)
	}
	feedback, err := json.Marshal(FeedbackRequest{Feedback: shiftedEntries(503)[:1]})
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string][]byte{"/t/typo/v1/detect": []byte(`{"items":[{"item_id":"a"}]}`), "/t/typo/v1/feedback": feedback} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s after the failed reload: status %d, want 404", path, resp.StatusCode)
		}
	}
	for _, d := range tr.RunAll(context.Background()) {
		if d.Tenant == "typo" {
			t.Errorf("a retrain cycle ran for the tenant that never loaded: %+v", d)
		}
	}
	resp = adminReq(t, http.MethodGet, ts.URL+"/admin/tenants", testAdminToken, nil)
	var listing struct {
		Tenants []registry.Info `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil || len(listing.Tenants) != 1 {
		t.Errorf("/admin/tenants after the failed reload: %+v (%v)", listing, err)
	}
}
