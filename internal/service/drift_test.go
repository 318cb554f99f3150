package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"

	"repro/internal/synth"
)

// TestDriftPinnedAcrossReload holds /v1/drift byte for byte over a fixed
// detect sequence and one reload: the first generation's reservoir after
// a few requests, the second generation's before any traffic, and the
// second's again once more items have been observed than the reservoir
// keeps, so the pin covers the replacement draws and the seed they
// come from. Regenerate with
//
//	CATS_UPDATE_GOLDEN=1 go test -run TestDriftPinnedAcrossReload ./internal/service
func TestDriftPinnedAcrossReload(t *testing.T) {
	_, ts, _, _ := newTenantFixture(t)
	traffic := synth.Generate(synth.Config{
		Name: "drift-pin", Seed: 74, FraudEvidence: 40, Normal: 80, Shops: 4,
	})
	body, err := json.Marshal(DetectRequest{Items: traffic.Dataset.Items})
	if err != nil {
		t.Fatal(err)
	}
	detect := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if resp, _ := detectAt(t, ts.URL, "/t/eplatform/v1/detect", nil, body); resp.StatusCode != http.StatusOK {
				t.Fatalf("detect status = %d", resp.StatusCode)
			}
		}
	}
	var got bytes.Buffer
	drift := func() DriftResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/t/eplatform/v1/drift")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("drift status = %d (%v)", resp.StatusCode, err)
		}
		got.Write(raw)
		var out DriftResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	detect(3)
	if d := drift(); d.ModelGeneration != 1 || d.SampleSize == 0 {
		t.Fatalf("first generation: %+v", d)
	}
	if resp := adminReq(t, http.MethodPost, ts.URL+"/admin/reload", testAdminToken, []byte(`{"tenant":"eplatform"}`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}
	if d := drift(); d.ModelGeneration != 2 || d.ItemsObserved != 0 {
		t.Fatalf("second generation before traffic: %+v", d)
	}
	detect(48)
	if d := drift(); d.ModelGeneration != 2 || d.ItemsObserved <= int64(d.SampleSize) {
		t.Fatalf("second generation never filled its reservoir: %+v", d)
	}

	const path = "testdata/drift_reload.golden"
	if os.Getenv("CATS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with CATS_UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("/v1/drift drifted from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
