package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/ecom"
	"repro/internal/graph"
	"repro/internal/synth"
	"repro/internal/textgen"
)

// clusterTestService is newTestService plus a kept detector handle, so
// the test can install and clear a graph scorer out-of-band.
func clusterTestService(t *testing.T) (*core.Detector, *httptest.Server) {
	t.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(800, 91)
	analyzer, err := core.OracleAnalyzer(bank, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(analyzer, core.DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "clu-train", Seed: 92, FraudEvidence: 80, Normal: 120, Shops: 6,
	})
	if err := det.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serveDetector(t, det, analyzer, Options{}, nil).Handler())
	t.Cleanup(ts.Close)
	return det, ts
}

func getClusters(t *testing.T, url string) (*http.Response, ClustersResponse) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out ClustersResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestClustersEndpoint(t *testing.T) {
	det, ts := clusterTestService(t)

	// No scorer installed: the report does not exist yet.
	if resp, _ := getClusters(t, ts.URL+"/v1/clusters"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-scorer status = %d, want 404", resp.StatusCode)
	}

	u := synth.RingAttack(synth.RingConfig{Seed: 5, Rings: 4, NormalItems: 10})
	g := graph.FromDataset(&u.Dataset, func(it *ecom.Item) bool { return it.Label.IsFraud() }, graph.Config{})
	det.SetGraphScorer(g.Cluster().Scorer(graph.ScorerConfig{}))

	resp, out := getClusters(t, ts.URL+"/v1/clusters")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Report == nil || len(out.Report.Clusters) != u.Config.Rings {
		t.Fatalf("report has %d clusters, want %d rings", len(out.Report.Clusters), u.Config.Rings)
	}
	if out.Truncated {
		t.Error("untruncated report marked truncated")
	}

	// limit trims the cluster list and flags it.
	resp, out = getClusters(t, ts.URL+"/v1/clusters?limit=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit status = %d", resp.StatusCode)
	}
	if len(out.Report.Clusters) != 1 || !out.Truncated {
		t.Fatalf("limit=1 returned %d clusters (truncated=%v)", len(out.Report.Clusters), out.Truncated)
	}
	// The full report must survive truncation of a previous response.
	if _, again := getClusters(t, ts.URL+"/v1/clusters"); len(again.Report.Clusters) != u.Config.Rings {
		t.Fatal("truncation leaked into the shared report")
	}

	if resp, _ := getClusters(t, ts.URL+"/v1/clusters?limit=-3"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d, want 400", resp.StatusCode)
	}
}

// TestDetectCarriesClusterEvidence checks that /v1/detect surfaces the
// cluster DTO on boosted detections once a scorer is installed.
func TestDetectCarriesClusterEvidence(t *testing.T) {
	det, ts := clusterTestService(t)
	u := synth.RingAttack(synth.RingConfig{Seed: 7, Rings: 3, NormalItems: 8})
	g := graph.FromDataset(&u.Dataset, func(it *ecom.Item) bool { return it.Label.IsFraud() }, graph.Config{})
	det.SetGraphScorer(g.Cluster().Scorer(graph.ScorerConfig{}))

	body, err := json.Marshal(DetectRequest{Items: u.Dataset.Items})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postDetect(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var withCluster, without int
	for _, d := range out.Detections {
		if _, inRing := u.ItemRing[d.ItemID]; inRing && d.Cluster != nil {
			withCluster++
			if d.Cluster.Size != u.Config.RingSize || d.Cluster.Boost <= 0 {
				t.Fatalf("item %s: cluster DTO %+v inconsistent with ring", d.ItemID, *d.Cluster)
			}
		} else if !inRing {
			without++
			if d.Cluster != nil {
				t.Fatalf("item %s: unclustered item carries cluster DTO", d.ItemID)
			}
		}
	}
	if withCluster == 0 || without == 0 {
		t.Fatalf("degenerate split: %d with cluster, %d without", withCluster, without)
	}
}
