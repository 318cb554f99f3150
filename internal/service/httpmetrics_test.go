package service

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestMetricsHandler(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("handler_total", "served by the handler").Add(7)
	ts := httptest.NewServer(metricsHandler(r))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "handler_total 7") {
		t.Errorf("body missing sample:\n%s", body)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL, nil)
	post, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", post.StatusCode)
	}
	if allow := post.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("POST /metrics Allow = %q, want GET", allow)
	}
}

func TestHTTPMetricsWrap(t *testing.T) {
	r := obs.NewRegistry()
	m := newHTTPMetrics(r)
	var sawInFlight int64
	h := m.wrap("/v1/x", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sawInFlight = m.inflight.Value()
		if req.URL.Path == "/bad" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Write([]byte("ok"))
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	for _, path := range []string{"/", "/", "/bad"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if sawInFlight != 1 {
		t.Errorf("in-flight during request = %d, want 1", sawInFlight)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("in-flight after requests = %d, want 0", got)
	}
	if got := m.requests.With("/v1/x", "200").Value(); got != 2 {
		t.Errorf("200 count = %d, want 2", got)
	}
	if got := m.requests.With("/v1/x", "400").Value(); got != 1 {
		t.Errorf("400 count = %d, want 1", got)
	}
	if got := m.latency.With("/v1/x").Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
}

// TestHTTPMetricsWrapSurvivesAPanic: a handler that panics — net/http
// recovers it and drops the connection — leaves the in-flight gauge
// where it was and still times the request.
func TestHTTPMetricsWrapSurvivesAPanic(t *testing.T) {
	r := obs.NewRegistry()
	m := newHTTPMetrics(r)
	ts := httptest.NewUnstartedServer(m.wrap("/v1/x", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})))
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack
	ts.Start()
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if resp, err := http.Get(ts.URL); err == nil {
			resp.Body.Close()
			t.Fatalf("a panicking handler answered %d", resp.StatusCode)
		}
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("in-flight after three panicking requests = %d, want 0", got)
	}
	if got := m.latency.With("/v1/x").Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
}
