package obs

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExpositionGolden pins the exact exposition bytes for a registry
// with one family of each kind: HELP/TYPE lines, label rendering,
// cumulative le buckets, _sum/_count, and deterministic family/series
// ordering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("cats_http_requests_total", "HTTP requests served.", "route", "code")
	reqs.With("/v1/detect", "200").Add(3)
	reqs.With("/v1/detect", "400").Inc()
	r.Gauge("cats_http_in_flight", "Requests in flight.").Set(2)
	h := r.Histogram("cats_stage_seconds", "Stage latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cats_http_in_flight Requests in flight.
# TYPE cats_http_in_flight gauge
cats_http_in_flight 2
# HELP cats_http_requests_total HTTP requests served.
# TYPE cats_http_requests_total counter
cats_http_requests_total{route="/v1/detect",code="200"} 3
cats_http_requests_total{route="/v1/detect",code="400"} 1
# HELP cats_stage_seconds Stage latency.
# TYPE cats_stage_seconds histogram
cats_stage_seconds_bucket{le="0.5"} 1
cats_stage_seconds_bucket{le="1"} 2
cats_stage_seconds_bucket{le="+Inf"} 3
cats_stage_seconds_sum 5
cats_stage_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "line one\nline two", "path").With(`a"b\c`).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total line one\nline two`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{path="a\"b\\c"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("handler_total", "served by the handler").Add(7)
	ts := httptest.NewServer(r.Handler())
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
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	var sawInFlight int64
	h := m.Wrap("/v1/x", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sawInFlight = m.InFlight().Value()
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
	if got := m.InFlight().Value(); got != 0 {
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
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	ts := httptest.NewUnstartedServer(m.Wrap("/v1/x", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
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
	if got := m.InFlight().Value(); got != 0 {
		t.Errorf("in-flight after three panicking requests = %d, want 0", got)
	}
	if got := m.latency.With("/v1/x").Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
}
