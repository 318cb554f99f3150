package obs

import (
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
