package service

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// httpMetrics instruments the server's handlers: per-route request
// counts by status code, per-route latency histograms, and a
// server-wide in-flight gauge. One httpMetrics wraps every route of a
// server; construction is idempotent per registry (the underlying
// families are shared), so building a second server on the same
// registry is safe. It lives here rather than in internal/obs so that
// obs, which every pipeline package imports for its counters, links no
// net/http: the cats CLI never serves HTTP and never starts it.
type httpMetrics struct {
	requests *obs.CounterVec   // route, code
	latency  *obs.HistogramVec // route
	inflight *obs.Gauge
}

// newHTTPMetrics registers (or finds) the HTTP metric families on r.
func newHTTPMetrics(r *obs.Registry) *httpMetrics {
	return &httpMetrics{
		requests: r.CounterVec("cats_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency: r.HistogramVec("cats_http_request_seconds",
			"HTTP request latency in seconds, by route.", obs.LatencyBuckets, "route"),
		inflight: r.Gauge("cats_http_in_flight",
			"HTTP requests currently being served."),
	}
}

// wrap instruments next under the given route label. The latency
// histogram handle is resolved once per route at wrap time; only the
// (route, code) counter is resolved per request, after the status code
// is known. A handler that panics still leaves the in-flight gauge and
// ends its span (net/http recovers the panic); it counts no request.
func (m *httpMetrics) wrap(route string, next http.Handler) http.Handler {
	lat := m.latency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Inc()
		defer m.inflight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		sp := obs.StartSpan(lat)
		defer sp.End()
		next.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		//lint:ignore metric-discipline the call is strconv.Itoa of an HTTP status code: as many values as handlers write codes
		m.requests.With(route, strconv.Itoa(code)).Inc()
	})
}

// statusWriter records the first status code written.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer when it supports flushing, so
// streaming handlers keep working behind the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// metricsHandler serves r in the Prometheus text exposition format
// (obs.Registry.WritePrometheus) — the /metrics route.
func metricsHandler(r *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		// Write errors mean the scraper went away; nothing to do.
		_ = r.WritePrometheus(w)
	})
}
