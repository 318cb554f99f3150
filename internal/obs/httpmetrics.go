package obs

import (
	"net/http"
	"strconv"
)

// HTTPMetrics instruments HTTP handlers: per-route request counts by
// status code, per-route latency histograms, and a server-wide
// in-flight gauge. One HTTPMetrics wraps every route of a server;
// construction is idempotent per registry (the underlying families are
// shared), so building a second server on the same registry is safe.
type HTTPMetrics struct {
	requests *CounterVec   // route, code
	latency  *HistogramVec // route
	inflight *Gauge
}

// NewHTTPMetrics registers (or finds) the HTTP metric families on r.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.CounterVec("cats_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency: r.HistogramVec("cats_http_request_seconds",
			"HTTP request latency in seconds, by route.", LatencyBuckets, "route"),
		inflight: r.Gauge("cats_http_in_flight",
			"HTTP requests currently being served."),
	}
}

// Wrap instruments next under the given route label. The latency
// histogram handle is resolved once per route at wrap time; only the
// (route, code) counter is resolved per request, after the status code
// is known.
func (m *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	lat := m.latency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Inc()
		sw := &statusWriter{ResponseWriter: w}
		sp := StartSpan(lat)
		next.ServeHTTP(sw, r)
		sp.End()
		m.inflight.Dec()
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		//lint:ignore metric-discipline the call is strconv.Itoa of an HTTP status code: as many values as handlers write codes
		m.requests.With(route, strconv.Itoa(code)).Inc()
	})
}

// InFlight exposes the in-flight gauge (for tests and health output).
func (m *HTTPMetrics) InFlight() *Gauge { return m.inflight }

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
