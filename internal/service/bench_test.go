package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dispatch"
)

// benchmarkDetect drives concurrent single-item detect requests through
// the handler and the tenant's dispatcher. bench/'s serve_* workloads
// measure the server over a socket; this keeps the handler path alive
// in `go test -bench` form so bench-smoke catches a path that stops
// compiling or collapses.
func benchmarkDetect(b *testing.B) {
	srv, _, test := newTestService(b, Options{}, dispatch.Options{
		MaxBatch: 64, MaxWait: 200 * time.Microsecond, MaxQueue: 4096,
	})
	defer srv.Close()
	handler := srv.Handler()
	body, err := json.Marshal(DetectRequest{Items: test.Dataset.Items[:1]})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("status = %d", rec.Code)
				return
			}
		}
	})
}

func BenchmarkServeDetectBatched(b *testing.B) {
	benchmarkDetect(b)
}
