package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/registry"
)

// panicWriter blows up on the first byte of a response, which every
// route writes from inside withModel's callback.
type panicWriter struct{ http.ResponseWriter }

func (panicWriter) WriteHeader(int) { panic("connection state corrupted") }

// TestPanickingHandlerReleasesLease: a handler that panics while it
// holds the tenant's model leaves no holder behind. The registry does
// not publish its holder count, so the test reads it the way a reload
// does: once the model is swapped out, the retired handle's dispatcher
// closes if and only if nobody still holds it.
func TestPanickingHandlerReleasesLease(t *testing.T) {
	det, analyzer, _ := trainTestDetector(t)
	srv, _, test := newBatchedTestService(t, Options{}, &dispatch.Options{MaxBatch: 8, MaxWait: time.Millisecond})
	t.Cleanup(srv.Close)
	items := test.Dataset.Items[:2]
	detectBody, _ := json.Marshal(DetectRequest{Items: items})
	explainBody, _ := json.Marshal(ExplainRequest{Item: items[0]})
	tenant := srv.ModelRegistry().Tenant(DefaultTenant)

	// The handlers are called bare: obs's middleware does not survive a
	// panic either (its in-flight gauge stays up), which is not this
	// test's subject and would leak into the tests that read the gauge.
	for _, route := range []struct {
		method, path string
		handle       http.HandlerFunc
		body         []byte
	}{
		{http.MethodPost, "/v1/detect", srv.handleDetect, detectBody},
		{http.MethodPost, "/v1/explain", srv.handleExplain, explainBody},
		{http.MethodGet, "/v1/importance", srv.handleImportance, nil},
		{http.MethodGet, "/v1/drift", srv.handleDrift, nil},
		{http.MethodGet, "/v1/lexicon", srv.handleLexicon, nil},
	} {
		t.Run(route.path, func(t *testing.T) {
			var held *registry.Handle
			tenant.Do(func(h *registry.Handle) { held = h })

			req := httptest.NewRequest(route.method, route.path, bytes.NewReader(route.body))
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("handler did not panic: the response was not written under the lease")
					}
				}()
				route.handle(panicWriter{httptest.NewRecorder()}, req)
			}()

			if _, err := srv.ModelRegistry().Install(context.Background(), DefaultTenant, "next", det, analyzer); err != nil {
				t.Fatal(err)
			}
			if _, err := held.Dispatcher().Submit(context.Background(), items); !dispatch.IsShed(err) {
				t.Fatalf("the retired model's dispatcher is still open (err %v): the panicking handler kept its lease", err)
			}
		})
	}
}
