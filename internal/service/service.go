// Package service exposes trained CATS detectors over HTTP — the
// integration surface for the Section VI deployment setting, where the
// platform streams items to the detector and receives fraud verdicts.
// The server is multi-tenant: it fronts a registry of named models
// (one per platform — the paper's Taobao-pretrain / E-platform-deploy
// split maps to one tenant each), every request is routed to one
// tenant's atomically-swappable model, and models hot-reload with zero
// downtime via an authenticated admin endpoint.
//
// Endpoints:
//
//	POST /v1/detect      — body: {"items": [Item...]} → per-item detections
//	POST /v1/explain     — body: {"item": Item} → decision-path explanation
//	GET  /v1/importance  — the model's Fig 7 split-count importance
//	GET  /v1/lexicon     — the expanded positive/negative word sets
//	GET  /v1/drift       — scored-traffic vs training feature drift (KS)
//	POST /v1/feedback    — labeled outcomes into the retrain window
//	POST /t/{tenant}/v1/detect      — tenant-scoped variants of all of
//	POST /t/{tenant}/v1/explain       the above /v1/* routes
//	GET  /t/{tenant}/v1/importance
//	GET  /t/{tenant}/v1/drift
//	GET  /t/{tenant}/v1/lexicon
//	POST /admin/reload   — hot-reload one tenant's model (Bearer auth)
//	GET  /admin/tenants  — live models: version, generation, source
//	GET  /admin/trainer  — champion/challenger loop status (Bearer auth)
//	POST /admin/retrain  — trigger a retrain cycle now (Bearer auth)
//	GET  /healthz        — liveness
//	GET  /readyz         — readiness (503 while draining or not yet ready)
//	GET  /metrics        — Prometheus text-format metrics (internal/obs)
//
// Tenant resolution: the /t/{tenant}/ path prefix wins; bare /v1/*
// routes honor an X-Cats-Tenant header and otherwise fall back to the
// server's default tenant, so single-tenant deployments and existing
// clients keep working unchanged.
//
// All payloads are JSON. Request bodies are size-capped (a body over
// the cap yields 413 whatever it holds), malformed input yields 400
// rather than 500, and a wrong method yields 405 with an Allow header.
// Detect, explain and feedback bodies are read by a single-pass decoder
// with encoding/json's meaning (decode.go).
// Every route is wrapped in HTTP metrics middleware (httpmetrics.go,
// over internal/obs instruments): per-route request counts by status
// code, per-route latency histograms, and an in-flight gauge. Route
// labels use the registered pattern ("/t/{tenant}/v1/detect"), so
// metric cardinality stays bounded no matter how many tenants exist.
//
// Every detect and explain request is scored through its tenant's own
// internal/dispatch coalescing dispatcher (DESIGN.md §11), the one
// scoring path: concurrent requests fuse into shared batches,
// identical in-flight items score once, a request that finds nothing
// of its tenant scoring is dispatched at once, and overload sheds with
// 503 + Retry-After instead of queuing doomed work — per tenant, so one
// hot tenant cannot starve its neighbors' admission queues.
//
// Model coherence: a request loads its tenant's current model handle
// once, up front, and keeps it until the response is written. A
// concurrent /admin/reload swaps the tenant's handle atomically; the
// in-flight request finishes on the model it started with, and the old
// handle, with its dispatcher, is left to the garbage collector
// (internal/registry). Drift is per generation too: /v1/detect records
// into the serving handle's own reservoir and /v1/drift reads the live
// one's.
package service

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/ecom"
	"repro/internal/features"
	"repro/internal/ml/gbt"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/stats"
	"repro/internal/trainer"
)

// DefaultTenant is the tenant bare /v1/* requests resolve to when no
// X-Cats-Tenant header overrides it and Options.DefaultTenant is unset.
const DefaultTenant = core.DefaultTenant

// Options tunes the service.
type Options struct {
	// MaxBodyBytes caps request bodies; <= 0 means 32 MiB.
	MaxBodyBytes int64
	// MaxItems caps items per detect call; <= 0 means 10,000.
	MaxItems int
	// Workers is read by nothing: requests are scored through the
	// tenant's dispatcher (registry.Options.Batching). It is kept only
	// because bench/ sets it.
	Workers int
	// DefaultTenant is where bare /v1/* requests without an
	// X-Cats-Tenant header route; empty means DefaultTenant
	// ("default").
	DefaultTenant string
	// AdminToken authenticates /admin/* requests (Authorization:
	// Bearer <token>). Empty disables the admin endpoints entirely:
	// they answer 403, and no unauthenticated reload path exists.
	AdminToken string
	// Registry receives the service's HTTP metrics and backs /metrics;
	// nil means obs.Default (which also carries the pipeline's own
	// counters and stage histograms).
	Registry *obs.Registry
	// Trainer, when non-nil, closes the drift loop: POST /v1/feedback
	// appends labeled outcomes to its per-tenant retrain windows, GET
	// /admin/trainer reports the champion/challenger loop's state, and
	// POST /admin/retrain triggers a cycle on demand. Nil leaves
	// /v1/feedback and /admin/retrain answering 501. The caller owns
	// the trainer's lifecycle (Start/Close); the server only routes
	// into it.
	Trainer *trainer.Trainer
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxItems <= 0 {
		o.MaxItems = 10000
	}
	if o.DefaultTenant == "" {
		o.DefaultTenant = DefaultTenant
	}
	return o
}

// Server serves detection requests from a registry of trained models.
// It is safe for concurrent use.
type Server struct {
	opts Options
	reg  *registry.Registry

	served atomic.Int64
	ready  atomic.Bool
	obsReg *obs.Registry
	httpm  *httpMetrics
}

// NewWithRegistry builds a Server over a model registry. Tenants the
// registry loads (before or after this call) become routable
// immediately; /admin/reload swaps them live. The server starts ready;
// SetReady(false) flips /readyz to 503 (catsserve does this before
// draining on shutdown, so load balancers stop routing to it).
// Drift baselines come from each model's snapshot-carried training
// sample.
func NewWithRegistry(reg *registry.Registry, opts Options) *Server {
	opts = opts.withDefaults()
	obsReg := opts.Registry
	if obsReg == nil {
		obsReg = obs.Default
	}
	s := &Server{
		opts:   opts,
		reg:    reg,
		obsReg: obsReg,
		httpm:  newHTTPMetrics(obsReg),
	}
	s.ready.Store(true)
	return s
}

// Close unpublishes every tenant's model: requests already holding one
// finish on it, and further requests answer 503. catsserve calls this
// after the HTTP server finishes its shutdown.
func (s *Server) Close() { s.reg.Close() }

// SetReady flips the /readyz verdict. It does not affect request
// handling — in-flight and new requests still complete — only what the
// readiness probe reports.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the current /readyz verdict.
func (s *Server) Ready() bool { return s.ready.Load() }

// Registry exposes the metrics registry backing /metrics.
func (s *Server) Registry() *obs.Registry { return s.obsReg }

// ModelRegistry exposes the tenant model registry the server routes to.
func (s *Server) ModelRegistry() *registry.Registry { return s.reg }

// ItemsServed reports the number of items scored since start, across
// all tenants.
func (s *Server) ItemsServed() int64 { return s.served.Load() }

// Handler returns the service's HTTP handler. Every route is wrapped
// in the HTTP metrics middleware and enforces its method, answering 405
// with an Allow header otherwise. Each /v1/* route is registered twice:
// bare (header/default tenant resolution) and under /t/{tenant}/
// (explicit path routing); the metrics' route label is the pattern, so
// cardinality does not grow with tenants.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, method string, h http.HandlerFunc) {
		wrapped := s.httpm.wrap(pattern, allowMethod(method, h))
		mux.Handle(pattern, wrapped)
		mux.Handle("/t/{tenant}"+pattern, s.httpm.wrap("/t/{tenant}"+pattern, allowMethod(method, h)))
	}
	route("/v1/detect", http.MethodPost, s.handleDetect)
	route("/v1/explain", http.MethodPost, s.handleExplain)
	route("/v1/importance", http.MethodGet, s.handleImportance)
	route("/v1/drift", http.MethodGet, s.handleDrift)
	route("/v1/lexicon", http.MethodGet, s.handleLexicon)
	route("/v1/feedback", http.MethodPost, s.handleFeedback)
	single := func(pattern, method string, h http.HandlerFunc) {
		mux.Handle(pattern, s.httpm.wrap(pattern, allowMethod(method, h)))
	}
	single("/admin/reload", http.MethodPost, s.handleAdminReload)
	single("/admin/tenants", http.MethodGet, s.handleAdminTenants)
	single("/admin/trainer", http.MethodGet, s.handleAdminTrainer)
	single("/admin/retrain", http.MethodPost, s.handleAdminRetrain)
	single("/healthz", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "items_served": s.ItemsServed()})
	})
	single("/readyz", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})
	mux.Handle("/metrics", s.httpm.wrap("/metrics", metricsHandler(s.obsReg)))
	return mux
}

// tenantName resolves which tenant a request addresses: the
// /t/{tenant}/ path segment wins, then the X-Cats-Tenant header, then
// the server default.
func (s *Server) tenantName(r *http.Request) string {
	if v := r.PathValue("tenant"); v != "" {
		return v
	}
	if v := r.Header.Get("X-Cats-Tenant"); v != "" {
		return v
	}
	return s.opts.DefaultTenant
}

// withModel runs fn with the request's tenant model, the one handle fn
// serves the whole request from (registry.Tenant.Do). When there is no
// model it writes the error response itself — 404 unknown tenant, 503
// none loaded — and fn is not called.
func (s *Server) withModel(w http.ResponseWriter, r *http.Request, fn func(tenant string, h *registry.Handle)) {
	name := s.tenantName(r)
	t := s.reg.Tenant(name)
	if t == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", name))
		return
	}
	if !t.Do(func(h *registry.Handle) { fn(name, h) }) {
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("tenant %q has no model loaded", name))
	}
}

// allowMethod gates a handler to one method, answering anything else
// with 405 and an Allow header as RFC 9110 requires.
func allowMethod(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, method+" required")
			return
		}
		h(w, r)
	}
}

// decodeStatus maps a JSON decode failure to its status: 413 when the
// MaxBytesReader cap tripped, 400 for malformed input.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// DetectRequest is the /v1/detect request body.
type DetectRequest struct {
	Items []ecom.Item `json:"items"`
}

// DetectionDTO is one scored item in the response.
type DetectionDTO struct {
	ItemID   string  `json:"item_id"`
	Score    float64 `json:"score"`
	IsFraud  bool    `json:"fraud"`
	Filtered bool    `json:"filtered"`
}

// detectionDTO converts a core detection.
func detectionDTO(d core.Detection) DetectionDTO {
	return DetectionDTO{ItemID: d.ItemID, Score: d.Score, IsFraud: d.IsFraud, Filtered: d.Filtered}
}

// DetectResponse is the /v1/detect response body. Tenant and
// ModelVersion identify the model that scored the request — under hot
// reload they are the request's provenance record.
type DetectResponse struct {
	Detections      []DetectionDTO `json:"detections"`
	Reported        int            `json:"reported"`
	Tenant          string         `json:"tenant,omitempty"`
	ModelVersion    string         `json:"model_version,omitempty"`
	ModelGeneration uint64         `json:"model_generation,omitempty"`
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req DetectRequest
	if err := s.decodeItems(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "no items")
		return
	}
	if len(req.Items) > s.opts.MaxItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d items exceeds the %d-item limit", len(req.Items), s.opts.MaxItems))
		return
	}
	s.withModel(w, r, func(tenant string, h *registry.Handle) {
		// One fused pass: the detector returns the feature matrix it
		// computed while scoring, so drift recording costs no re-extraction.
		// The tenant's dispatcher may satisfy part of the request from
		// batches shared with concurrent callers.
		dets, X, ok := s.detect(w, r, h, req.Items)
		if !ok {
			return
		}
		h.RecordDrift(X)
		resp := DetectResponse{
			Detections:      make([]DetectionDTO, len(dets)),
			Tenant:          tenant,
			ModelVersion:    h.Version,
			ModelGeneration: h.Generation,
		}
		for i, d := range dets {
			resp.Detections[i] = detectionDTO(d)
			if d.IsFraud {
				resp.Reported++
			}
		}
		s.served.Add(int64(len(dets)))
		writeJSON(w, http.StatusOK, resp)
	})
}

// detect scores a request's items through the handle's dispatcher: the
// one scoring call of detect and explain. On failure it answers the
// request itself — 503 with Retry-After for a shed, nothing to a client
// that went away, else 500 — and reports false.
func (s *Server) detect(w http.ResponseWriter, r *http.Request, h *registry.Handle, items []ecom.Item) ([]core.Detection, [][]float64, bool) {
	res, err := h.Dispatcher().Submit(r.Context(), items)
	switch {
	case err == nil:
		return res.Detections, res.Features, true
	case dispatch.IsShed(err):
		s.writeShed(w, h)
	case r.Context().Err() == nil: // else nobody is listening
		writeError(w, http.StatusInternalServerError, err.Error())
	}
	return nil, nil, false
}

// writeShed answers an admission-control rejection: 503 with the
// dispatcher's Retry-After hint, telling well-behaved clients when to
// come back instead of hammering a saturated queue.
func (s *Server) writeShed(w http.ResponseWriter, h *registry.Handle) {
	secs := int(math.Ceil(h.Dispatcher().Options().RetryAfter.Seconds())) // >= 1: RetryAfter > 0 once resolved
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable,
		"overloaded: request shed by admission control; retry after the indicated delay")
}

// ExplainRequest is the /v1/explain request body: one item to explain.
type ExplainRequest struct {
	Item ecom.Item `json:"item"`
}

// ExplainResponse is the /v1/explain response body. Tenant, ModelVersion
// and ModelGeneration are its provenance, as on DetectResponse.
type ExplainResponse struct {
	Detection       DetectionDTO     `json:"detection"`
	Features        []gbt.Importance `json:"decision_path_features"`
	Vector          []float64        `json:"feature_vector"`
	Names           []string         `json:"feature_names"`
	Tenant          string           `json:"tenant,omitempty"`
	ModelVersion    string           `json:"model_version,omitempty"`
	ModelGeneration uint64           `json:"model_generation,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if err := s.decodeItems(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Sprintf("decode request: %v", err))
		return
	}
	s.withModel(w, r, func(tenant string, h *registry.Handle) {
		// An explain is scored as detect traffic is, on the same
		// coalescing queue, so an item being explained while it is being
		// scored for someone else costs one analysis, and overload sheds
		// here too.
		dets, X, ok := s.detect(w, r, h, []ecom.Item{req.Item})
		if !ok {
			return
		}
		vec := X[0]
		if vec == nil {
			// Sales-filtered items skip extraction in the fused pipeline,
			// but /v1/explain promises the vector; compute it on demand.
			vec = h.Detector.Extractor().Vector(&req.Item)
		}
		exp, err := h.Detector.ExplainVector(vec)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, ExplainResponse{
			Detection:       detectionDTO(dets[0]),
			Features:        exp,
			Vector:          vec,
			Names:           features.Names,
			Tenant:          tenant,
			ModelVersion:    h.Version,
			ModelGeneration: h.Generation,
		})
	})
}

// ImportanceResponse is the /v1/importance response body.
type ImportanceResponse struct {
	Features []gbt.Importance `json:"features"`
}

func (s *Server) handleImportance(w http.ResponseWriter, r *http.Request) {
	s.withModel(w, r, func(_ string, h *registry.Handle) {
		imp, err := h.Detector.Model().FeatureImportance()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, ImportanceResponse{Features: imp})
	})
}

// DriftFeature is one feature's training-vs-traffic comparison.
type DriftFeature struct {
	Feature string  `json:"feature"`
	KS      float64 `json:"ks"`
}

// DriftResponse is the /v1/drift response body.
type DriftResponse struct {
	ItemsObserved int64          `json:"items_observed"`
	SampleSize    int            `json:"sample_size"`
	Features      []DriftFeature `json:"features"`
	// MaxKS is the worst per-feature divergence — the headline drift
	// signal to alert on.
	MaxKS  float64 `json:"max_ks"`
	Tenant string  `json:"tenant,omitempty"`
	// ModelGeneration is the generation the reservoir was collected
	// under; each generation keeps its own sample.
	ModelGeneration uint64 `json:"model_generation,omitempty"`
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	s.withModel(w, r, func(tenant string, h *registry.Handle) {
		sample, baseline, seen, ok := h.DriftSample()
		if !ok {
			writeError(w, http.StatusNotImplemented, "drift tracking disabled: no training sample configured")
			return
		}
		resp := DriftResponse{
			ItemsObserved: seen, SampleSize: len(sample),
			Tenant: tenant, ModelGeneration: h.Generation,
		}
		if len(sample) == 0 {
			writeJSON(w, http.StatusOK, resp)
			return
		}
		column := func(rows [][]float64, j int) []float64 {
			out := make([]float64, len(rows))
			for i := range rows {
				out[i] = rows[i][j]
			}
			return out
		}
		for j, name := range features.Names {
			ks := stats.KS(column(baseline, j), column(sample, j))
			resp.Features = append(resp.Features, DriftFeature{Feature: name, KS: ks})
			if ks > resp.MaxKS {
				resp.MaxKS = ks
			}
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// LexiconResponse is the /v1/lexicon response body.
type LexiconResponse struct {
	Positive     []string `json:"positive"`
	Negative     []string `json:"negative"`
	FeatureNames []string `json:"feature_names"`
}

func (s *Server) handleLexicon(w http.ResponseWriter, r *http.Request) {
	s.withModel(w, r, func(_ string, h *registry.Handle) {
		writeJSON(w, http.StatusOK, LexiconResponse{
			Positive:     h.Analyzer.Positive.Words(),
			Negative:     h.Analyzer.Negative.Words(),
			FeatureNames: features.Names,
		})
	})
}

// ReloadRequest is the /admin/reload request body: which tenant to
// reload, and optionally a new snapshot path (otherwise the tenant's
// remembered source is re-read).
type ReloadRequest struct {
	Tenant string `json:"tenant"`
	Path   string `json:"path,omitempty"`
}

// authAdmin enforces Bearer-token auth on /admin/*: 403 when no token
// is configured (the endpoints are disabled), 401 on a missing or
// wrong token. The comparison is constant-time.
func (s *Server) authAdmin(w http.ResponseWriter, r *http.Request) bool {
	if s.opts.AdminToken == "" {
		writeError(w, http.StatusForbidden, "admin endpoints disabled: no admin token configured")
		return false
	}
	tok, _ := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if subtle.ConstantTimeCompare([]byte(tok), []byte(s.opts.AdminToken)) != 1 {
		w.Header().Set("WWW-Authenticate", `Bearer realm="cats-admin"`)
		writeError(w, http.StatusUnauthorized, "missing or invalid admin token")
		return false
	}
	return true
}

// handleAdminReload hot-reloads one tenant's model: load → golden-probe
// validation → atomic swap, via the registry. A rejected or unreadable
// candidate answers 422 with the registry's diagnosable error (snapshot
// version, byte offset, probe verdicts) and leaves the old model live.
// With a path in the body, the tenant is (re)pointed at that snapshot —
// which also creates new tenants at runtime.
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	var req ReloadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, decodeStatus(err), fmt.Sprintf("decode request: %v", err))
		return
	}
	if req.Tenant == "" {
		writeError(w, http.StatusBadRequest, "tenant required")
		return
	}
	var info registry.Info
	var err error
	if req.Path != "" {
		info, err = s.reg.LoadFile(r.Context(), req.Tenant, req.Path)
	} else {
		if s.reg.Tenant(req.Tenant) == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", req.Tenant))
			return
		}
		info, err = s.reg.Reload(r.Context(), req.Tenant)
	}
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, registry.ErrNoSource) {
			code = http.StatusBadRequest
		}
		writeError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleAdminTenants lists every tenant's live model.
func (s *Server) handleAdminTenants(w http.ResponseWriter, r *http.Request) {
	if !s.authAdmin(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"default": s.opts.DefaultTenant,
		"tenants": s.reg.Infos(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // a connection-level failure; nothing else to do
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
