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
// Detect, explain and feedback bodies in the canonical encoding are read
// by a single-pass decoder, everything else by encoding/json (decode.go).
// Every route is wrapped in obs HTTP middleware: per-route request
// counts by status code, per-route latency histograms, and an
// in-flight gauge. Route labels use the registered pattern
// ("/t/{tenant}/v1/detect"), so metric cardinality stays bounded no
// matter how many tenants exist.
//
// With batching configured (registry.Options.Batching), each tenant's
// detection requests flow through that tenant's own internal/dispatch
// coalescing dispatcher (DESIGN.md §11) instead of each paying its own
// scoring batch: concurrent requests fuse into shared batches,
// identical in-flight items score once, and overload sheds with 503 +
// Retry-After instead of queuing doomed work — per tenant, so one hot
// tenant cannot starve its neighbors' admission queues.
//
// Model coherence: a request Acquires its tenant's current model
// handle once, up front, and holds it until the response is written.
// A concurrent /admin/reload swaps the tenant's handle atomically; the
// in-flight request finishes on the model it started with, and the old
// model's dispatcher drains and closes only after its last holder
// releases (internal/registry).
package service

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
	// Workers bounds per-request feature-extraction parallelism;
	// <= 0 means GOMAXPROCS.
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

// driftReservoir caps the retained scored-traffic sample per tenant.
const driftReservoir = 4096

// driftState is one tenant's scored-traffic reservoir plus the
// training baseline it is compared against. The state resets when the
// tenant's model generation changes: drift relative to a retired
// model's training set is meaningless after a reload.
type driftState struct {
	mu       sync.Mutex
	gen      uint64
	baseline [][]float64
	seen     int64
	res      [][]float64
	rng      *rand.Rand
}

// Server serves detection requests from a registry of trained models.
// It is safe for concurrent use.
type Server struct {
	opts Options
	reg  *registry.Registry

	served atomic.Int64
	ready  atomic.Bool
	obsReg *obs.Registry
	httpm  *obs.HTTPMetrics
	// Which decoder read each detect/explain/feedback body (decode.go).
	detectDecodes, explainDecodes, feedbackDecodes decodeMetrics
	// stdlibOnly sends every body through encoding/json. Only the
	// differential tests set it: it makes a server the oracle.
	stdlibOnly bool

	driftMu sync.Mutex
	drift   map[string]*driftState
}

// NewWithRegistry builds a Server over a model registry. Tenants the
// registry loads (before or after this call) become routable
// immediately; /admin/reload swaps them live. The server starts ready;
// SetReady(false) flips /readyz to 503 (catsserve does this before
// draining on shutdown, so load balancers stop routing to it).
// Per-tenant drift baselines come from each model's snapshot-carried
// training sample.
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
		httpm:  obs.NewHTTPMetrics(obsReg),
		drift:  map[string]*driftState{},
	}
	s.detectDecodes, s.explainDecodes, s.feedbackDecodes = newDecodeMetrics(obsReg)
	s.ready.Store(true)
	return s
}

// Close retires every tenant's model: queued work flushes, in-flight
// batches complete, and further detect requests answer 503. catsserve
// calls this after the HTTP server finishes its shutdown.
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

// driftFor returns the tenant's drift state for the model generation
// the request is being served by, resetting the reservoir when a
// reload or trainer promotion has swapped generations since last
// observed. The reset is monotonic: a request still finishing on a
// retired handle gets nil rather than wiping the new generation's
// reservoir back to its own, and the sampling RNG is reseeded from the
// generation so each model's reservoir draws an independent,
// reproducible stream. Returns nil when the tenant has no drift
// baseline (tracking disabled).
func (s *Server) driftFor(tenant string, h *registry.Handle) *driftState {
	s.driftMu.Lock()
	st, ok := s.drift[tenant]
	if !ok {
		st = &driftState{rng: rand.New(rand.NewSource(1))}
		s.drift[tenant] = st
	}
	s.driftMu.Unlock()
	st.mu.Lock()
	switch {
	case h.Generation > st.gen:
		st.gen = h.Generation
		// The model's own training sample, so that a promoted or
		// reloaded model is measured against what it was fitted on,
		// never its predecessor's training set. A model that carries
		// none has drift disabled.
		st.baseline = h.Detector.TrainingSample()
		st.seen = 0
		st.res = nil
		st.rng = rand.New(rand.NewSource(int64(h.Generation)))
	case h.Generation < st.gen:
		// Stale handle: its model was already replaced, so its traffic
		// must neither pollute the live reservoir nor reset it.
		st.mu.Unlock()
		return nil
	}
	if len(st.baseline) == 0 {
		st.mu.Unlock()
		return nil
	}
	st.mu.Unlock()
	return st
}

// recordDrift reservoir-samples scored feature vectors into the
// tenant's drift state.
func (s *Server) recordDrift(st *driftState, vectors [][]float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, v := range vectors {
		st.seen++
		if len(st.res) < driftReservoir {
			st.res = append(st.res, v)
			continue
		}
		if j := st.rng.Int63n(st.seen); int(j) < len(st.res) {
			st.res[j] = v
		}
	}
}

// ItemsServed reports the number of items scored since start, across
// all tenants.
func (s *Server) ItemsServed() int64 { return s.served.Load() }

// Handler returns the service's HTTP handler. Every route is wrapped
// in the obs HTTP middleware and enforces its method, answering 405
// with an Allow header otherwise. Each /v1/* route is registered twice:
// bare (header/default tenant resolution) and under /t/{tenant}/
// (explicit path routing); the obs route label is the pattern, so
// cardinality does not grow with tenants.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, method string, h http.HandlerFunc) {
		wrapped := s.httpm.Wrap(pattern, allowMethod(method, h))
		mux.Handle(pattern, wrapped)
		mux.Handle("/t/{tenant}"+pattern, s.httpm.Wrap("/t/{tenant}"+pattern, allowMethod(method, h)))
	}
	route("/v1/detect", http.MethodPost, s.handleDetect)
	route("/v1/explain", http.MethodPost, s.handleExplain)
	route("/v1/importance", http.MethodGet, s.handleImportance)
	route("/v1/drift", http.MethodGet, s.handleDrift)
	route("/v1/lexicon", http.MethodGet, s.handleLexicon)
	route("/v1/feedback", http.MethodPost, s.handleFeedback)
	single := func(pattern, method string, h http.HandlerFunc) {
		mux.Handle(pattern, s.httpm.Wrap(pattern, allowMethod(method, h)))
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
	mux.Handle("/metrics", s.httpm.Wrap("/metrics", s.obsReg.Handler()))
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

// withModel runs fn with a lease on the request's tenant model, held
// until fn returns (registry.Tenant.Do). When there is no model to
// lease it writes the error response itself — 404 unknown tenant, 503
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
	if err := s.decodeItems(w, r, s.detectDecodes, &req); err != nil {
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
		// With batching on, the tenant's dispatcher may satisfy part of the
		// request from batches shared with concurrent callers.
		dets, X, err := s.detect(r, h, req.Items)
		if err != nil {
			if dispatch.IsShed(err) {
				s.writeShed(w, h)
				return
			}
			if r.Context().Err() != nil {
				return // client went away; nobody is listening
			}
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if st := s.driftFor(tenant, h); st != nil {
			// Rows are nil for items the sales cutoff dropped before
			// extraction; drift tracks the distribution of analyzed traffic.
			vectors := X[:0]
			for _, v := range X {
				if v != nil {
					vectors = append(vectors, v)
				}
			}
			s.recordDrift(st, vectors)
		}
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

// detect scores a request's items through the handle's batching
// dispatcher when configured, or the model's own fused batch path
// otherwise.
func (s *Server) detect(r *http.Request, h *registry.Handle, items []ecom.Item) ([]core.Detection, [][]float64, error) {
	if disp := h.Dispatcher(); disp != nil {
		res, err := disp.Submit(r.Context(), items)
		return res.Detections, res.Features, err
	}
	return h.Detector.DetectWithFeatures(r.Context(), items, s.opts.Workers)
}

// writeShed answers an admission-control rejection: 503 with the
// dispatcher's Retry-After hint, telling well-behaved clients when to
// come back instead of hammering a saturated queue.
func (s *Server) writeShed(w http.ResponseWriter, h *registry.Handle) {
	secs := 1
	if disp := h.Dispatcher(); disp != nil {
		if v := int(math.Ceil(disp.Options().RetryAfter.Seconds())); v > secs {
			secs = v
		}
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable,
		"overloaded: request shed by admission control; retry after the indicated delay")
}

// ExplainRequest is the /v1/explain request body: one item to explain.
type ExplainRequest struct {
	Item ecom.Item `json:"item"`
}

// ExplainResponse is the /v1/explain response body.
type ExplainResponse struct {
	Detection    DetectionDTO     `json:"detection"`
	Features     []gbt.Importance `json:"decision_path_features"`
	Vector       []float64        `json:"feature_vector"`
	Names        []string         `json:"feature_names"`
	Tenant       string           `json:"tenant,omitempty"`
	ModelVersion string           `json:"model_version,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if err := s.decodeItems(w, r, s.explainDecodes, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Sprintf("decode request: %v", err))
		return
	}
	s.withModel(w, r, func(tenant string, h *registry.Handle) {
		var det core.Detection
		var vec []float64
		if h.Dispatcher() != nil {
			// Single-item explains ride the same coalescing queue as detect
			// traffic: an item being explained while it is being scored for
			// someone else costs one analysis, and overload sheds here too.
			dets, X, err := s.detect(r, h, []ecom.Item{req.Item})
			if err != nil {
				if dispatch.IsShed(err) {
					s.writeShed(w, h)
					return
				}
				if r.Context().Err() != nil {
					return
				}
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
			det, vec = dets[0], X[0]
		} else {
			var err error
			det, vec, err = h.Detector.DetectItemWithFeatures(&req.Item)
			if err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
		}
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
			Detection:    detectionDTO(det),
			Features:     exp,
			Vector:       vec,
			Names:        features.Names,
			Tenant:       tenant,
			ModelVersion: h.Version,
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
	// under; a reload resets the sample.
	ModelGeneration uint64 `json:"model_generation,omitempty"`
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	s.withModel(w, r, func(tenant string, h *registry.Handle) {
		st := s.driftFor(tenant, h)
		if st == nil {
			writeError(w, http.StatusNotImplemented, "drift tracking disabled: no training sample configured")
			return
		}
		st.mu.Lock()
		sample := make([][]float64, len(st.res))
		copy(sample, st.res)
		seen := st.seen
		baseline := st.baseline
		st.mu.Unlock()
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
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection-level failure; nothing else to do.
		_ = err
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
