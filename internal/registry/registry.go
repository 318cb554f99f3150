// Package registry is the serving stack's multi-tenant model registry:
// named tenants, each holding an atomically-swappable (detector,
// analyzer, version) handle, with zero-downtime reload.
//
// The paper's central claim is cross-platform detection — pre-train on
// Taobao, deploy on a new E-platform (§VI) — which in production means
// one process serving several platforms' models at once, each retrained
// and rolled out on its own schedule. The registry is that substrate:
//
//   - Load → validate → swap. A candidate snapshot is materialized into
//     a detector, scored against the tenant's golden probe set, and
//     only on a clean verdict does an atomic pointer swap publish it. A
//     bad snapshot — truncated file, wrong version, a retrain that lost
//     the plot — never goes live; the tenant keeps serving its old model
//     and the caller gets a diagnosable error.
//   - In-flight requests finish on the model they started with. A
//     handle is a value fixed at publish: a request loads the tenant's
//     current one (Tenant.Do) and keeps it end to end; a swap only
//     stops handing the old one out, and the garbage collector ends it
//     once no request holds it. No request ever observes half of one
//     model and half of another, and none is dropped by a reload.
//   - Per-generation drift. Each handle carries its own scored-traffic
//     reservoir against its own model's training sample, so a reload
//     starts a fresh sample with nothing to reset.
//   - Per-tenant serving isolation. Each handle owns its own batching
//     dispatcher (internal/dispatch) with its own admission queue and
//     optional batch-concurrency quota, and every cats_pipeline_* /
//     cats_serve_* metric the model emits carries the tenant label —
//     one hot tenant saturates its own queue, not its neighbors'.
//
// internal/service routes requests here per tenant; cmd/catsserve loads
// a directory of snapshots into it and re-scans on SIGHUP or an
// authenticated /admin/reload.
package registry

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/ecom"
)

// Options tunes the registry.
type Options struct {
	// Batching is the dispatcher template every tenant's handle is
	// served through: each loaded model gets its own dispatcher built
	// from these settings with Tenant set to the tenant's name. The zero
	// value means the dispatcher's defaults.
	Batching dispatch.Options
	// Workers bounds probe-validation parallelism; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Probes is the default golden probe set a candidate model must
	// pass before a swap publishes it; per-tenant sets override it via
	// SetProbes. An empty set admits any decodable, trained model.
	Probes ProbeSet
}

// Probe is one golden-set item a candidate model must score.
type Probe struct {
	Item ecom.Item `json:"item"`
	// WantFraud, when non-nil, is the verdict the candidate must
	// reproduce; nil probes only require a clean scoring pass.
	WantFraud *bool `json:"want_fraud,omitempty"`
}

// ProbeSet is a golden probe collection plus its acceptance bar.
type ProbeSet struct {
	Probes []Probe
	// MaxMismatches is how many WantFraud expectations a candidate may
	// miss and still go live — headroom for legitimate drift between
	// retrains. 0 means every expectation must hold.
	MaxMismatches int
}

// Model is one immutable loaded model: the unit a tenant swaps.
type Model struct {
	Detector *core.Detector
	Analyzer *core.Analyzer
	// Version identifies the snapshot bytes (source base name plus a
	// content hash for file loads; caller-supplied otherwise).
	Version string
	// Generation is the tenant's monotonic load counter; it is what
	// cats_registry_model_version reports.
	Generation uint64
}

// Handle is one published generation of a tenant's model, fixed at
// publish bar its drift sample. A request loads it once and is served
// by that one coherent (detector, analyzer) pair end to end, even when
// a reload swaps the tenant mid-flight; a swap only stops handing it
// out, and the garbage collector ends it once the last request holding
// it is done. Tenant.Do is how one is held.
type Handle struct {
	Model
	disp  *dispatch.Dispatcher
	drift *drift // nil when the detector carries no training sample
}

// Dispatcher returns the handle's batching dispatcher, the one way a
// served request is scored.
func (h *Handle) Dispatcher() *dispatch.Dispatcher { return h.disp }

// Release does nothing: a handle needs no returning. It stays, with
// Acquire, only because bench/ times the pair (registry.acquire_ns).
func (h *Handle) Release() {}

// driftReservoir caps the scored-traffic sample a generation retains.
const driftReservoir = 4096

// drift is one generation's scored-traffic reservoir and the training
// baseline it is compared against. Each generation has its own, so a
// reload starts a fresh sample measured against the new model's own
// training set.
type drift struct {
	baseline [][]float64

	mu   sync.Mutex
	seen int64
	res  [][]float64
	rng  *rand.Rand // seeded from the generation: a reproducible stream per model
}

// RecordDrift reservoir-samples scored feature vectors into the
// generation's drift sample; a no-op when drift tracking is off. Rows
// are nil for items the sales cutoff dropped before extraction: drift
// tracks the distribution of analyzed traffic.
func (h *Handle) RecordDrift(vectors [][]float64) {
	st := h.drift
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, v := range vectors {
		if v == nil {
			continue
		}
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

// DriftSample returns a copy of the generation's drift reservoir, the
// number of vectors it has observed, and the training baseline they are
// measured against; ok is false when the detector carries no training
// sample, so drift tracking is off.
func (h *Handle) DriftSample() (sample, baseline [][]float64, seen int64, ok bool) {
	st := h.drift
	if st == nil {
		return nil, nil, 0, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([][]float64(nil), st.res...), st.baseline, st.seen, true
}

// Tenant is one named model slot.
type Tenant struct {
	name string
	reg  *Registry
	m    *tenantMetrics

	// cur is the published handle, swapped under reloadMu.
	cur atomic.Pointer[Handle]

	// reloadMu serializes swaps (validation runs outside it), making
	// generation order identical to publication order.
	reloadMu sync.Mutex
	gen      uint64

	probeMu sync.Mutex
	probes  ProbeSet

	sourceMu sync.Mutex
	source   string // snapshot path for Reload; set by LoadFile
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Do runs fn with the tenant's current model, and reports false without
// calling fn when none has been loaded yet. fn keeps the handle it was
// given to the end, whatever is published meanwhile.
func (t *Tenant) Do(fn func(*Handle)) bool {
	h := t.cur.Load()
	if h == nil {
		return false
	}
	fn(h)
	return true
}

// Acquire returns the tenant's current model, or nil when none has been
// loaded yet. It is Do without the callback, exported for bench/.
func (t *Tenant) Acquire() *Handle { return t.cur.Load() }

// Version reports the tenant's live model version and generation;
// ok is false when nothing is loaded.
func (t *Tenant) Version() (version string, generation uint64, ok bool) {
	h := t.cur.Load()
	if h == nil {
		return "", 0, false
	}
	return h.Model.Version, h.Model.Generation, true
}

// Source reports the snapshot path Reload re-reads, if any.
func (t *Tenant) Source() string {
	t.sourceMu.Lock()
	defer t.sourceMu.Unlock()
	return t.source
}

func (t *Tenant) setSource(path string) {
	t.sourceMu.Lock()
	t.source = path
	t.sourceMu.Unlock()
}

func (t *Tenant) probeSet() ProbeSet {
	t.probeMu.Lock()
	defer t.probeMu.Unlock()
	return t.probes
}

// Registry holds the tenants. It is safe for concurrent use.
type Registry struct {
	opts Options

	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// New returns an empty registry.
func New(opts Options) *Registry {
	return &Registry{opts: opts, tenants: map[string]*Tenant{}}
}

// Options returns the registry's options.
func (r *Registry) Options() Options { return r.opts }

// Tenant returns the named tenant, or nil when it was never loaded.
func (r *Registry) Tenant(name string) *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[name]
}

// Names lists the tenants in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// ensureTenant returns the named tenant, creating the slot if needed: on
// a first publish, or a SetProbes that asked for it. A load that fails
// makes none, so a typo'd name never becomes a routable tenant.
func (r *Registry) ensureTenant(name string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[name]; ok {
		return t
	}
	t := &Tenant{name: name, reg: r, m: metricsByTenant.For(name), probes: r.opts.Probes}
	r.tenants[name] = t
	return t
}

// SetProbes replaces the tenant's golden probe set (creating the tenant
// slot if needed), overriding the registry-wide default for that tenant.
func (r *Registry) SetProbes(tenant string, ps ProbeSet) {
	t := r.ensureTenant(tenant)
	t.probeMu.Lock()
	t.probes = ps
	t.probeMu.Unlock()
}

// ErrProbeRejected wraps golden-probe validation failures; a Load that
// returns it left the tenant's previous model live.
var ErrProbeRejected = errors.New("registry: candidate model rejected by golden probe set")

// ErrNoSource reports a Reload on a tenant that was never file-loaded.
var ErrNoSource = errors.New("registry: tenant has no snapshot source to reload from")

// Info describes one published model.
type Info struct {
	Tenant     string `json:"tenant"`
	Version    string `json:"version"`
	Generation uint64 `json:"generation"`
	Source     string `json:"source,omitempty"`
}

// Infos lists every tenant's live model.
func (r *Registry) Infos() []Info {
	names := r.Names()
	out := make([]Info, 0, len(names))
	for _, name := range names {
		t := r.Tenant(name)
		v, gen, ok := t.Version()
		if !ok {
			continue
		}
		out = append(out, Info{Tenant: name, Version: v, Generation: gen, Source: t.Source()})
	}
	return out
}

// Load materializes a snapshot into a candidate model and Installs it.
// On any failure the tenant's previous model stays live and keeps
// serving. version labels the snapshot in Info and reload responses.
func (r *Registry) Load(ctx context.Context, tenant, version string, snap *core.DetectorSnapshot) (Info, error) {
	det, analyzer, err := core.DetectorFromSnapshot(snap)
	if err != nil {
		metricsByTenant.For(tenant).reloadError.Inc()
		return Info{}, fmt.Errorf("registry: load %s: %w", tenant, err)
	}
	return r.Install(ctx, tenant, version, det, analyzer)
}

// Install validates an already-materialized model against the tenant's
// golden probe set and atomically publishes it — the one publish tail:
// Load and LoadFile end here, and in-process construction (a freshly
// trained detector, a trainer promotion) starts here.
func (r *Registry) Install(ctx context.Context, tenant, version string, det *core.Detector, analyzer *core.Analyzer) (Info, error) {
	det.SetMetricsTenant(tenant)
	probes := r.opts.Probes
	if t := r.Tenant(tenant); t != nil {
		probes = t.probeSet()
	}
	if err := r.validate(ctx, probes, det); err != nil {
		metricsByTenant.For(tenant).reloadRejected.Inc()
		return Info{}, fmt.Errorf("registry: install %s (version %s): %w", tenant, version, err)
	}
	return r.ensureTenant(tenant).publish(det, analyzer, version), nil
}

// LoadFile is Load from a snapshot file; once the model is live the
// tenant remembers path as its Reload source. The version is the file's
// base name, '#', and a 64-bit content hash in 16 hex digits: the
// CRC-32 (IEEE) of the bytes, then their CRC-32C. Both run on the CPU's
// CRC instructions, so hashing costs a small fraction of the load it
// names; the same bytes always give the same version.
func (r *Registry) LoadFile(ctx context.Context, tenant, path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		metricsByTenant.For(tenant).reloadError.Inc()
		return Info{}, fmt.Errorf("registry: load %s: %w", tenant, err)
	}
	ieee, castagnoli := crc32.NewIEEE(), crc32.New(crc32.MakeTable(crc32.Castagnoli))
	tee := io.TeeReader(f, io.MultiWriter(ieee, castagnoli))
	snap, err := core.ReadSnapshot(tee)
	if err == nil {
		// ReadSnapshot buffers and may stop short of EOF (a columnar
		// container ends at its last block); drain the tee so the
		// version hash always covers the whole file.
		_, err = io.Copy(io.Discard, tee)
	}
	f.Close()
	if err != nil {
		metricsByTenant.For(tenant).reloadError.Inc()
		return Info{}, fmt.Errorf("registry: load %s from %s: %w", tenant, path, err)
	}
	info, err := r.Load(ctx, tenant, fmt.Sprintf("%s#%08x%08x", filepath.Base(path), ieee.Sum32(), castagnoli.Sum32()), snap)
	if err != nil {
		return Info{}, err
	}
	r.Tenant(tenant).setSource(path) // published, so the slot exists
	info.Source = path
	return info, nil
}

// Reload re-reads the tenant's snapshot source (set by LoadFile) and
// runs the full load → validate → swap sequence.
func (r *Registry) Reload(ctx context.Context, tenant string) (Info, error) {
	t := r.Tenant(tenant)
	if t == nil {
		return Info{}, fmt.Errorf("registry: unknown tenant %q", tenant)
	}
	src := t.Source()
	if src == "" {
		return Info{}, fmt.Errorf("registry: reload %s: %w", tenant, ErrNoSource)
	}
	return r.LoadFile(ctx, tenant, src)
}

// ReloadAll reloads every tenant that has a snapshot source, returning
// the first error after attempting all of them (catsserve's SIGHUP
// re-scan: one bad tenant must not block the others' rollout).
func (r *Registry) ReloadAll(ctx context.Context) error {
	var firstErr error
	for _, name := range r.Names() {
		t := r.Tenant(name)
		if t == nil || t.Source() == "" {
			continue
		}
		if _, err := r.Reload(ctx, name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// validate scores a golden probe set on the candidate detector: any
// scoring error or more than MaxMismatches missed WantFraud expectations
// rejects the candidate.
func (r *Registry) validate(ctx context.Context, ps ProbeSet, det *core.Detector) error {
	if len(ps.Probes) == 0 {
		return nil
	}
	items := make([]ecom.Item, len(ps.Probes))
	for i := range ps.Probes {
		items[i] = ps.Probes[i].Item
	}
	dets, err := det.DetectContext(ctx, items, r.opts.Workers)
	if err != nil {
		return fmt.Errorf("%w: probe scoring failed: %v", ErrProbeRejected, err)
	}
	mismatches := 0
	var firstMiss string
	for i := range ps.Probes {
		want := ps.Probes[i].WantFraud
		if want == nil || dets[i].IsFraud == *want {
			continue
		}
		mismatches++
		if firstMiss == "" {
			firstMiss = fmt.Sprintf("probe %d (item %s): got fraud=%v, want %v",
				i, items[i].ID, dets[i].IsFraud, *want)
		}
	}
	if mismatches > ps.MaxMismatches {
		return fmt.Errorf("%w: %d/%d probe verdicts missed (allowed %d); first: %s",
			ErrProbeRejected, mismatches, len(ps.Probes), ps.MaxMismatches, firstMiss)
	}
	return nil
}

// publish swaps the validated candidate in as the tenant's live model:
// generation assignment and the pointer store happen under reloadMu, so
// publication order equals generation order. The old handle is simply
// no longer handed out; requests still holding it finish on it.
func (t *Tenant) publish(det *core.Detector, analyzer *core.Analyzer, version string) Info {
	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	t.gen++
	o := t.reg.opts.Batching
	o.Tenant = t.name
	h := &Handle{
		Model: Model{Detector: det, Analyzer: analyzer, Version: version, Generation: t.gen},
		disp:  dispatch.New(det, o),
	}
	// The model's own training sample, so that a promoted or reloaded
	// model is measured against what it was fitted on, never its
	// predecessor's training set. A model that carries none has drift
	// disabled.
	if baseline := det.TrainingSample(); len(baseline) > 0 {
		h.drift = &drift{baseline: baseline, rng: rand.New(rand.NewSource(int64(t.gen)))}
	}
	t.cur.Store(h)
	t.m.modelVersion.Set(int64(t.gen))
	t.m.reloadOK.Inc()
	return Info{Tenant: t.name, Version: version, Generation: t.gen, Source: t.Source()}
}

// Close unpublishes every tenant's model: subsequent Acquires return
// nil, while requests already holding a handle finish on it.
func (r *Registry) Close() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, t := range r.tenants {
		t.cur.Store(nil)
	}
}
