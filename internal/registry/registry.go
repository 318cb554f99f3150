// Package registry is the serving stack's multi-tenant model registry:
// named tenants, each holding an atomically-swappable (detector,
// analyzer, version) handle, with zero-downtime reload.
//
// The paper's central claim is cross-platform detection — pre-train on
// Taobao, deploy on a new E-platform (§VI) — which in production means
// one process serving several platforms' models at once, each retrained
// and rolled out on its own schedule. The registry is that substrate:
//
//   - Load → validate → CAS. A candidate snapshot is materialized into
//     a detector, scored against the tenant's golden probe set, and
//     only on a clean verdict does a compare-and-swap publish it. A bad
//     snapshot — truncated file, wrong version, a retrain that lost the
//     plot — never goes live; the tenant keeps serving its old model
//     and the caller gets a diagnosable error.
//   - In-flight requests finish on the model they started with. A
//     request leases the tenant's current handle (Tenant.Do, refcounted)
//     and holds it end to end; a swap retires the old handle, whose
//     dispatcher drains and closes only after its last holder releases.
//     No request ever observes half of one model and half of another,
//     and none is dropped by a reload.
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
	"hash/fnv"
	"io"
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
	// Batching, when non-nil, is the dispatcher template every tenant's
	// handle is served through: each loaded model gets its own
	// dispatcher built from these settings with Tenant set to the
	// tenant's name. Nil serves each request with its own scoring
	// batch.
	Batching *dispatch.Options
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

// Handle is an acquired lease on a tenant's current model. Every
// request holds exactly one handle from admission to response, so the
// whole request is served by one coherent (detector, analyzer) pair
// even when a reload swaps the tenant mid-flight. Tenant.Do is how one
// is held.
type Handle struct {
	Model
	disp    *dispatch.Dispatcher // nil when batching is off
	refs    atomic.Int64
	retired atomic.Bool
}

// Dispatcher returns the handle's batching dispatcher, or nil when the
// registry was built without batching.
func (h *Handle) Dispatcher() *dispatch.Dispatcher { return h.disp }

// Release returns the lease. refs counts holders only — publication
// itself keeps the handle alive — so when the handle has been retired
// by a swap and this was its last holder, the dispatcher drains and
// closes: the deferred half of zero-downtime reload. A Release beyond
// the holder count is refused: the CAS loop never takes the count
// below zero, so a buggy double-Release cannot underflow the refcount
// or close a handle that is still published or still held.
func (h *Handle) Release() {
	for {
		n := h.refs.Load()
		if n <= 0 {
			return // already fully released: refuse the underflow
		}
		if h.refs.CompareAndSwap(n, n-1) {
			if n == 1 && h.retired.Load() {
				h.close()
			}
			return
		}
	}
}

// close shuts the handle's dispatcher down. Idempotent: dispatch.Close
// is safe to call more than once, and the acquire/release protocol can
// reach here twice only through already-idempotent paths.
func (h *Handle) close() {
	if h.disp != nil {
		h.disp.Close()
	}
}

// retire marks the handle replaced. Holders still finish on it; the
// last Release closes it, or retire does when none remain. The two
// sides can race to observe (retired, refs==0) — close is idempotent,
// so the overlap is harmless.
func (h *Handle) retire() {
	h.retired.Store(true)
	if h.refs.Load() == 0 {
		h.close()
	}
}

// Tenant is one named model slot.
type Tenant struct {
	name string
	reg  *Registry
	m    *tenantMetrics

	// cur is the published handle; Acquire spins on load-ref-recheck,
	// Load swaps it with CAS under reloadMu.
	cur atomic.Pointer[Handle]

	// reloadMu serializes swaps (validation runs outside it), making
	// generation order identical to publication order.
	reloadMu sync.Mutex
	gen      atomic.Uint64

	probeMu sync.Mutex
	probes  ProbeSet

	sourceMu sync.Mutex
	source   string // snapshot path for Reload; set by LoadFile
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Do runs fn with a lease on the tenant's current model, released when
// fn returns or panics, and reports false without calling fn when none
// has been loaded yet. It is the lease: a caller cannot leak a handle,
// release it twice or use it after release, because it never holds one
// outside fn.
func (t *Tenant) Do(fn func(*Handle)) bool {
	h := t.Acquire()
	if h == nil {
		return false
	}
	defer h.Release()
	fn(h)
	return true
}

// Acquire leases the tenant's current model, or nil when none has been
// loaded yet. The lock-free load→ref→recheck loop closes the race with
// a concurrent swap: if the pointer moved while we were acquiring, the
// reference is handed back (possibly completing the old handle's
// retirement) and the new pointer is taken instead.
//
// Acquire and Release are Do's two halves and are exported only for
// bench/, which times the bare pair (registry.acquire_ns); everything
// else in the module goes through Do, and catslint's handle-lease rule
// fails the tree on a call to either outside this package.
func (t *Tenant) Acquire() *Handle {
	for {
		h := t.cur.Load()
		if h == nil {
			return nil
		}
		h.refs.Add(1)
		if t.cur.Load() == h {
			// Still published, so not yet retired: retire() happens
			// only after a swap removes h from cur.
			return h
		}
		h.Release()
	}
}

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

// ensureTenant returns the named tenant, creating the slot on first
// load.
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
		r.ensureTenant(tenant).m.reloadError.Inc()
		return Info{}, fmt.Errorf("registry: load %s: %w", tenant, err)
	}
	return r.Install(ctx, tenant, version, det, analyzer)
}

// Install validates an already-materialized model against the tenant's
// golden probe set and atomically publishes it — the one publish tail:
// Load and LoadFile end here, and in-process construction (a freshly
// trained detector, a trainer promotion) starts here.
func (r *Registry) Install(ctx context.Context, tenant, version string, det *core.Detector, analyzer *core.Analyzer) (Info, error) {
	t := r.ensureTenant(tenant)
	det.SetMetricsTenant(tenant)
	if err := r.validate(ctx, t, det); err != nil {
		t.m.reloadRejected.Inc()
		return Info{}, fmt.Errorf("registry: install %s (version %s): %w", tenant, version, err)
	}
	return t.publish(det, analyzer, version), nil
}

// LoadFile is Load from a snapshot file; once the model is live the
// tenant remembers path as its Reload source. The version is derived
// from the file's base name plus a content hash.
func (r *Registry) LoadFile(ctx context.Context, tenant, path string) (Info, error) {
	t := r.ensureTenant(tenant)
	f, err := os.Open(path)
	if err != nil {
		t.m.reloadError.Inc()
		return Info{}, fmt.Errorf("registry: load %s: %w", tenant, err)
	}
	hash := fnv.New32a()
	tee := io.TeeReader(f, hash)
	snap, err := core.ReadSnapshot(tee)
	if err == nil {
		// ReadSnapshot buffers and may stop short of EOF (a columnar
		// container ends at its last block); drain the tee so the
		// version hash always covers the whole file.
		_, err = io.Copy(io.Discard, tee)
	}
	f.Close()
	if err != nil {
		t.m.reloadError.Inc()
		return Info{}, fmt.Errorf("registry: load %s from %s: %w", tenant, path, err)
	}
	info, err := r.Load(ctx, tenant, fmt.Sprintf("%s#%08x", filepath.Base(path), hash.Sum32()), snap)
	if err != nil {
		return Info{}, err
	}
	t.setSource(path)
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

// validate scores the tenant's golden probe set on the candidate
// detector: any scoring error or more than MaxMismatches missed
// WantFraud expectations rejects the candidate.
func (r *Registry) validate(ctx context.Context, t *Tenant, det *core.Detector) error {
	ps := t.probeSet()
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
// generation assignment and the pointer CAS happen under reloadMu, so
// publication order equals generation order; the old handle is retired
// after the swap and closes once its last in-flight holder releases.
func (t *Tenant) publish(det *core.Detector, analyzer *core.Analyzer, version string) Info {
	t.reloadMu.Lock()
	gen := t.gen.Add(1)
	h := &Handle{Model: Model{Detector: det, Analyzer: analyzer, Version: version, Generation: gen}}
	if bt := t.reg.opts.Batching; bt != nil {
		o := *bt
		o.Tenant = t.name
		h.disp = dispatch.New(det, o)
	}
	// refs counts in-flight holders; being published is what keeps the
	// fresh handle alive until retire().
	old := t.cur.Load()
	if !t.cur.CompareAndSwap(old, h) {
		// Unreachable: swaps are serialized by reloadMu, so cur cannot
		// move between the load and the CAS.
		panic("registry: concurrent publish raced the CAS")
	}
	t.m.modelVersion.Set(int64(gen))
	t.m.reloadOK.Inc()
	t.reloadMu.Unlock()
	if old != nil {
		old.retire()
	}
	return Info{Tenant: t.name, Version: version, Generation: gen, Source: t.Source()}
}

// Close retires every tenant's live handle: their dispatchers drain
// once in-flight holders release, and subsequent Acquires return nil.
func (r *Registry) Close() {
	r.mu.RLock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.RUnlock()
	for _, t := range tenants {
		t.reloadMu.Lock()
		old := t.cur.Swap(nil)
		t.reloadMu.Unlock()
		if old != nil {
			old.retire()
		}
	}
}
