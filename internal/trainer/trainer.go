// Package trainer closes the drift loop: a background champion/
// challenger cycle that turns the service's delayed-label feedback
// stream into periodically refreshed models (ROADMAP item 2, DESIGN.md
// §15). Each tenant accumulates labeled outcomes in a bounded sliding
// window; every retrain interval the trainer fits a challenger GBT on
// the window, scores challenger and champion on a held-out split, and
// promotes the challenger only when it wins the gate — through
// registry.Install's existing probe-validated CAS publish, so
// generation ordering, golden-probe vetoes, and zero-downtime swaps
// all come for free. Losing challengers are recorded, and cooldown +
// minimum-sample guards keep a noisy label stream from thrashing the
// live model.
//
// The package is deterministic by construction (catslint enforces it):
// time comes only through the injected Clock, randomness only from
// seeded sources keyed on the feedback-window content hash. The same
// window therefore always yields the same split, the same challenger,
// and the same gate verdict — the property the promotion-gate test bed
// pins.
package trainer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ecom"
	"repro/internal/ml/eval"
	"repro/internal/registry"
)

// Outcome classifies one retrain cycle's result.
type Outcome string

const (
	// OutcomePromoted: the challenger won the gate and was published.
	OutcomePromoted Outcome = "promoted"
	// OutcomeLost: the challenger was evaluated but did not beat the
	// champion by more than the configured margin.
	OutcomeLost Outcome = "lost"
	// OutcomeCooldown: skipped — a promotion happened too recently.
	OutcomeCooldown Outcome = "cooldown"
	// OutcomeMinSamples: the feedback window is below the retrain floor.
	OutcomeMinSamples Outcome = "min_samples"
	// OutcomeClassSkew: the window lacks enough examples of one class
	// to form a stratified train/holdout split.
	OutcomeClassSkew Outcome = "class_skew"
	// OutcomeProbeRejected: the challenger won the holdout gate but the
	// registry's golden probe set vetoed publication.
	OutcomeProbeRejected Outcome = "probe_rejected"
	// OutcomeNoModel: the tenant has no live champion to challenge.
	OutcomeNoModel Outcome = "no_model"
	// OutcomeError: training or publication failed.
	OutcomeError Outcome = "error"
)

// Errors the service layer maps to client-visible statuses.
var (
	ErrUnknownTenant   = errors.New("trainer: unknown tenant")
	ErrClosed          = errors.New("trainer: closed")
	ErrInvalidFeedback = errors.New("trainer: invalid feedback")
)

// Config parameterizes the champion/challenger loop.
type Config struct {
	// Interval is the background retrain cadence; <= 0 means 5m.
	Interval time.Duration
	// Window bounds the per-tenant feedback store; <= 0 means 2048.
	Window int
	// MinSamples is the smallest window that triggers a retrain;
	// <= 0 means 100.
	MinSamples int
	// MinClassSamples is the per-class floor for a stratified split;
	// <= 0 means 4 (so both split sides see both classes).
	MinClassSamples int
	// MinF1Gain is the gate margin: promote iff challenger F1 exceeds
	// champion F1 by strictly more than this. The zero default means an
	// exact tie never promotes; negative values force promotion (used
	// by smoke tests to exercise the swap path).
	MinF1Gain float64
	// MinPrecision / MinRecall, when > 0, are absolute holdout floors a
	// winning challenger must also clear.
	MinPrecision float64
	MinRecall    float64
	// Cooldown is the minimum time between promotions per tenant;
	// 0 disables the guard.
	Cooldown time.Duration
	// Seed offsets the split RNG (combined with the window hash).
	Seed int64
	// History bounds the retained per-tenant decision log; <= 0 means 16.
	History int
	// OnCycle, when non-nil, observes every completed cycle decision
	// (logging in catsserve, assertions in tests). Called synchronously
	// from the cycle goroutine.
	OnCycle func(Decision)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Minute
	}
	if c.Window <= 0 {
		c.Window = 2048
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 100
	}
	if c.MinClassSamples <= 0 {
		c.MinClassSamples = 4
	}
	if c.History <= 0 {
		c.History = 16
	}
	return c
}

// Decision records one retrain cycle's verdict — the unit the
// /admin/trainer endpoint exposes and the promotion-gate tests pin.
type Decision struct {
	Tenant     string  `json:"tenant"`
	Cycle      uint64  `json:"cycle"`
	Outcome    Outcome `json:"outcome"`
	Reason     string  `json:"reason,omitempty"`
	WindowSize int     `json:"window_size"`
	// WindowHash fingerprints the evaluated window; it seeds the split
	// and names the challenger, so equal hashes mean equal verdicts.
	WindowHash        string  `json:"window_hash,omitempty"`
	ChampionVersion   string  `json:"champion_version,omitempty"`
	ChampionGen       uint64  `json:"champion_generation,omitempty"`
	ChallengerVersion string  `json:"challenger_version,omitempty"`
	ChampionP         float64 `json:"champion_precision,omitempty"`
	ChampionR         float64 `json:"champion_recall,omitempty"`
	ChampionF1        float64 `json:"champion_f1,omitempty"`
	ChallengerP       float64 `json:"challenger_precision,omitempty"`
	ChallengerR       float64 `json:"challenger_recall,omitempty"`
	ChallengerF1      float64 `json:"challenger_f1,omitempty"`
	F1Delta           float64 `json:"f1_delta,omitempty"`
	PromotedGen       uint64  `json:"promoted_generation,omitempty"`
	TrainSeconds      float64 `json:"train_seconds,omitempty"`
}

// TenantStatus summarizes one tenant's loop state for /admin/trainer.
type TenantStatus struct {
	Tenant      string     `json:"tenant"`
	WindowSize  int        `json:"window_size"`
	WindowBytes int64      `json:"window_bytes"`
	WindowSeen  uint64     `json:"window_seen"`
	Cycles      uint64     `json:"cycles"`
	Promotions  uint64     `json:"promotions"`
	LastOutcome Outcome    `json:"last_outcome,omitempty"`
	InCooldown  bool       `json:"in_cooldown"`
	PromotedGen uint64     `json:"promoted_generation,omitempty"`
	Recent      []Decision `json:"recent,omitempty"`
}

// Trainer runs the per-tenant champion/challenger loop against a
// registry. Safe for concurrent use.
type Trainer struct {
	reg   *registry.Registry
	clock Clock
	cfg   Config

	mu      sync.Mutex
	tenants map[string]*tenantState

	startOnce sync.Once
	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

type tenantState struct {
	name string
	m    *tenantTrainerMetrics

	// cycleMu serializes retrain cycles for the tenant; mu guards the
	// window and counters and is never held across training, so Feed
	// keeps accepting labels while a challenger fits.
	cycleMu sync.Mutex

	mu          sync.Mutex
	win         *window
	cycles      uint64
	promotions  uint64
	lastOutcome Outcome
	promotedAt  time.Time
	hasPromoted bool
	promotedGen uint64
	recent      []Decision
}

// New returns a trainer over reg driven by clock. Start launches the
// background loop; RunCycle/RunAll drive it manually (tests, the
// /admin/retrain endpoint, the drift experiment).
func New(reg *registry.Registry, clock Clock, cfg Config) *Trainer {
	return &Trainer{
		reg:     reg,
		clock:   clock,
		cfg:     cfg.withDefaults(),
		tenants: map[string]*tenantState{},
		closed:  make(chan struct{}),
	}
}

// Config returns the trainer's resolved configuration.
func (t *Trainer) Config() Config { return t.cfg }

func (t *Trainer) state(tenant string) *tenantState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.tenants[tenant]; ok {
		return st
	}
	st := &tenantState{
		name: tenant,
		m:    metricsByTenant.For(tenant),
		win:  newWindow(t.cfg.Window),
	}
	t.tenants[tenant] = st
	return st
}

// Feed appends labeled outcomes to the tenant's sliding window. The
// tenant must already exist in the registry (feedback for a tenant that
// was never loaded is a caller error, not a new slot). The window keeps
// copies (record) and nothing of fbs, and the training label is the
// Fraud bit alone — whatever label the item carried on the wire is
// dropped, so a hostile feedback body cannot poison the window with
// contradictory labels. Returns the number accepted; on error nothing
// was appended.
func (t *Trainer) Feed(tenant string, fbs []Feedback) (int, error) {
	select {
	case <-t.closed:
		return 0, ErrClosed
	default:
	}
	if t.reg.Tenant(tenant) == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	// The copies are made before st.mu is taken: Status, /admin/trainer
	// and a cycle's snapshot wait on it.
	recs := make([]record, len(fbs))
	for i := range fbs {
		var err error
		if recs[i], err = newRecord(&fbs[i]); err != nil {
			return 0, fmt.Errorf("%w: entry %d: %v", ErrInvalidFeedback, i, err)
		}
	}
	st := t.state(tenant)
	st.mu.Lock()
	for i := range recs {
		st.win.add(recs[i])
	}
	st.m.windowSize.Set(int64(st.win.len()))
	st.m.windowBytes.Set(st.win.bytes)
	st.mu.Unlock()
	return len(fbs), nil
}

// RunAll runs one retrain cycle for every registry tenant, in sorted
// name order, and returns the decisions.
func (t *Trainer) RunAll(ctx context.Context) []Decision {
	names := t.reg.Names()
	out := make([]Decision, 0, len(names))
	for _, name := range names {
		d, err := t.RunCycle(ctx, name)
		if err != nil {
			continue // unknown tenant raced a close; nothing to record
		}
		out = append(out, d)
	}
	return out
}

// RunCycle executes one champion/challenger cycle for the tenant:
// guards (cooldown, window floor, class balance), deterministic
// stratified split seeded by the window hash, challenger training,
// holdout evaluation of both models, and — only on a gate win —
// publication through the registry's probe-validated CAS swap.
func (t *Trainer) RunCycle(ctx context.Context, tenant string) (Decision, error) {
	ten := t.reg.Tenant(tenant)
	if ten == nil {
		return Decision{}, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	st := t.state(tenant)
	st.cycleMu.Lock()
	defer st.cycleMu.Unlock()

	now := t.clock.Now()
	st.mu.Lock()
	st.cycles++
	d := Decision{Tenant: tenant, Cycle: st.cycles}
	recs := st.win.snapshot()
	inCooldown := t.cfg.Cooldown > 0 && st.hasPromoted &&
		now.Sub(st.promotedAt) < t.cfg.Cooldown
	st.mu.Unlock()
	d.WindowSize = len(recs)

	switch {
	case inCooldown:
		d.Outcome = OutcomeCooldown
		d.Reason = "inside post-promotion cooldown"
		return t.finish(st, d), nil
	case len(recs) < t.cfg.MinSamples:
		d.Outcome = OutcomeMinSamples
		d.Reason = fmt.Sprintf("window %d below retrain floor %d", len(recs), t.cfg.MinSamples)
		return t.finish(st, d), nil
	}
	pos := 0
	for i := range recs {
		if recs[i].fraud {
			pos++
		}
	}
	if pos < t.cfg.MinClassSamples || len(recs)-pos < t.cfg.MinClassSamples {
		d.Outcome = OutcomeClassSkew
		d.Reason = fmt.Sprintf("window has %d fraud / %d normal, need %d of each",
			pos, len(recs)-pos, t.cfg.MinClassSamples)
		return t.finish(st, d), nil
	}

	if !ten.Do(func(h *registry.Handle) { t.challenge(ctx, st, &d, recs, now, h) }) {
		d.Outcome = OutcomeNoModel
		d.Reason = "tenant has no live champion"
	}
	return t.finish(st, d), nil
}

// challenge is the cycle past its guards, under a lease on the champion
// h: train a challenger on the window's split, score both on the
// holdout, publish on a gate win. It fills in d, Outcome included.
func (t *Trainer) challenge(ctx context.Context, st *tenantState, d *Decision, recs []record, now time.Time, h *registry.Handle) {
	d.ChampionVersion = h.Version
	d.ChampionGen = h.Generation
	if h.Analyzer == nil {
		d.Outcome = OutcomeError
		d.Reason = "champion has no analyzer to train a challenger with"
		return
	}

	hash := windowHash(recs)
	d.WindowHash = fmt.Sprintf("%016x", hash)
	rng := rand.New(rand.NewSource(t.cfg.Seed ^ int64(hash)))
	train, hold := splitFeedback(recs, rng)

	challenger := core.NewDetector(h.Analyzer, h.Detector.Config())
	d.ChallengerVersion = fmt.Sprintf("retrain-c%d#%016x", d.Cycle, hash)
	t0 := t.clock.Now()
	if err := challenger.Train(&ecom.Dataset{Items: train}, 0); err != nil {
		d.Outcome = OutcomeError
		d.Reason = "train challenger: " + err.Error()
		return
	}
	d.TrainSeconds = t.clock.Now().Sub(t0).Seconds()
	st.m.trainSeconds.Observe(d.TrainSeconds)

	champM, err := holdoutMetrics(ctx, h.Detector, hold)
	if err != nil {
		d.Outcome = OutcomeError
		d.Reason = "score champion: " + err.Error()
		return
	}
	chalM, err := holdoutMetrics(ctx, challenger, hold)
	if err != nil {
		d.Outcome = OutcomeError
		d.Reason = "score challenger: " + err.Error()
		return
	}
	d.ChampionP, d.ChampionR, d.ChampionF1 = champM.Precision, champM.Recall, champM.F1
	d.ChallengerP, d.ChallengerR, d.ChallengerF1 = chalM.Precision, chalM.Recall, chalM.F1
	d.F1Delta = chalM.F1 - champM.F1
	st.m.gateDelta.Observe(d.F1Delta)

	if win, reason := gateVerdict(champM, chalM, t.cfg); !win {
		d.Outcome = OutcomeLost
		d.Reason = reason
		return
	}

	info, err := t.reg.Install(ctx, d.Tenant, d.ChallengerVersion, challenger, h.Analyzer)
	if err != nil {
		if errors.Is(err, registry.ErrProbeRejected) {
			d.Outcome = OutcomeProbeRejected
		} else {
			d.Outcome = OutcomeError
		}
		d.Reason = err.Error()
		return
	}
	d.Outcome = OutcomePromoted
	d.PromotedGen = info.Generation
	st.mu.Lock()
	st.promotions++
	st.promotedAt = now
	st.hasPromoted = true
	st.promotedGen = info.Generation
	st.mu.Unlock()
	st.m.promotedGen.Set(int64(info.Generation))
}

// finish records the decision (bounded history, metrics, observer).
func (t *Trainer) finish(st *tenantState, d Decision) Decision {
	st.mu.Lock()
	st.lastOutcome = d.Outcome
	st.recent = append(st.recent, d)
	if len(st.recent) > t.cfg.History {
		st.recent = st.recent[len(st.recent)-t.cfg.History:]
	}
	st.mu.Unlock()
	st.m.countOutcome(d.Outcome)
	if t.cfg.OnCycle != nil {
		t.cfg.OnCycle(d)
	}
	return d
}

// Status reports every tracked tenant's loop state, sorted by name.
// Recent decisions are newest-last.
func (t *Trainer) Status() []TenantStatus {
	t.mu.Lock()
	states := make([]*tenantState, 0, len(t.tenants))
	for _, st := range t.tenants {
		states = append(states, st)
	}
	t.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	now := t.clock.Now()
	out := make([]TenantStatus, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		out = append(out, TenantStatus{
			Tenant:      st.name,
			WindowSize:  st.win.len(),
			WindowBytes: st.win.bytes,
			WindowSeen:  st.win.seen,
			Cycles:      st.cycles,
			Promotions:  st.promotions,
			LastOutcome: st.lastOutcome,
			InCooldown: t.cfg.Cooldown > 0 && st.hasPromoted &&
				now.Sub(st.promotedAt) < t.cfg.Cooldown,
			PromotedGen: st.promotedGen,
			Recent:      append([]Decision(nil), st.recent...),
		})
		st.mu.Unlock()
	}
	return out
}

// Start launches the background retrain loop: one RunAll per Interval
// tick until Close. Idempotent. The ticker is registered before Start
// returns, so a fake clock advanced immediately afterwards is
// guaranteed to fire it.
func (t *Trainer) Start() {
	t.startOnce.Do(func() {
		tk := t.clock.NewTicker(t.cfg.Interval)
		t.wg.Add(1)
		go t.run(tk)
	})
}

func (t *Trainer) run(tk Ticker) {
	defer t.wg.Done()
	defer tk.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-tk.C():
			t.RunAll(context.Background())
		}
	}
}

// Close stops the background loop and waits for any in-flight cycle to
// drain. Idempotent; Feed returns ErrClosed afterwards.
func (t *Trainer) Close() {
	t.closeOnce.Do(func() { close(t.closed) })
	t.wg.Wait()
}

// gateVerdict is the promotion gate as a pure function of the two
// holdout evaluations: the challenger wins iff its F1 exceeds the
// champion's by strictly more than MinF1Gain and it clears the
// absolute precision/recall floors. Strict inequality means a
// challenger identical to its champion never promotes — the
// no-thrash property the gate tests pin.
func gateVerdict(champ, chal eval.Metrics, cfg Config) (win bool, reason string) {
	delta := chal.F1 - champ.F1
	switch {
	case !(delta > cfg.MinF1Gain):
		return false, fmt.Sprintf("F1 delta %+.4f does not exceed margin %+.4f", delta, cfg.MinF1Gain)
	case cfg.MinPrecision > 0 && chal.Precision < cfg.MinPrecision:
		return false, fmt.Sprintf("challenger precision %.4f below floor %.4f", chal.Precision, cfg.MinPrecision)
	case cfg.MinRecall > 0 && chal.Recall < cfg.MinRecall:
		return false, fmt.Sprintf("challenger recall %.4f below floor %.4f", chal.Recall, cfg.MinRecall)
	}
	return true, ""
}

// holdout is the fraction of the window held out for the gate.
const holdout = 0.3

// splitFeedback partitions a window snapshot into stratified train and
// holdout sets: each class is shuffled with the seeded rng and cut at
// the holdout fraction, so both sides see both classes and the same
// window always splits identically.
func splitFeedback(recs []record, rng *rand.Rand) (train, hold []ecom.Item) {
	var posIdx, negIdx []int
	for i := range recs {
		if recs[i].fraud {
			posIdx = append(posIdx, i)
		} else {
			negIdx = append(negIdx, i)
		}
	}
	for _, idx := range [][]int{posIdx, negIdx} {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nHold := int(math.Round(float64(len(idx)) * holdout))
		if nHold < 1 {
			nHold = 1
		}
		if nHold > len(idx)-1 {
			nHold = len(idx) - 1
		}
		for k, i := range idx {
			if k < nHold {
				hold = append(hold, recs[i].item())
			} else {
				train = append(train, recs[i].item())
			}
		}
	}
	return train, hold
}

// holdoutMetrics scores det over the holdout set and folds the verdicts
// into P/R/F1 under the experiments' convention (core.Evaluate).
func holdoutMetrics(ctx context.Context, det *core.Detector, hold []ecom.Item) (eval.Metrics, error) {
	dets, err := det.DetectContext(ctx, hold, 0)
	if err != nil {
		return eval.Metrics{}, err
	}
	return core.Evaluate(hold, dets), nil
}
