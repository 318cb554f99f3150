package trainer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecom"
	"repro/internal/ml/eval"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/textgen"
)

// fixture is one self-contained champion/challenger world: a registry
// with a champion trained on the clean distribution, plus a shifted
// feedback universe whose labels the trainer will learn from.
type fixture struct {
	reg      *registry.Registry
	analyzer *core.Analyzer
	clock    *FakeClock
}

const fixtureTenant = "taobao"

// epoch is the fixed fake wall-clock origin every test starts at.
var epoch = time.Unix(1_700_000_000, 0)

func newFixture(t testing.TB) *fixture {
	t.Helper()
	bank := textgen.NewBank()
	texts, labels := synth.PolarCorpus(800, 91)
	analyzer, err := core.OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	champion := core.NewDetector(analyzer, core.DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "trainer-clean", Seed: 92, FraudEvidence: 80, Normal: 120, Shops: 6,
	})
	if err := champion.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{})
	if _, err := reg.Install(context.Background(), fixtureTenant, "seed-v1", champion, analyzer); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return &fixture{reg: reg, analyzer: analyzer, clock: NewFakeClock(epoch)}
}

// shiftedFeedback generates the post-drift labeled stream: the same
// generative universe with half the neutral vocabulary swapped out, the
// regime where the frozen champion's word features go blind.
func shiftedFeedback(seed int64) []Feedback {
	u := synth.Generate(synth.Config{
		Name: "trainer-shifted", Seed: seed,
		FraudEvidence: 70, Normal: 110, Shops: 6, VocabShift: 0.6,
	})
	fbs := make([]Feedback, len(u.Dataset.Items))
	for i, it := range u.Dataset.Items {
		fbs[i] = Feedback{Item: it, Fraud: it.Label.IsFraud()}
	}
	return fbs
}

// TestPromotionGateDecisions pins the loop's exact decision sequence on
// a fixed-seed feedback corpus: empty window → min_samples, one-sided
// labels → class_skew, a full shifted window → promoted, an immediate
// rerun → cooldown, and a post-cooldown rerun on the unchanged window →
// lost (the freshly promoted champion ties the identical challenger,
// and a tie never promotes).
func TestPromotionGateDecisions(t *testing.T) {
	f := newFixture(t)
	// Window 180 = exactly the shifted corpus: feeding it evicts the 50
	// normal-only entries from the class-skew step, so the promotion
	// cycle trains on the pure post-shift distribution.
	tr := New(f.reg, f.clock, Config{
		Window: 180, MinSamples: 40, MinClassSamples: 4, Cooldown: time.Hour, Seed: 1,
	})
	ctx := context.Background()

	d, err := tr.RunCycle(ctx, fixtureTenant)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != OutcomeMinSamples || d.Cycle != 1 {
		t.Fatalf("cycle 1 = %+v, want min_samples", d)
	}

	var normals []Feedback
	for _, fb := range shiftedFeedback(500) {
		if !fb.Fraud {
			normals = append(normals, fb)
		}
	}
	if _, err := tr.Feed(fixtureTenant, normals[:50]); err != nil {
		t.Fatal(err)
	}
	d, err = tr.RunCycle(ctx, fixtureTenant)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != OutcomeClassSkew {
		t.Fatalf("cycle 2 = %+v, want class_skew", d)
	}

	if _, err := tr.Feed(fixtureTenant, shiftedFeedback(501)); err != nil {
		t.Fatal(err)
	}
	d, err = tr.RunCycle(ctx, fixtureTenant)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != OutcomePromoted {
		t.Fatalf("cycle 3 = %+v, want promoted", d)
	}
	if d.ChallengerF1 <= d.ChampionF1 {
		t.Errorf("promotion without an F1 win: challenger %.3f vs champion %.3f",
			d.ChallengerF1, d.ChampionF1)
	}
	if d.PromotedGen != 2 {
		t.Errorf("promoted generation = %d, want 2", d.PromotedGen)
	}
	version, gen, ok := f.reg.Tenant(fixtureTenant).Version()
	if !ok || gen != 2 || version != d.ChallengerVersion {
		t.Errorf("registry live model = %q gen %d, want %q gen 2", version, gen, d.ChallengerVersion)
	}

	d, err = tr.RunCycle(ctx, fixtureTenant)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != OutcomeCooldown {
		t.Fatalf("cycle 4 = %+v, want cooldown", d)
	}

	f.clock.Advance(2 * time.Hour)
	d, err = tr.RunCycle(ctx, fixtureTenant)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != OutcomeLost {
		t.Fatalf("cycle 5 = %+v, want lost (tie never promotes)", d)
	}
	if d.F1Delta > 0 {
		t.Errorf("identical window after promotion gave positive delta %.4f", d.F1Delta)
	}
	if _, gen, _ := f.reg.Tenant(fixtureTenant).Version(); gen != 2 {
		t.Errorf("losing challenger moved the registry to generation %d", gen)
	}
}

// TestDeterminismWitness runs two independent fixtures through the
// identical feed-and-cycle script and requires byte-identical verdicts:
// same window hash, same challenger version, same metrics, same
// outcome. This is the property the whole package is built around —
// promotion decisions are a pure function of the feedback window.
func TestDeterminismWitness(t *testing.T) {
	runOnce := func() []Decision {
		f := newFixture(t)
		tr := New(f.reg, f.clock, Config{MinSamples: 40, Seed: 7})
		ctx := context.Background()
		var out []Decision
		if _, err := tr.Feed(fixtureTenant, shiftedFeedback(501)); err != nil {
			t.Fatal(err)
		}
		d, err := tr.RunCycle(ctx, fixtureTenant)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
		if _, err := tr.Feed(fixtureTenant, shiftedFeedback(502)); err != nil {
			t.Fatal(err)
		}
		d, err = tr.RunCycle(ctx, fixtureTenant)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, d)
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cycle %d diverged between identical runs:\n  run A: %+v\n  run B: %+v", i+1, a[i], b[i])
		}
	}
	if a[0].WindowHash == "" || a[0].ChallengerVersion == "" {
		t.Errorf("evaluated decision missing window hash or version: %+v", a[0])
	}
}

// TestGateProperties property-tests the promotion gate: a challenger
// with exactly the champion's metrics never wins (any non-negative
// margin), and a challenger that clears the margin and floors always
// wins. Randomized metrics are checked against the direct predicate.
func TestGateProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		champ := eval.Metrics{Precision: rng.Float64(), Recall: rng.Float64(), F1: rng.Float64()}
		cfg := Config{MinF1Gain: rng.Float64() * 0.1}
		if rng.Intn(4) == 0 {
			cfg.MinPrecision = rng.Float64()
		}
		if rng.Intn(4) == 0 {
			cfg.MinRecall = rng.Float64()
		}

		// Equal challenger: never promotes.
		if win, _ := gateVerdict(champ, champ, cfg); win {
			t.Fatalf("case %d: identical challenger promoted under cfg %+v", i, cfg)
		}

		// Strictly dominating challenger: always promotes.
		chal := eval.Metrics{
			Precision: maxf(champ.Precision, cfg.MinPrecision) + 0.01,
			Recall:    maxf(champ.Recall, cfg.MinRecall) + 0.01,
			F1:        champ.F1 + cfg.MinF1Gain + 0.01,
		}
		if win, reason := gateVerdict(champ, chal, cfg); !win {
			t.Fatalf("case %d: dominating challenger rejected (%s) under cfg %+v", i, reason, cfg)
		}

		// Random challenger: gate must agree with the direct predicate.
		rchal := eval.Metrics{Precision: rng.Float64(), Recall: rng.Float64(), F1: rng.Float64()}
		want := rchal.F1-champ.F1 > cfg.MinF1Gain &&
			!(cfg.MinPrecision > 0 && rchal.Precision < cfg.MinPrecision) &&
			!(cfg.MinRecall > 0 && rchal.Recall < cfg.MinRecall)
		if win, _ := gateVerdict(champ, rchal, cfg); win != want {
			t.Fatalf("case %d: gate=%v want %v for champ %+v chal %+v cfg %+v", i, win, want, champ, rchal, cfg)
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TestTrainerLoopStartClose drives the background loop purely through
// the fake clock: ticks trigger cycles, Close drains without any
// time.Sleep synchronization, and Feed after Close is refused.
func TestTrainerLoopStartClose(t *testing.T) {
	f := newFixture(t)
	cycles := make(chan Decision, 16)
	tr := New(f.reg, f.clock, Config{
		Interval: time.Minute, MinSamples: 40,
		OnCycle: func(d Decision) { cycles <- d },
	})
	tr.Start()
	tr.Start() // idempotent

	f.clock.Advance(time.Minute)
	d := <-cycles
	if d.Outcome != OutcomeMinSamples {
		t.Fatalf("tick 1 outcome = %s, want min_samples", d.Outcome)
	}
	f.clock.Advance(time.Minute)
	d = <-cycles
	if d.Cycle != 2 {
		t.Fatalf("tick 2 ran cycle %d, want 2", d.Cycle)
	}

	tr.Close()
	tr.Close() // idempotent
	if _, err := tr.Feed(fixtureTenant, shiftedFeedback(501)[:1]); err != ErrClosed {
		t.Fatalf("Feed after Close = %v, want ErrClosed", err)
	}
}

func TestFeedValidation(t *testing.T) {
	f := newFixture(t)
	tr := New(f.reg, f.clock, Config{})

	if _, err := tr.Feed("nope", shiftedFeedback(501)[:1]); err == nil {
		t.Error("Feed accepted an unknown tenant")
	}
	if _, err := tr.RunCycle(context.Background(), "nope"); err == nil {
		t.Error("RunCycle accepted an unknown tenant")
	}
	bad := []Feedback{{Item: ecom.Item{ID: ""}}}
	if _, err := tr.Feed(fixtureTenant, bad); err == nil {
		t.Error("Feed accepted an item without an id")
	}
	// 4,096 comments of 1 MiB (one shared string) are 4 GiB of text, one
	// byte more than the uint32 offsets address; refused before any copy.
	huge := Feedback{Item: ecom.Item{ID: "huge", Comments: make([]ecom.Comment, 4096)}}
	for i, mib := 0, strings.Repeat("x", 1<<20); i < len(huge.Item.Comments); i++ {
		huge.Item.Comments[i].Content = mib
	}
	for _, batch := range [][]Feedback{bad, {shiftedFeedback(501)[0], huge}} {
		if _, err := tr.Feed(fixtureTenant, batch); !errors.Is(err, ErrInvalidFeedback) {
			t.Errorf("Feed = %v, want ErrInvalidFeedback", err)
		}
	}
	if st := tr.Status(); len(st) != 0 && st[0].WindowSeen != 0 {
		t.Errorf("a refused batch left %d entries in the window", st[0].WindowSeen)
	}
	n, err := tr.Feed(fixtureTenant, shiftedFeedback(501)[:5])
	if err != nil || n != 5 {
		t.Errorf("Feed = (%d, %v), want (5, nil)", n, err)
	}
	st := tr.Status()
	if len(st) != 1 || st[0].WindowSize != 5 || st[0].WindowSeen != 5 {
		t.Errorf("Status = %+v, want one tenant with window 5/5", st)
	}
}

// TestWindowEviction pins the sliding-window semantics: a full ring
// evicts oldest-first and snapshots in chronological order — and the
// ring is no larger than what was put in it.
func TestWindowEviction(t *testing.T) {
	w := newWindow(3)
	for i := 0; i < 5; i++ {
		w.add(record{id: fmt.Sprintf("i%d", i)})
	}
	if w.len() != 3 || w.seen != 5 {
		t.Fatalf("len=%d seen=%d, want 3/5", w.len(), w.seen)
	}
	snap := w.snapshot()
	got := []string{snap[0].id, snap[1].id, snap[2].id}
	want := []string{"i2", "i3", "i4"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", got, want)
		}
	}

	// A window far from full costs its entries, not its capacity
	// (-retrain-window 1000000 used to be 168 MB per tenant looked at).
	w = newWindow(1_000_000)
	if cap(w.buf) != 0 {
		t.Errorf("empty window holds %d slots", cap(w.buf))
	}
	for i := 0; i < 100; i++ {
		w.add(record{id: fmt.Sprintf("i%d", i)})
	}
	if w.len() != 100 || cap(w.buf) > 256 {
		t.Errorf("100 entries: len=%d cap=%d, want cap proportional to entries", w.len(), cap(w.buf))
	}
	if snap := w.snapshot(); snap[0].id != "i0" || snap[99].id != "i99" {
		t.Errorf("partial window snapshot = %s..%s, want i0..i99", snap[0].id, snap[99].id)
	}
}

func TestWindowHash(t *testing.T) {
	recs := make([]record, 10)
	for i := range recs {
		recs[i] = record{id: fmt.Sprintf("i%d", i), fraud: i%3 == 0}
	}
	if windowHash(recs) != windowHash(append([]record(nil), recs...)) {
		t.Error("identical windows hash differently")
	}
	flipped := append([]record(nil), recs...)
	flipped[3].fraud = !flipped[3].fraud
	if windowHash(recs) == windowHash(flipped) {
		t.Error("label flip did not change the window hash")
	}
	if windowHash(recs) == windowHash(recs[:9]) {
		t.Error("shorter window hashed identically")
	}
}

// TestWindowBytesExact holds cats_trainer_window_bytes (and Status's
// window_bytes) to the definition: Σ over the entries the window holds
// of len(id) + Σ len(content) + 4·comments — after feeds, after
// wrap-around evictions and after a refused batch.
func TestWindowBytesExact(t *testing.T) {
	f := newFixture(t)
	const capacity = 100
	tr := New(f.reg, f.clock, Config{Window: capacity})
	gauge := metricsByTenant.For(fixtureTenant).windowBytes
	var fed []Feedback
	check := func(when string) {
		t.Helper()
		var want int64
		for _, fb := range fed[max(0, len(fed)-capacity):] {
			want += int64(len(fb.Item.ID) + 4*len(fb.Item.Comments))
			for _, c := range fb.Item.Comments {
				want += int64(len(c.Content))
			}
		}
		if st := tr.Status(); gauge.Value() != want || st[0].WindowBytes != want {
			t.Errorf("%s: gauge %d, status %d, want %d", when, gauge.Value(), st[0].WindowBytes, want)
		}
	}
	feed := func(fbs []Feedback) {
		t.Helper()
		if _, err := tr.Feed(fixtureTenant, fbs); err != nil {
			t.Fatal(err)
		}
		fed = append(fed, fbs...)
	}
	all := shiftedFeedback(501)
	feed(all[:60])
	check("below capacity")
	feed(all[60:130])
	check("after 30 evictions")
	if _, err := tr.Feed(fixtureTenant, append(all[130:140:140], Feedback{})); err == nil {
		t.Fatal("a batch with an id-less entry was accepted")
	}
	check("after a refused batch")
	feed(all[:180])
	check("after a batch larger than the window")
}

// BenchmarkFeed reports what one window entry retains once the fed
// items are garbage — the per-entry cost -retrain-window multiplies.
func BenchmarkFeed(b *testing.B) {
	f := newFixture(b)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var retained, entries uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := New(f.reg, f.clock, Config{})
		before := heap()
		fbs := shiftedFeedback(501)
		b.StartTimer()
		if _, err := tr.Feed(fixtureTenant, fbs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		entries += uint64(len(fbs))
		fbs = nil
		retained += heap() - before
		runtime.KeepAlive(tr)
	}
	b.ReportMetric(float64(retained)/float64(entries), "retained-B/entry")
}

// TestFakeClockTicker pins the fake's tick semantics: deliveries only
// on Advance, multi-period advances coalesce to one pending tick, and
// Stop silences the channel.
func TestFakeClockTicker(t *testing.T) {
	c := NewFakeClock(epoch)
	tk := c.NewTicker(time.Minute)
	select {
	case <-tk.C():
		t.Fatal("tick before any Advance")
	default:
	}
	c.Advance(30 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("tick before the period elapsed")
	default:
	}
	c.Advance(30 * time.Second)
	if tkTime := <-tk.C(); !tkTime.Equal(epoch.Add(time.Minute)) {
		t.Errorf("tick at %v, want %v", tkTime, epoch.Add(time.Minute))
	}
	// Five periods at once: the channel coalesces to one pending tick.
	c.Advance(5 * time.Minute)
	<-tk.C()
	select {
	case <-tk.C():
		t.Error("coalescing failed: second tick pending")
	default:
	}
	tk.Stop()
	c.Advance(time.Hour)
	select {
	case <-tk.C():
		t.Error("tick after Stop")
	default:
	}
	if !c.Now().Equal(epoch.Add(time.Hour + 6*time.Minute)) {
		t.Errorf("Now = %v after advances", c.Now())
	}
}

// TestNoModelAndRunAll: a tenant slot without a published model reports
// no_model, and RunAll covers every tenant in sorted order.
func TestNoModelAndRunAll(t *testing.T) {
	f := newFixture(t)
	f.reg.SetProbes("empty", registry.ProbeSet{})
	tr := New(f.reg, f.clock, Config{MinSamples: 40})
	if _, err := tr.Feed("empty", shiftedFeedback(501)); err != nil {
		t.Fatal(err)
	}
	ds := tr.RunAll(context.Background())
	if len(ds) != 2 {
		t.Fatalf("RunAll returned %d decisions, want 2", len(ds))
	}
	if ds[0].Tenant != "empty" || ds[0].Outcome != OutcomeNoModel {
		t.Errorf("decision 0 = %+v, want empty/no_model", ds[0])
	}
	if ds[1].Tenant != fixtureTenant || ds[1].Outcome != OutcomeMinSamples {
		t.Errorf("decision 1 = %+v, want %s/min_samples", ds[1], fixtureTenant)
	}
}

// TestProbeRejected: a challenger that wins the holdout gate but fails
// the golden probe set is vetoed at publication and the champion stays
// live — the registry's safety net stays in the loop.
func TestProbeRejected(t *testing.T) {
	f := newFixture(t)
	// A probe no real model satisfies: an obviously organic listing the
	// probe set insists must be called fraud.
	wantFraud := true
	f.reg.SetProbes(fixtureTenant, registry.ProbeSet{Probes: []registry.Probe{{
		Item: ecom.Item{
			ID: "probe-impossible", ShopID: "s1", Name: "ordinary kettle",
			PriceCents: 2000, SalesVolume: 500,
		},
		WantFraud: &wantFraud,
	}}})
	// Negative margin forces the gate win; publication must still veto.
	tr := New(f.reg, f.clock, Config{MinSamples: 40, MinF1Gain: -2})
	if _, err := tr.Feed(fixtureTenant, shiftedFeedback(501)); err != nil {
		t.Fatal(err)
	}
	d, err := tr.RunCycle(context.Background(), fixtureTenant)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != OutcomeProbeRejected {
		t.Fatalf("outcome = %+v, want probe_rejected", d)
	}
	if _, gen, _ := f.reg.Tenant(fixtureTenant).Version(); gen != 1 {
		t.Errorf("vetoed challenger still moved the registry to generation %d", gen)
	}
}

// TestChampionWithoutAnalyzer: a tenant whose model was installed with
// no analyzer cannot grow a challenger and reports an error outcome.
func TestChampionWithoutAnalyzer(t *testing.T) {
	f := newFixture(t)
	det := core.NewDetector(f.analyzer, core.DetectorConfig{})
	train := synth.Generate(synth.Config{
		Name: "no-analyzer", Seed: 92, FraudEvidence: 80, Normal: 120, Shops: 6,
	})
	if err := det.Train(&train.Dataset, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.reg.Install(context.Background(), "bare", "v1", det, nil); err != nil {
		t.Fatal(err)
	}
	tr := New(f.reg, f.clock, Config{MinSamples: 40})
	if _, err := tr.Feed("bare", shiftedFeedback(501)); err != nil {
		t.Fatal(err)
	}
	d, err := tr.RunCycle(context.Background(), "bare")
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != OutcomeError {
		t.Fatalf("outcome = %+v, want error", d)
	}
}

// TestStatusHistoryBounded: the per-tenant decision log is capped at
// Config.History, newest retained.
func TestStatusHistoryBounded(t *testing.T) {
	f := newFixture(t)
	tr := New(f.reg, f.clock, Config{MinSamples: 40, History: 2})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := tr.RunCycle(ctx, fixtureTenant); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Status()
	if len(st) != 1 {
		t.Fatalf("Status = %+v, want one tenant", st)
	}
	if st[0].Cycles != 5 || len(st[0].Recent) != 2 {
		t.Fatalf("cycles=%d recent=%d, want 5 cycles with 2 retained", st[0].Cycles, len(st[0].Recent))
	}
	if st[0].Recent[1].Cycle != 5 || st[0].Recent[0].Cycle != 4 {
		t.Errorf("retained cycles %d,%d, want 4,5", st[0].Recent[0].Cycle, st[0].Recent[1].Cycle)
	}
}
