package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	cats "repro"
	"repro/internal/dataset"
	"repro/internal/ecom"
	"repro/internal/synth"
	"repro/internal/textgen"
)

// fixture is the trained pair of tenant models: saved as columnar
// snapshots for the programs, and loaded back from those same files as
// the in-process reference the verdicts are checked against.
type fixture struct {
	modelsDir string
	modelPath map[string]string
	oracle    map[string]*cats.System
	vocab     []string
}

// trainModels trains the two tenant models through the root cats
// package — one shared semantic analyzer, two detectors fitted on
// different labeled sets with different thresholds, so a request routed
// to the wrong tenant fails the oracle — and saves them under
// dir/models.
func trainModels(dir string, sz sizes, seed int64) (*fixture, error) {
	bank := textgen.NewBank()
	vocab := bank.Vocabulary()
	polarTexts, polarLabels := synth.PolarCorpus(sz.w2vCorpus, 17+seed)
	labeled := func(offset int64) *ecom.Dataset {
		cfg := synth.D0Config().Scale(sz.d0Scale)
		cfg.Seed += seed*7919 + offset
		return &synth.Generate(cfg).Dataset
	}
	first, err := cats.Train(context.Background(), cats.TrainingInput{
		Corpus:      synth.TrainingCorpus(sz.w2vCorpus, 18+seed),
		PolarTexts:  polarTexts,
		PolarLabels: polarLabels,
		Vocabulary:  vocab,
		Labeled:     labeled(0),
	}, cats.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", tenantDefault, err)
	}
	strict := cats.DefaultConfig()
	strict.Detector.Threshold = 0.95
	second, err := cats.NewFromAnalyzer(first.Analyzer(), labeled(1), strict)
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", tenantOther, err)
	}

	fx := &fixture{
		modelsDir: filepath.Join(dir, "models"),
		modelPath: map[string]string{},
		oracle:    map[string]*cats.System{},
		vocab:     vocab,
	}
	if err := os.MkdirAll(fx.modelsDir, 0o755); err != nil {
		return nil, err
	}
	for tenant, sys := range map[string]*cats.System{tenantDefault: first, tenantOther: second} {
		path := filepath.Join(fx.modelsDir, tenant+".catc")
		if err := sys.SaveFileFormat(path, vocab, cats.FormatColumnar); err != nil {
			return nil, err
		}
		loaded, err := cats.LoadFile(path)
		if err != nil {
			return nil, err
		}
		fx.modelPath[tenant] = path
		fx.oracle[tenant] = loaded
	}
	return fx, nil
}

// opKind is what one scheduled operation does.
type opKind uint8

const (
	opDetect opKind = iota
	opExplain
	opFeedback
	opReload
	opRetrain
)

func (k opKind) String() string {
	return [...]string{"detect", "explain", "feedback", "reload", "retrain"}[k]
}

// op is one request the generator will send: where, what, and when it
// is due (offset from its phase's start; closed-loop phases ignore it).
type op struct {
	kind   opKind
	tenant string  // model the response must match
	path   string  // URL path
	body   []byte  // request body
	items  []int32 // indexes into the workload's item table, in body order
	due    time.Duration
	// comments is how many comments the carried items hold; set by
	// buildInputs.
	comments int
}

// serveInputs is everything a serve run sends, generated from the seed
// before any timing starts.
type serveInputs struct {
	items []ecom.Item // every item any request carries
	warm  []op        // closed-loop warm-up
	steps [][]op      // one open-loop schedule per rate step
	bulk  []op        // closed-loop backlog
	// stepDur is each step's scheduled length.
	stepDur []time.Duration
}

// schedule turns the run length into phase lengths. Everything is a
// fraction of seconds so one flag scales the whole run: the reference
// step gets a third, each other step a twentieth, the closed-loop
// backlog (sized in requests, not time) about a fifth.
type schedule struct {
	warmReqs int
	stepDur  []time.Duration
	bulkReqs int
}

func planServe(spec serveSpec, seconds float64) schedule {
	scale := seconds / defaultSeconds
	sc := schedule{
		warmReqs: max(4, int(0.5*scale*float64(spec.stepsRPS[spec.reference]))),
		bulkReqs: max(8, int(scale*float64(spec.bulkReqs))),
	}
	for i := range spec.stepsRPS {
		d := seconds / 20
		if i == spec.reference {
			d = seconds / 3
		}
		sc.stepDur = append(sc.stepDur, time.Duration(d*float64(time.Second)))
	}
	return sc
}

// stepOps is how many requests a step schedules.
func stepOps(rps int, d time.Duration) int {
	return max(1, int(float64(rps)*d.Seconds()))
}

const (
	coldItemsPerReq = 16
	hotItemsPerReq  = 8
	hotPoolItems    = 32
	feedbackEntries = 8
)

// itemConfig shapes the never-repeated items of serve_cold and the
// stream corpora alike: about ten comments per item, 2% fraud — the
// paper's D1 proportions at a size a request can carry.
func itemConfig(n int, seed int64) synth.Config {
	fraud := max(1, n/50)
	return synth.Config{
		Name: "bench", Platform: "taobao", Seed: seed,
		FraudEvidence: fraud, Normal: max(1, n-fraud),
		FraudCommentsMin: 8, FraudCommentsMax: 20,
		NormalCommentsMin: 3, NormalCommentsMax: 18,
	}
}

var errEnough = errors.New("enough items")

// generateItems draws exactly n items from synth.Stream.
func generateItems(cfg synth.Config, n int) ([]ecom.Item, error) {
	items := make([]ecom.Item, 0, n)
	_, err := synth.Stream(cfg, func(it *ecom.Item) error {
		items = append(items, *it)
		if len(items) == n {
			return errEnough
		}
		return nil
	})
	if err != nil && !errors.Is(err, errEnough) {
		return nil, err
	}
	if len(items) < n {
		return nil, fmt.Errorf("bench: generator produced %d of %d items", len(items), n)
	}
	return items, nil
}

// generateShards draws n items and their JSON as two independently
// seeded halves generated side by side, which halves the largest part
// of serve_cold's set-up. The halves use different platform tags, so
// item IDs stay unique across them.
func generateShards(n int, seed int64) ([]ecom.Item, [][]byte, error) {
	const shards = 2
	type part struct {
		items []ecom.Item
		json  [][]byte
		err   error
	}
	parts := make([]part, shards)
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := &parts[k]
			size := n / shards
			if k == shards-1 {
				size = n - k*(n/shards)
			}
			cfg := itemConfig(size, seed+int64(k)*104729)
			cfg.Platform = fmt.Sprintf("taobao%d", k)
			if p.items, p.err = generateItems(cfg, size); p.err == nil {
				p.json, p.err = marshalItems(p.items)
			}
		}(k)
	}
	wg.Wait()
	var items []ecom.Item
	var itemJSON [][]byte
	for _, p := range parts {
		if p.err != nil {
			return nil, nil, p.err
		}
		items = append(items, p.items...)
		itemJSON = append(itemJSON, p.json...)
	}
	return items, itemJSON, nil
}

// detectBody assembles {"items":[...]} from already-marshalled items.
func detectBody(itemJSON [][]byte, idx []int32) []byte {
	var b bytes.Buffer
	b.WriteString(`{"items":[`)
	for i, k := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(itemJSON[k])
	}
	b.WriteString("]}")
	return b.Bytes()
}

func marshalItems(items []ecom.Item) ([][]byte, error) {
	out := make([][]byte, len(items))
	for i := range items {
		b, err := json.Marshal(&items[i])
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func detectPath(tenant string) string { return "/t/" + tenant + "/v1/detect" }

// tenantFor routes the k-th detect request: 3 in every 10 go to the
// second tenant. The mixes are fixed patterns, not coin flips, so every
// seed sends the same number of each kind of request and only the
// items differ.
func tenantFor(k int) string {
	switch k % 10 {
	case 2, 5, 8:
		return tenantOther
	}
	return tenantDefault
}

// buildInputs lays requests made by mk onto the run's phases: the
// warm-up, one open-loop schedule per rate step (request i due at
// i/rate), and the closed-loop backlog. With reloadEvery > 0 a reload of
// the second tenant is due every reloadEvery of each step, starting half
// a period in, and as many are spread over the backlog, where there is
// no clock to hang them on.
func buildInputs(items []ecom.Item, spec serveSpec, seconds float64, reloadEvery time.Duration, mk func(due time.Duration) op) *serveInputs {
	sc := planServe(spec, seconds)
	reload := func(due time.Duration) op {
		return op{kind: opReload, tenant: tenantOther, path: "/admin/reload",
			body: []byte(`{"tenant":"` + tenantOther + `"}`), due: due}
	}
	in := &serveInputs{items: items, stepDur: sc.stepDur}
	for i := 0; i < sc.warmReqs; i++ {
		in.warm = append(in.warm, mk(0))
	}
	for s, rps := range spec.stepsRPS {
		var ops []op
		for i := 0; i < stepOps(rps, sc.stepDur[s]); i++ {
			ops = append(ops, mk(time.Duration(float64(i)/float64(rps)*float64(time.Second))))
		}
		if reloadEvery > 0 {
			for due := reloadEvery / 2; due < sc.stepDur[s]; due += reloadEvery {
				ops = append(ops, reload(due))
			}
			sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
		}
		in.steps = append(in.steps, ops)
	}
	every := max(1, sc.bulkReqs/3)
	for i := 0; i < sc.bulkReqs; i++ {
		if reloadEvery > 0 && i%every == every/2 {
			in.bulk = append(in.bulk, reload(0))
		}
		in.bulk = append(in.bulk, mk(0))
	}
	for _, ops := range append([][]op{in.warm, in.bulk}, in.steps...) {
		for i := range ops {
			for _, k := range ops[i].items {
				ops[i].comments += len(in.items[k].Comments)
			}
		}
	}
	return in
}

// sequentialDetects returns a request maker that walks the items 16 at
// a time, routing 70/30 over the two tenants, and wraps around when the
// items run out (which serve_cold, generating exactly as many as it
// sends, never does).
func sequentialDetects(itemJSON [][]byte) func(due time.Duration) op {
	nReq := len(itemJSON) / coldItemsPerReq
	k := 0
	return func(due time.Duration) op {
		idx := make([]int32, coldItemsPerReq)
		for i := range idx {
			idx[i] = int32((k%nReq)*coldItemsPerReq + i)
		}
		k++
		tenant := tenantFor(k)
		return op{kind: opDetect, tenant: tenant, path: detectPath(tenant), body: detectBody(itemJSON, idx), items: idx, due: due}
	}
}

// coldInputs builds serve_cold: every request carries 16 items no other
// request carries.
func coldInputs(spec serveSpec, seconds float64, seed int64) (*serveInputs, error) {
	sc := planServe(spec, seconds)
	total := sc.warmReqs + sc.bulkReqs
	for i, rps := range spec.stepsRPS {
		total += stepOps(rps, sc.stepDur[i])
	}
	items, itemJSON, err := generateShards(total*coldItemsPerReq, 9000+seed)
	if err != nil {
		return nil, err
	}
	return buildInputs(items, spec, seconds, 0, sequentialDetects(itemJSON)), nil
}

// itemsAsServeInputs wraps already-generated items (a stream corpus's
// head) as detect requests of 16, so the traced pass can drive the
// serving layers with a stream workload's own inputs.
func itemsAsServeInputs(items []ecom.Item, spec serveSpec, seconds float64) (*serveInputs, error) {
	if len(items) < coldItemsPerReq {
		return nil, fmt.Errorf("bench: %d items are too few for one request", len(items))
	}
	itemJSON, err := marshalItems(items)
	if err != nil {
		return nil, err
	}
	return buildInputs(items, spec, seconds, 0, sequentialDetects(itemJSON)), nil
}

// hotInputs builds serve_hot: 8 Zipf(1.2) draws per detect from a fixed
// pool of 32 trending items, an 80/10/10 detect/explain/feedback mix,
// and a reload of the second tenant every sixth of the run (2 s at the
// default length).
func hotInputs(spec serveSpec, seconds float64, seed int64) (*serveInputs, error) {
	cfg := synth.Config{
		Name: "hot", Platform: "taobao", Seed: 9500 + seed,
		FraudEvidence: hotPoolItems / 4, Normal: hotPoolItems - hotPoolItems/4,
		// 40 comments each, not a range: with Zipf draws a handful of
		// items carry most requests, and letting their sizes vary with the
		// seed makes the request size — and every timing — vary with it.
		FraudCommentsMin: 40, FraudCommentsMax: 40,
		NormalCommentsMin: 40, NormalCommentsMax: 40,
	}
	items, err := generateItems(cfg, hotPoolItems)
	if err != nil {
		return nil, err
	}
	// Popularity rank r (the Zipf draw) holds a fraud item when r%4 == 3,
	// whatever order the generator emitted them in: the top ranks carry
	// most of the traffic, and a campaign item's comments are several
	// times longer than an organic one's, so the classes of the top
	// ranks must not depend on the seed.
	var fraud, normal []ecom.Item
	for _, it := range items {
		if it.Label.IsFraud() {
			fraud = append(fraud, it)
		} else {
			normal = append(normal, it)
		}
	}
	for r := range items {
		if r%4 == 3 {
			items[r], fraud = fraud[0], fraud[1:]
		} else {
			items[r], normal = normal[0], normal[1:]
		}
	}
	itemJSON, err := marshalItems(items)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, hotPoolItems-1)
	draw := func(n int) []int32 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(zipf.Uint64())
		}
		return idx
	}
	// 80% detect, 10% explain, 10% feedback, as a fixed pattern of ten.
	n, detects := 0, 0
	mk := func(due time.Duration) op {
		n++
		switch n % 10 {
		default:
			detects++
			tenant := tenantFor(detects)
			idx := draw(hotItemsPerReq)
			return op{kind: opDetect, tenant: tenant, path: detectPath(tenant), body: detectBody(itemJSON, idx), items: idx, due: due}
		case 3:
			idx := draw(1)
			return op{kind: opExplain, tenant: tenantDefault, path: "/v1/explain", body: explainBody(itemJSON[idx[0]]), items: idx, due: due}
		case 8:
			idx := draw(feedbackEntries)
			return op{kind: opFeedback, tenant: tenantDefault, path: "/v1/feedback", body: feedbackBody(items, itemJSON, idx), items: idx, due: due}
		}
	}
	period := time.Duration(seconds / 6 * float64(time.Second))
	return buildInputs(items, spec, seconds, period, mk), nil
}

func explainBody(itemJSON []byte) []byte {
	return append(append([]byte(`{"item":`), itemJSON...), '}')
}

// feedbackBody assembles {"feedback":[{"item":..,"fraud":..}...]} with
// each entry labelled by the item's ground truth.
func feedbackBody(items []ecom.Item, itemJSON [][]byte, idx []int32) []byte {
	var b bytes.Buffer
	b.WriteString(`{"feedback":[`)
	for i, k := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"item":%s,"fraud":%v}`, itemJSON[k], items[k].Label.IsFraud())
	}
	b.WriteString("]}")
	return b.Bytes()
}

// corpus is one generated stream-workload input: the big file the job
// reads and a 16-item file in the same format for the small-job
// latency.
type corpus struct {
	path, smallPath string
	items, comments int
	format          dataset.Format
}

// writeCorpus streams a synthetic corpus of about the given number of
// comments straight to disk (never materialized) in the chosen format.
// With filterEven, every even-indexed item gets SalesVolume 1, below
// the rule filter's cutoff.
func writeCorpus(dir, name string, comments int, format dataset.Format, filterEven bool, seed int64) (*corpus, error) {
	ext := ".catc"
	if format == dataset.FormatJSONL {
		ext = ".jsonl"
	}
	c := &corpus{
		path:      filepath.Join(dir, name+ext),
		smallPath: filepath.Join(dir, name+"-small"+ext),
		format:    format,
	}
	// itemConfig averages 10.6 comments per item (2% fraud at 14, the
	// rest at 10.5).
	nItems := max(2*coldItemsPerReq, int(float64(comments)/10.6))
	big, err := dataset.CreateFormat(c.path, format)
	if err != nil {
		return nil, err
	}
	small, err := dataset.CreateFormat(c.smallPath, format)
	if err != nil {
		big.Close()
		return nil, err
	}
	i := 0
	_, err = synth.Stream(itemConfig(nItems, 9900+seed), func(it *ecom.Item) error {
		if filterEven && i%2 == 0 {
			it.SalesVolume = 1
		}
		if i < coldItemsPerReq {
			if err := small.Write(it); err != nil {
				return err
			}
		}
		i++
		c.items++
		c.comments += len(it.Comments)
		return big.Write(it)
	})
	if cerr := big.Close(); err == nil {
		err = cerr
	}
	if cerr := small.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write corpus %s: %w", c.path, err)
	}
	return c, nil
}

// readItems loads the first n items of a dataset file (fewer if it is shorter).
func readItems(path string, n int) ([]ecom.Item, error) {
	r, err := dataset.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var items []ecom.Item
	for len(items) < n {
		it, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		items = append(items, *it)
	}
	return items, nil
}
