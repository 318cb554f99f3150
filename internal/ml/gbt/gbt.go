// Package gbt implements gradient boosted decision trees with the
// regularized second-order objective of XGBoost (Chen & Guestrin, KDD
// 2016) — the classifier CATS selects for its detector after the
// Table III comparison.
//
// Training uses logistic loss with first/second-order gradients, exact
// greedy split finding, an L2-regularized gain
//
//	gain = ½·(G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)) − γ
//
// shrinkage (learning rate), and optional row/column subsampling. Leaf
// weights are −G/(H+λ). Feature importance is the number of times each
// feature is chosen for a split, the measure behind the paper's Fig 7.
//
// As in Chen & Guestrin's §4.1, Fit sorts each feature's column once, by
// value and then row index, and every node sweeps its rows in that
// order; no node sorts. Rows of tied value are therefore summed in row
// order, as a stable sort of each node's rows would sum them, and G and
// H are summed in row order too: the model is a function of the data
// and the Config alone, not of how a sort happens to order ties.
package gbt

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/ml"
)

// Config holds the boosting hyperparameters. The zero value is usable:
// every field has a sensible default applied at Fit time.
type Config struct {
	// Rounds is the number of boosting rounds (trees); <= 0 means 100.
	Rounds int
	// MaxDepth bounds each tree's depth; <= 0 means 4.
	MaxDepth int
	// LearningRate is the shrinkage η applied to each tree's leaf
	// weights; <= 0 means 0.2.
	LearningRate float64
	// Lambda is the L2 regularization on leaf weights; < 0 means 0,
	// 0 value means 1 (the XGBoost default).
	Lambda float64
	// Gamma is the minimum loss reduction required to make a split.
	Gamma float64
	// MinChildWeight is the minimum sum of hessians in a child;
	// <= 0 means 1.
	MinChildWeight float64
	// Subsample is the row sampling ratio per round in (0,1];
	// <= 0 or > 1 means 1.
	Subsample float64
	// ColSample is the column sampling ratio per node in (0,1]
	// (XGBoost's colsample_bynode); <= 0 or > 1 means 1. Per-node
	// sampling spreads split mass across correlated features instead
	// of letting one dominant feature absorb every split.
	ColSample float64
	// Seed seeds the subsampling PRNG.
	Seed int64
	// Workers bounds the parallel split search across features inside
	// each node; <= 1 means serial. Results are identical either way:
	// per-feature candidates are reduced deterministically (highest
	// gain, ties to the lowest feature index).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.2
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	} else if c.Lambda < 0 {
		c.Lambda = 0
	}
	if c.MinChildWeight <= 0 {
		c.MinChildWeight = 1
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	if c.ColSample <= 0 || c.ColSample > 1 {
		c.ColSample = 1
	}
	return c
}

// Classifier is a fitted boosted-tree model.
type Classifier struct {
	cfg        Config
	baseScore  float64 // log-odds prior
	splitCount []int   // per-feature split counts (importance)
	names      []string

	// flat holds every tree (see flat.go): Fit and FromSnapshot append
	// into it, prediction and Snapshot read it. Non-nil roots mark a
	// fitted model.
	flat flatEnsemble
}

// New returns an untrained model with the given configuration.
func New(cfg Config) *Classifier { return &Classifier{cfg: cfg.withDefaults()} }

// Fit trains the boosted ensemble on ds.
func (c *Classifier) Fit(ds *ml.Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	n := ds.Len()
	nf := ds.NumFeatures()
	c.names = ds.FeatureNames
	c.splitCount = make([]int, nf)
	c.flat = flatEnsemble{roots: make([]int32, 0, c.cfg.Rounds)}

	// Base score: prior log-odds of the positive class, clamped away
	// from infinities for single-class training sets.
	p := ds.PositiveRate()
	p = math.Min(math.Max(p, 1e-6), 1-1e-6)
	c.baseScore = math.Log(p / (1 - p))

	g := newGrower(c, ds)
	margin := make([]float64, n)
	for i := range margin {
		margin[i] = c.baseScore
	}
	for round := 0; round < c.cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			pi := sigmoid(margin[i])
			g.grad[i] = pi - float64(ds.Y[i])
			g.hess[i] = pi * (1 - pi)
		}
		m := g.sampleRows()
		root := g.buildNode(0, m, 0)
		c.flat.roots = append(c.flat.roots, root)
		for i := 0; i < n; i++ {
			margin[i] += c.cfg.LearningRate * c.flat.leaf(root, ds.X[i])
		}
	}
	return nil
}

// grower holds one Fit's split-search state. Every feature's rows are
// sorted once, by (value, row index), into sorted. Each round copies
// the round's rows of every sorted column into cols, plus one more
// column holding them in row order; a node owns the segment [lo, hi)
// of all nf+1 columns, and a split stably partitions each segment into
// its left rows, then its right rows. The order of every column within
// a node is therefore what a stable sort of the node's rows would give,
// and the row-order column keeps G and H summed in row order.
type grower struct {
	c          *Classifier
	n, nf      int
	x          []float64 // column-major values: feature f of row r at x[f*n+r]
	sorted     []int32   // feature f's rows by (value, row) at sorted[f*n:(f+1)*n]
	cols       []int32   // the round's columns: feature f at cols[f*n:], row order at cols[nf*n:]
	goLeft     []uint8   // per row: 1 if the split being applied sends it left, else 0
	tmp        []int32   // a partition's right rows
	colSample  []int     // the node's sampled features
	grad, hess []float64
	rng        *rand.Rand
}

func newGrower(c *Classifier, ds *ml.Dataset) *grower {
	n, nf := ds.Len(), ds.NumFeatures()
	g := &grower{
		c: c, n: n, nf: nf,
		x:         make([]float64, nf*n),
		sorted:    make([]int32, nf*n),
		cols:      make([]int32, (nf+1)*n),
		goLeft:    make([]uint8, n),
		tmp:       make([]int32, n),
		colSample: make([]int, nf),
		grad:      make([]float64, n),
		hess:      make([]float64, n),
		rng:       rand.New(rand.NewSource(c.cfg.Seed)),
	}
	for r, row := range ds.X {
		for f, v := range row {
			g.x[f*n+r] = v
		}
	}
	for f := 0; f < nf; f++ {
		xf := g.x[f*n : (f+1)*n]
		col := g.sorted[f*n : (f+1)*n]
		for r := range col {
			col[r] = int32(r)
		}
		// Validate rejected NaN, so values are totally ordered and the
		// row index breaks every tie.
		slices.SortFunc(col, func(a, b int32) int {
			switch va, vb := xf[a], xf[b]; {
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return int(a - b)
		})
	}
	return g
}

// sampleRows draws the round's row subsample, fills cols with it and
// returns its size.
func (g *grower) sampleRows() int {
	n, nf := g.n, g.nf
	rows := g.cols[nf*n : nf*n]
	for i := 0; i < n; i++ {
		if g.c.cfg.Subsample >= 1 || g.rng.Float64() < g.c.cfg.Subsample {
			rows = append(rows, int32(i))
		}
	}
	if len(rows) == 0 {
		rows = append(rows, int32(g.rng.Intn(n)))
	}
	in := g.goLeft // unused until the round's first split
	clear(in)
	for _, r := range rows {
		in[r] = 1
	}
	m := len(rows)
	for f := 0; f < nf; f++ {
		// Branch-free: every row is written, but only a sampled one
		// advances k.
		dst, k := g.cols[f*n:(f+1)*n], 0
		for _, r := range g.sorted[f*n : (f+1)*n] {
			dst[k] = r
			k += int(in[r])
		}
	}
	return m
}

// sampleFeatures draws the node's column sample into g.colSample.
func (g *grower) sampleFeatures() []int {
	cols := g.colSample[:g.nf]
	for i := range cols {
		cols[i] = i
	}
	if g.c.cfg.ColSample >= 1 {
		return cols
	}
	k := int(math.Ceil(g.c.cfg.ColSample * float64(g.nf)))
	if k < 1 {
		k = 1
	}
	g.rng.Shuffle(g.nf, func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	cols = cols[:k]
	sort.Ints(cols)
	return cols
}

// col returns feature f's segment [lo, hi) of the round's columns;
// f == nf is the row-order column.
func (g *grower) col(f, lo, hi int) []int32 { return g.cols[f*g.n+lo : f*g.n+hi] }

// buildNode grows the node owning rows [lo, hi) via exact greedy search
// over a per-node column sample, appending it and then its left and
// right subtrees to the flat node slice (pre-order), and returns the
// node's index.
func (g *grower) buildNode(lo, hi, depth int) int32 {
	c := g.c
	var G, H float64
	for _, r := range g.col(g.nf, lo, hi) {
		G += g.grad[r]
		H += g.hess[r]
	}
	nd := int32(len(c.flat.nodes))
	c.flat.nodes = append(c.flat.nodes, flatNode{Feature: -1, Value: -G / (H + c.cfg.Lambda)})
	if depth >= c.cfg.MaxDepth || hi-lo < 2 {
		return nd
	}

	parentScore := G * G / (H + c.cfg.Lambda)
	cols := g.sampleFeatures()

	var best splitCandidate
	if c.cfg.Workers > 1 && hi-lo >= 256 {
		best = g.bestSplitParallel(lo, hi, cols, G, H, parentScore)
	} else {
		best = splitCandidate{feat: -1}
		for _, f := range cols {
			best = reduceCandidates(best, g.bestSplitFeature(f, lo, hi, G, H, parentScore))
		}
	}
	if best.feat < 0 {
		return nd
	}

	xf := g.x[best.feat*g.n : (best.feat+1)*g.n]
	nl := 0
	for _, r := range g.col(g.nf, lo, hi) {
		g.goLeft[r] = 0
		if xf[r] <= best.thr {
			g.goLeft[r] = 1
			nl++
		}
	}
	if nl == 0 || nl == hi-lo {
		return nd
	}
	// Children at MaxDepth are leaves: they read only the row order.
	if depth+1 < c.cfg.MaxDepth {
		for f := 0; f < g.nf; f++ {
			g.partition(g.col(f, lo, hi))
		}
	}
	g.partition(g.col(g.nf, lo, hi))
	c.splitCount[best.feat]++
	l := g.buildNode(lo, lo+nl, depth+1)
	r := g.buildNode(lo+nl, hi, depth+1)
	c.flat.nodes[nd] = flatNode{Feature: int32(best.feat), Left: l, Right: r, Value: best.thr}
	return nd
}

// partition stably moves seg's left rows (g.goLeft) before its right
// rows. A split's sides are unpredictable, so it does not branch on
// them: each row is written to both sides and advances one.
func (g *grower) partition(seg []int32) {
	right := g.tmp[:len(seg)]
	w, k := 0, 0
	for _, r := range seg {
		l := int(g.goLeft[r])
		seg[w] = r // w <= the read index: seg[w] has been read
		right[k] = r
		w += l
		k += 1 - l
	}
	copy(seg[w:], right[:k])
}

// splitCandidate is one feature's best split.
type splitCandidate struct {
	gain float64
	feat int
	thr  float64
}

// reduceCandidates merges candidates with the serial loop's semantics:
// strictly higher gain wins; on exactly equal gains the lower feature
// index wins, so parallel and serial search pick the same split.
func reduceCandidates(a, b splitCandidate) splitCandidate {
	if b.feat < 0 {
		return a
	}
	if a.feat < 0 || b.gain > a.gain || (b.gain == a.gain && b.feat < a.feat) {
		return b
	}
	return a
}

// bestSplitFeature finds feature f's gain-maximizing threshold over the
// node's rows [lo, hi) by one sweep of its sorted segment. It only
// reads the grower, so workers may call it concurrently.
func (g *grower) bestSplitFeature(f, lo, hi int, G, H, parentScore float64) splitCandidate {
	cfg := &g.c.cfg
	seg := g.col(f, lo, hi)
	xf := g.x[f*g.n : (f+1)*g.n]
	best := splitCandidate{feat: -1}
	var GL, HL float64
	for k := 0; k < len(seg)-1; k++ {
		r := seg[k]
		GL += g.grad[r]
		HL += g.hess[r]
		v, next := xf[r], xf[seg[k+1]]
		if v == next {
			continue
		}
		GR, HR := G-GL, H-HL
		if HL < cfg.MinChildWeight || HR < cfg.MinChildWeight {
			continue
		}
		gain := 0.5*(GL*GL/(HL+cfg.Lambda)+GR*GR/(HR+cfg.Lambda)-parentScore) - cfg.Gamma
		// best.gain starts at 0 with feat -1, so non-positive gains
		// are never accepted — matching the pre-parallel serial loop.
		if gain > best.gain {
			best = splitCandidate{gain: gain, feat: f, thr: (v + next) / 2}
		}
	}
	return best
}

// bestSplitParallel fans the per-feature search over a worker pool and
// reduces deterministically.
func (g *grower) bestSplitParallel(lo, hi int, cols []int, G, H, parentScore float64) splitCandidate {
	workers := min(g.c.cfg.Workers, len(cols))
	results := make([]splitCandidate, len(cols))
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range ch {
				results[ci] = g.bestSplitFeature(cols[ci], lo, hi, G, H, parentScore)
			}
		}()
	}
	for ci := range cols {
		ch <- ci
	}
	close(ch)
	wg.Wait()
	best := splitCandidate{feat: -1}
	for _, cand := range results {
		best = reduceCandidates(best, cand)
	}
	return best
}

//cats:hotpath
func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// PredictMargin returns the raw additive score (log-odds) for x.
//
//cats:hotpath
func (c *Classifier) PredictMargin(x []float64) float64 {
	return c.flat.margin(x, c.baseScore, c.cfg.LearningRate, len(c.flat.roots))
}

// PredictProbaAt returns P(fraud|x) using only the first n trees of the
// fitted ensemble (n is clamped to [0, NumTrees]). Staged prediction
// supports rounds-vs-quality analysis without retraining.
func (c *Classifier) PredictProbaAt(x []float64, n int) float64 {
	n = max(0, min(n, len(c.flat.roots)))
	return sigmoid(c.flat.margin(x, c.baseScore, c.cfg.LearningRate, n))
}

// PredictProba returns P(fraud|x).
func (c *Classifier) PredictProba(x []float64) float64 { return sigmoid(c.PredictMargin(x)) }

// Predict returns the hard label at threshold 0.5.
func (c *Classifier) Predict(x []float64) int { return ml.Threshold(c.PredictProba(x)) }

// NumTrees returns the number of fitted trees.
func (c *Classifier) NumTrees() int { return len(c.flat.roots) }

// DecisionPathFeatures reports how often each feature is consulted on
// x's decision paths across the ensemble — a lightweight per-prediction
// explanation ("this item was routed mainly by sumCommentLength and
// averageSentiment"). The counts sum to the total number of internal
// nodes traversed.
func (c *Classifier) DecisionPathFeatures(x []float64) ([]Importance, error) {
	if c.flat.roots == nil {
		return nil, ErrNotFitted
	}
	counts := make([]int, len(c.splitCount))
	nodes := c.flat.nodes
	for _, i := range c.flat.roots {
		for nodes[i].Feature >= 0 {
			counts[nodes[i].Feature]++
			if x[nodes[i].Feature] <= nodes[i].Value {
				i = nodes[i].Left
			} else {
				i = nodes[i].Right
			}
		}
	}
	return c.ranked(counts), nil
}

// Importance is one feature's split-count importance.
type Importance struct {
	Feature string
	Index   int
	Splits  int
}

// ErrNotFitted is returned by FeatureImportance before Fit.
var ErrNotFitted = errors.New("gbt: model not fitted")

// FeatureImportance returns per-feature split counts sorted descending —
// the measure Fig 7 plots ("the times this feature is split during the
// construction process of the Xgboost model").
func (c *Classifier) FeatureImportance() ([]Importance, error) {
	if c.flat.roots == nil {
		return nil, ErrNotFitted
	}
	return c.ranked(c.splitCount), nil
}

// ranked names per-feature counts and sorts them descending, ties to
// the lower feature index.
func (c *Classifier) ranked(counts []int) []Importance {
	out := make([]Importance, len(counts))
	for i, s := range counts {
		name := ""
		if i < len(c.names) {
			name = c.names[i]
		}
		out[i] = Importance{Feature: name, Index: i, Splits: s}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Splits != out[j].Splits {
			return out[i].Splits > out[j].Splits
		}
		return out[i].Index < out[j].Index
	})
	return out
}
