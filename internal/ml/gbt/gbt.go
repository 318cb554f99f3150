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

	rng := rand.New(rand.NewSource(c.cfg.Seed))
	margin := make([]float64, n)
	for i := range margin {
		margin[i] = c.baseScore
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	rows := make([]int, 0, n)
	for round := 0; round < c.cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			pi := sigmoid(margin[i])
			grad[i] = pi - float64(ds.Y[i])
			hess[i] = pi * (1 - pi)
		}
		rows = rows[:0]
		if c.cfg.Subsample < 1 {
			for i := 0; i < n; i++ {
				if rng.Float64() < c.cfg.Subsample {
					rows = append(rows, i)
				}
			}
			if len(rows) == 0 {
				rows = append(rows, rng.Intn(n))
			}
		} else {
			for i := 0; i < n; i++ {
				rows = append(rows, i)
			}
		}
		root := c.buildNode(ds, rows, grad, hess, 0, rng)
		c.flat.roots = append(c.flat.roots, root)
		for i := 0; i < n; i++ {
			margin[i] += c.cfg.LearningRate * c.flat.leaf(root, ds.X[i])
		}
	}
	return nil
}

func (c *Classifier) sampleCols(nf int, rng *rand.Rand) []int {
	cols := make([]int, nf)
	for i := range cols {
		cols[i] = i
	}
	if c.cfg.ColSample >= 1 {
		return cols
	}
	k := int(math.Ceil(c.cfg.ColSample * float64(nf)))
	if k < 1 {
		k = 1
	}
	rng.Shuffle(nf, func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	cols = cols[:k]
	sort.Ints(cols)
	return cols
}

// buildNode grows one tree node via exact greedy search over a per-node
// column sample, appending it and then its left and right subtrees to
// the flat node slice (pre-order), and returns the node's index.
func (c *Classifier) buildNode(ds *ml.Dataset, rows []int, grad, hess []float64, depth int, rng *rand.Rand) int32 {
	var G, H float64
	for _, i := range rows {
		G += grad[i]
		H += hess[i]
	}
	nd := int32(len(c.flat.nodes))
	c.flat.nodes = append(c.flat.nodes, flatNode{Feature: -1, Value: -G / (H + c.cfg.Lambda)})
	if depth >= c.cfg.MaxDepth || len(rows) < 2 {
		return nd
	}

	parentScore := G * G / (H + c.cfg.Lambda)
	cols := c.sampleCols(ds.NumFeatures(), rng)

	var best splitCandidate
	if c.cfg.Workers > 1 && len(rows) >= 256 {
		best = c.bestSplitParallel(ds, rows, cols, grad, hess, G, H, parentScore)
	} else {
		buf := make([]splitPair, len(rows))
		best = splitCandidate{feat: -1}
		for _, f := range cols {
			cand := c.bestSplitFeature(ds, rows, f, grad, hess, G, H, parentScore, buf)
			best = reduceCandidates(best, cand)
		}
	}
	bestFeat, bestThr := best.feat, best.thr
	if bestFeat < 0 {
		return nd
	}

	var left, right []int
	for _, i := range rows {
		if ds.X[i][bestFeat] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return nd
	}
	c.splitCount[bestFeat]++
	l := c.buildNode(ds, left, grad, hess, depth+1, rng)
	r := c.buildNode(ds, right, grad, hess, depth+1, rng)
	c.flat.nodes[nd] = flatNode{Feature: int32(bestFeat), Left: l, Right: r, Value: bestThr}
	return nd
}

// splitPair is one row's (value, gradient, hessian) for split search.
type splitPair struct {
	v    float64
	g, h float64
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

// sortSplitPairs orders a node's pairs by feature value. The compare is
// negative exactly when a.v < b.v, so slices.SortFunc makes the
// comparisons and swaps sort.Slice made with that less — the same
// permutation, ties included, hence the same GL/HL sums and the same
// model — without sort.Slice's reflection swapper over 24-byte
// elements. It is a variable so the test can fit the same model through
// the sort.Slice form and compare snapshots.
var sortSplitPairs = func(pairs []splitPair) {
	slices.SortFunc(pairs, func(a, b splitPair) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
}

// bestSplitFeature finds feature f's gain-maximizing threshold via a
// sorted sweep. buf must have len(rows) capacity and is clobbered.
func (c *Classifier) bestSplitFeature(ds *ml.Dataset, rows []int, f int, grad, hess []float64, G, H, parentScore float64, buf []splitPair) splitCandidate {
	pairs := buf[:len(rows)]
	for k, i := range rows {
		pairs[k] = splitPair{ds.X[i][f], grad[i], hess[i]}
	}
	sortSplitPairs(pairs)
	best := splitCandidate{feat: -1}
	var GL, HL float64
	for k := 0; k < len(pairs)-1; k++ {
		GL += pairs[k].g
		HL += pairs[k].h
		if pairs[k].v == pairs[k+1].v {
			continue
		}
		GR, HR := G-GL, H-HL
		if HL < c.cfg.MinChildWeight || HR < c.cfg.MinChildWeight {
			continue
		}
		gain := 0.5*(GL*GL/(HL+c.cfg.Lambda)+GR*GR/(HR+c.cfg.Lambda)-parentScore) - c.cfg.Gamma
		// best.gain starts at 0 with feat -1, so non-positive gains
		// are never accepted — matching the pre-parallel serial loop.
		if gain > best.gain {
			best = splitCandidate{gain: gain, feat: f, thr: (pairs[k].v + pairs[k+1].v) / 2}
		}
	}
	return best
}

// bestSplitParallel fans the per-feature search over a worker pool and
// reduces deterministically.
func (c *Classifier) bestSplitParallel(ds *ml.Dataset, rows, cols []int, grad, hess []float64, G, H, parentScore float64) splitCandidate {
	workers := c.cfg.Workers
	if workers > len(cols) {
		workers = len(cols)
	}
	results := make([]splitCandidate, len(cols))
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]splitPair, len(rows))
			for ci := range ch {
				results[ci] = c.bestSplitFeature(ds, rows, cols[ci], grad, hess, G, H, parentScore, buf)
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
