package gbt

// The flat ensemble is the model's only in-memory form: every tree's
// nodes live in one contiguous slice, so a prediction walks a dense
// array — feature index, threshold/leaf weight, and child offsets all
// in one cache line — instead of chasing heap pointers. Fit's
// buildNode and FromSnapshot's appendNode both append a tree in
// pre-order (node, left subtree, right subtree), so tree t occupies
// nodes[roots[t]:roots[t+1]] and the same model always has the same
// layout; NodeDTO (snapshot.go) is the wire form only.

// flatNode is one node of the flattened ensemble. Feature >= 0 marks an
// internal node whose Value is the split threshold; Feature == -1 marks
// a leaf whose Value is the leaf weight. Children are absolute indices
// into the shared node slice.
type flatNode struct {
	Feature int32
	Left    int32
	Right   int32
	Value   float64
}

// flatEnsemble is every tree of the ensemble in one node slice, with
// per-tree root offsets.
type flatEnsemble struct {
	nodes []flatNode
	roots []int32
}

// leaf walks one tree from root and returns the reached leaf's weight.
//
//cats:hotpath
func (f *flatEnsemble) leaf(root int32, x []float64) float64 {
	nodes := f.nodes
	i := root
	for nodes[i].Feature >= 0 {
		if x[nodes[i].Feature] <= nodes[i].Value {
			i = nodes[i].Left
		} else {
			i = nodes[i].Right
		}
	}
	return nodes[i].Value
}

// margin accumulates base + lr·leaf over the first n trees, in tree
// order — the additive order of Fit's per-round margin updates.
//
//cats:hotpath
func (f *flatEnsemble) margin(x []float64, base, lr float64, n int) float64 {
	m := base
	for _, root := range f.roots[:n] {
		m += lr * f.leaf(root, x)
	}
	return m
}

// PredictMarginBatch computes raw additive scores (log-odds) for every
// row of X into out, which must have len(X) capacity when non-nil; a
// nil out is allocated. It returns out. Per-row results are bit-
// identical to PredictMargin, and the loop is PredictMargin per row:
// no tree is walked differently. What the batch form buys is the
// caller's structure — core.scoreBatch analyzes a whole batch first and
// scores the survivors in a second phase of a few large chunks, so the
// node array stays cache-resident across consecutive rows instead of
// being evicted by each item's segmentation and feature pass. Scoring
// inline per item instead measured worse on bench/: serve_cold job_s in
// 4/4 alternating pairs (+0.3…+5.4%), stream_colfmt in 3/4 (+1.1,
// +4.6, +2.9, −1.0%), serve_hot unresolved.
//
//cats:hotpath
func (c *Classifier) PredictMarginBatch(X [][]float64, out []float64) []float64 {
	if out == nil {
		//lint:ignore hotpath-alloc a nil out is the caller explicitly opting into one allocation; reusing callers pass their own buffer
		out = make([]float64, len(X))
	}
	out = out[:len(X)]
	for i, x := range X {
		out[i] = c.PredictMargin(x)
	}
	return out
}

// PredictProbaBatch is PredictMarginBatch squashed through the
// logistic: out[i] = P(fraud|X[i]), bit-identical to PredictProba.
//
//cats:hotpath
func (c *Classifier) PredictProbaBatch(X [][]float64, out []float64) []float64 {
	out = c.PredictMarginBatch(X, out)
	for i, m := range out {
		out[i] = sigmoid(m)
	}
	return out
}
