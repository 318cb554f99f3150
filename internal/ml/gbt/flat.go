package gbt

// Flattened-ensemble inference: after Fit (or FromSnapshot) the
// pointer-linked training trees are laid out into one contiguous node
// slice shared by every tree, so a prediction walks a dense array —
// feature index, threshold/leaf weight, and child offsets all in one
// cache line — instead of chasing heap pointers. The pointer trees are
// retained for training, snapshotting, and decision-path explanations;
// the flat form is purely an inference mirror, and the equivalence
// tests pin its margins bit-for-bit to the pointer walk.

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

// finalize rebuilds the flat inference mirror from the pointer trees.
// Fit and FromSnapshot call it once the ensemble is complete.
func (c *Classifier) finalize() {
	f := &flatEnsemble{roots: make([]int32, 0, len(c.trees))}
	for _, t := range c.trees {
		f.roots = append(f.roots, int32(len(f.nodes)))
		f.push(t)
	}
	c.flat = f
}

// push appends n's subtree in pre-order and returns its index.
func (f *flatEnsemble) push(n *node) int32 {
	idx := int32(len(f.nodes))
	if n.leaf {
		f.nodes = append(f.nodes, flatNode{Feature: -1, Value: n.weight})
		return idx
	}
	f.nodes = append(f.nodes, flatNode{Feature: int32(n.feature), Value: n.threshold})
	f.nodes[idx].Left = f.push(n.left)
	f.nodes[idx].Right = f.push(n.right)
	return idx
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
// order — the same additive order as the pointer walk, so the result is
// bit-identical.
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
// identical to PredictMargin; the batch form exists so callers scoring
// many vectors (core.scoreBatch, the batch benchmarks) stream the
// flat node array through cache once per tree walk instead of
// re-entering the classifier per item.
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
