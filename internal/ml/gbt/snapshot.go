package gbt

import (
	"errors"
	"fmt"
)

// Snapshot is the JSON-serializable form of a fitted model, for saving
// a trained detector to disk and shipping it to other deployments (the
// paper pre-trains on D0 once and reuses the model across platforms).
type Snapshot struct {
	Config     Config      `json:"config"`
	BaseScore  float64     `json:"base_score"`
	SplitCount []int       `json:"split_count"`
	Names      []string    `json:"feature_names,omitempty"`
	Trees      [][]NodeDTO `json:"trees"`
}

// NodeDTO is one tree node on the wire. Children are indices into the
// same tree's node slice; -1 marks "no child" (leaves). A split node's
// Weight is unused and written as 0.
type NodeDTO struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Leaf      bool    `json:"leaf"`
	Weight    float64 `json:"w"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
}

// Snapshot captures the fitted model. It returns ErrNotFitted before
// Fit.
func (c *Classifier) Snapshot() (*Snapshot, error) {
	if c.flat.roots == nil {
		return nil, ErrNotFitted
	}
	s := &Snapshot{
		Config:     c.cfg,
		BaseScore:  c.baseScore,
		SplitCount: append([]int(nil), c.splitCount...),
		Names:      append([]string(nil), c.names...),
		Trees:      make([][]NodeDTO, len(c.flat.roots)),
	}
	for t, root := range c.flat.roots {
		end := len(c.flat.nodes)
		if t+1 < len(c.flat.roots) {
			end = int(c.flat.roots[t+1])
		}
		tree := make([]NodeDTO, end-int(root))
		for i, n := range c.flat.nodes[root:end] {
			if n.Feature < 0 {
				tree[i] = NodeDTO{Leaf: true, Weight: n.Value, Left: -1, Right: -1}
			} else {
				tree[i] = NodeDTO{Feature: int(n.Feature), Threshold: n.Value, Left: int(n.Left - root), Right: int(n.Right - root)}
			}
		}
		s.Trees[t] = tree
	}
	return s, nil
}

// FromSnapshot reconstructs a fitted classifier. Every tree is
// validated as it is appended to the flat node slice — child indices in
// range, no node reached twice, split features inside
// [0, len(SplitCount)) — so a malformed snapshot returns an error
// naming the tree and node rather than a model that panics or loops at
// prediction time.
func FromSnapshot(s *Snapshot) (*Classifier, error) {
	if s == nil {
		return nil, errors.New("gbt: nil snapshot")
	}
	total := 0
	for _, tree := range s.Trees {
		total += len(tree)
	}
	c := &Classifier{
		cfg:        s.Config.withDefaults(),
		baseScore:  s.BaseScore,
		splitCount: append([]int(nil), s.SplitCount...),
		names:      append([]string(nil), s.Names...),
		flat:       flatEnsemble{nodes: make([]flatNode, 0, total), roots: make([]int32, 0, len(s.Trees))},
	}
	seen := make([]bool, total) // one visited mark per wire node, sliced per tree
	for ti, tree := range s.Trees {
		if len(tree) == 0 {
			return nil, fmt.Errorf("gbt: tree %d is empty", ti)
		}
		root, err := c.flat.appendNode(tree, 0, seen[:len(tree)], len(c.splitCount))
		if err != nil {
			return nil, fmt.Errorf("gbt: tree %d: %w", ti, err)
		}
		c.flat.roots = append(c.flat.roots, root)
		seen = seen[len(tree):]
	}
	return c, nil
}

// appendNode appends tree[idx] (idx in range) and then its left and
// right subtrees (pre-order, the layout buildNode produces) and returns
// the node's absolute index. Nodes not reachable from the root are
// dropped.
func (f *flatEnsemble) appendNode(tree []NodeDTO, idx int, seen []bool, numFeatures int) (int32, error) {
	if seen[idx] {
		return 0, fmt.Errorf("node %d reached twice (cycle or shared child)", idx)
	}
	seen[idx] = true
	d := tree[idx]
	at := int32(len(f.nodes))
	if d.Leaf {
		f.nodes = append(f.nodes, flatNode{Feature: -1, Value: d.Weight})
		return at, nil
	}
	if d.Feature < 0 || d.Feature >= numFeatures {
		return 0, fmt.Errorf("node %d: split feature %d outside [0, %d)", idx, d.Feature, numFeatures)
	}
	f.nodes = append(f.nodes, flatNode{Feature: int32(d.Feature), Value: d.Threshold})
	var child [2]int32
	for k, ch := range [2]int{d.Left, d.Right} {
		if ch < 0 || ch >= len(tree) {
			return 0, fmt.Errorf("node %d: child index %d outside [0, %d)", idx, ch, len(tree))
		}
		var err error
		if child[k], err = f.appendNode(tree, ch, seen, numFeatures); err != nil {
			return 0, err
		}
	}
	f.nodes[at].Left, f.nodes[at].Right = child[0], child[1]
	return at, nil
}
