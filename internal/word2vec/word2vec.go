// Package word2vec implements skip-gram word embeddings with negative
// sampling (Mikolov et al. 2013), the model CATS' semantic analyzer
// trains on a large comment corpus to expand seed words into the
// positive/negative lexicons of Table I.
//
// This is a from-scratch stdlib-only reimplementation of the part of
// TensorFlow's word2vec the paper used: vocabulary building with a
// minimum count, a unigram^0.75 negative-sampling table, SGD with
// linear learning-rate decay, and cosine-similarity nearest-neighbor
// queries over the learned input vectors.
//
// Training is a single-threaded SGD loop, and a seed fixes its result
// to the bit. Each (center, context) step updates one positive target
// (the context) and up to Negative sampled negatives. The step is
// arranged for instruction-level parallelism without changing a bit of
// the trained vectors (Go on amd64 fuses no multiply-add):
//
//   - A step draws all its negatives before it updates anything. That
//     makes the same rng.Intn calls in the same order as drawing each
//     just before its update, because no update reads the generator.
//   - When the step's targets are pairwise distinct, no target's update
//     changes another's output vector, so their dot products with the
//     center vector run as independent accumulators, four or two to a
//     pass. Each accumulator still sums in index order. Each target's
//     update is then applied in ascending target order: the same
//     operations on each element, in the same order, as the sequential
//     loop.
//   - A step that draws a target twice runs the sequential
//     per-target loop, because the repeat must see its own earlier
//     update.
//
// FuzzTrainDifferential holds Train to that sequential loop, bit for
// bit; TestTrainVectorsPinned pins the vectors of three fixed
// trainings.
package word2vec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
)

// Config holds the training hyperparameters. The zero value is usable.
type Config struct {
	// Dim is the embedding dimensionality; <= 0 means 32.
	Dim int
	// Window is the max context offset; <= 0 means 4.
	Window int
	// Negative is the number of negative samples per target;
	// <= 0 means 5.
	Negative int
	// Epochs is the number of passes over the corpus; <= 0 means 3.
	Epochs int
	// LearningRate is the starting SGD step, decayed linearly to 1e-4;
	// <= 0 means 0.025.
	LearningRate float64
	// MinCount drops words rarer than this from the vocabulary;
	// <= 0 means 3.
	MinCount int
	// SubsampleT enables Mikolov-style frequent-word subsampling: an
	// occurrence of word w with corpus frequency f(w) is kept with
	// probability min(1, sqrt(t/f(w)) + t/f(w)). Typical t is 1e-3 to
	// 1e-5; 0 disables. Downsampling ubiquitous function words gives
	// rarer content words more effective context.
	SubsampleT float64
	// Seed seeds initialization and sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.Negative <= 0 {
		c.Negative = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.025
	}
	if c.MinCount <= 0 {
		c.MinCount = 3
	}
	return c
}

// Model is a trained skip-gram embedding model. It holds only what
// inference reads: the output vectors and the sampling table are the
// trainer's and go when Train returns.
type Model struct {
	dim    int
	vocab  map[string]int
	words  []string
	counts []int
	in     [][]float64 // input vectors (the embeddings)

	normsOnce sync.Once
	norms     []float64 // squared norm of each input vector, for Nearest
}

// ErrEmptyCorpus is returned by Train when no sentence survives the
// vocabulary cut.
var ErrEmptyCorpus = errors.New("word2vec: empty corpus after vocabulary cut")

// Train fits a model on a corpus of pre-segmented sentences.
func Train(corpus [][]string, cfg Config) (*Model, error) {
	t, err := newTrainer(corpus, cfg)
	if err != nil {
		return nil, err
	}
	t.run(t.step)
	return t.m, nil
}

// trainer is the state of one training run. Only m outlives it.
type trainer struct {
	m       *Model
	cfg     Config
	encoded [][]int // the corpus as word IDs, subsampled
	total   int     // tokens in encoded
	rng     *rand.Rand
	out     [][]float64 // output vectors, row views into one slab
	table   []int32     // negative-sampling table

	grad    []float64 // step scratch: the center vector's update
	targets []int     // step scratch: the context, then the negatives
	gs      []float64 // step scratch: each target's dot product, then gradient
}

// newTrainer builds the vocabulary, encodes the corpus and initializes
// the vectors: everything before the first SGD step.
func newTrainer(corpus [][]string, cfg Config) (*trainer, error) {
	cfg = cfg.withDefaults()
	m := &Model{dim: cfg.Dim, vocab: map[string]int{}}

	// Vocabulary pass.
	raw := map[string]int{}
	for _, sent := range corpus {
		for _, w := range sent {
			raw[w]++
		}
	}
	type wc struct {
		w string
		c int
	}
	var list []wc
	for w, c := range raw {
		if c >= cfg.MinCount {
			list = append(list, wc{w, c})
		}
	}
	if len(list) == 0 {
		return nil, ErrEmptyCorpus
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].c != list[j].c {
			return list[i].c > list[j].c
		}
		return list[i].w < list[j].w
	})
	for i, e := range list {
		m.vocab[e.w] = i
		m.words = append(m.words, e.w)
		m.counts = append(m.counts, e.c)
	}

	// Encode corpus, applying frequent-word subsampling if enabled.
	subRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	var keepProb []float64
	if cfg.SubsampleT > 0 {
		var corpusTokens float64
		for _, c := range m.counts {
			corpusTokens += float64(c)
		}
		keepProb = make([]float64, len(m.counts))
		for i, c := range m.counts {
			f := float64(c) / corpusTokens
			p := math.Sqrt(cfg.SubsampleT/f) + cfg.SubsampleT/f
			if p > 1 {
				p = 1
			}
			keepProb[i] = p
		}
	}
	t := &trainer{m: m, cfg: cfg}
	for _, sent := range corpus {
		var ids []int
		for _, w := range sent {
			id, ok := m.vocab[w]
			if !ok {
				continue
			}
			if keepProb != nil && subRng.Float64() > keepProb[id] {
				continue
			}
			ids = append(ids, id)
		}
		if len(ids) >= 2 {
			t.encoded = append(t.encoded, ids)
			t.total += len(ids)
		}
	}
	if t.total == 0 {
		return nil, ErrEmptyCorpus
	}

	t.table = buildTable(m.counts)
	t.rng = rand.New(rand.NewSource(cfg.Seed))
	v := len(m.words)
	m.in = rows(make([]float64, v*cfg.Dim), cfg.Dim)
	t.out = rows(make([]float64, v*cfg.Dim), cfg.Dim)
	for _, vec := range m.in {
		for d := range vec {
			vec[d] = (t.rng.Float64() - 0.5) / float64(cfg.Dim)
		}
	}
	t.grad = make([]float64, cfg.Dim)
	t.targets = make([]int, 0, 1+cfg.Negative)
	t.gs = make([]float64, 1+cfg.Negative)
	return t, nil
}

// rows cuts slab into rows of n, each capped at its own end.
func rows(slab []float64, n int) [][]float64 {
	r := make([][]float64, len(slab)/n)
	for i := range r {
		r[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return r
}

// run makes cfg.Epochs passes over the corpus, calling step for every
// (center, context) pair at its decayed learning rate.
func (t *trainer) run(step func(center, context int, lr float64)) {
	steps := 0
	totalSteps := t.cfg.Epochs * t.total
	for epoch := 0; epoch < t.cfg.Epochs; epoch++ {
		for _, sent := range t.encoded {
			for pos, center := range sent {
				lr := t.cfg.LearningRate * (1 - float64(steps)/float64(totalSteps+1))
				if lr < 1e-4 {
					lr = 1e-4
				}
				steps++
				win := 1 + t.rng.Intn(t.cfg.Window)
				for off := -win; off <= win; off++ {
					ctxPos := pos + off
					if off == 0 || ctxPos < 0 || ctxPos >= len(sent) {
						continue
					}
					step(center, sent[ctxPos], lr)
				}
			}
		}
	}
}

// step performs one (center, context) SGD update with negative samples.
// Its targets are the context (label 1) and each drawn negative that is
// not the context (label 0); see the package comment for why it may
// compute their dot products up front.
func (t *trainer) step(center, context int, lr float64) {
	targets := append(t.targets[:0], context)
	distinct := true
	for k := 0; k < t.cfg.Negative; k++ {
		target := int(t.table[t.rng.Intn(len(t.table))])
		if target == context {
			continue
		}
		if slices.Contains(targets[1:], target) {
			distinct = false
		}
		targets = append(targets, target)
	}
	t.targets = targets

	vin := t.m.in[center]
	grad := t.grad
	clear(grad)
	if distinct {
		t.chains(vin, targets, lr)
	} else {
		for k, target := range targets {
			vout := t.out[target]
			update(vin, vout, grad, gradient(dot(vin, vout), k, lr))
		}
	}
	for d := range vin {
		vin[d] -= grad[d]
	}
}

// chains is step's update for pairwise distinct targets: every dot
// product first, four or two targets to a pass, then every update,
// in target order, four or two to a pass.
func (t *trainer) chains(vin []float64, targets []int, lr float64) {
	out, grad, gs := t.out, t.grad, t.gs[:len(targets)]
	k := 0
	for ; k+4 <= len(targets); k += 4 {
		gs[k], gs[k+1], gs[k+2], gs[k+3] = dot4(vin,
			out[targets[k]], out[targets[k+1]], out[targets[k+2]], out[targets[k+3]])
	}
	for ; k+2 <= len(targets); k += 2 {
		gs[k], gs[k+1] = dot2(vin, out[targets[k]], out[targets[k+1]])
	}
	if k < len(targets) {
		gs[k] = dot(vin, out[targets[k]])
	}
	for k := range gs {
		gs[k] = gradient(gs[k], k, lr)
	}
	k = 0
	for ; k+4 <= len(targets); k += 4 {
		update4(vin, grad, out[targets[k]], out[targets[k+1]], out[targets[k+2]], out[targets[k+3]],
			gs[k], gs[k+1], gs[k+2], gs[k+3])
	}
	for ; k+2 <= len(targets); k += 2 {
		update2(vin, grad, out[targets[k]], out[targets[k+1]], gs[k], gs[k+1])
	}
	if k < len(targets) {
		update(vin, out[targets[k]], grad, gs[k])
	}
}

// gradient is the scaled error of a target's prediction: label 1 for
// the context (k == 0), 0 for a negative.
func gradient(dot float64, k int, lr float64) float64 {
	var label float64
	if k == 0 {
		label = 1
	}
	return (sigmoid(dot) - label) * lr
}

// update accumulates a target's share of the center vector's update
// into grad and moves the target's output vector, both by g.
func update(vin, vout, grad []float64, g float64) {
	vout, grad = vout[:len(vin)], grad[:len(vin)]
	for d, x := range vin {
		grad[d] += g * vout[d]
		vout[d] -= g * x
	}
}

// update2 is update for two targets in one pass, a's before b's.
func update2(vin, grad, a, b []float64, ga, gb float64) {
	grad, a, b = grad[:len(vin)], a[:len(vin)], b[:len(vin)]
	for d, x := range vin {
		s := grad[d]
		s += ga * a[d]
		a[d] -= ga * x
		s += gb * b[d]
		b[d] -= gb * x
		grad[d] = s
	}
}

// update4 is update for four targets in one pass, in argument order.
func update4(vin, grad, a, b, c, e []float64, ga, gb, gc, ge float64) {
	grad, a, b, c, e = grad[:len(vin)], a[:len(vin)], b[:len(vin)], c[:len(vin)], e[:len(vin)]
	for d, x := range vin {
		s := grad[d]
		s += ga * a[d]
		a[d] -= ga * x
		s += gb * b[d]
		b[d] -= gb * x
		s += gc * c[d]
		c[d] -= gc * x
		s += ge * e[d]
		e[d] -= ge * x
		grad[d] = s
	}
}

// dot is v·a summed in index order.
func dot(v, a []float64) float64 {
	a = a[:len(v)]
	var s float64
	for d, x := range v {
		s += x * a[d]
	}
	return s
}

// dot2 is dot for two vectors at once: two independent chains.
func dot2(v, a, b []float64) (sa, sb float64) {
	a, b = a[:len(v)], b[:len(v)]
	for d, x := range v {
		sa += x * a[d]
		sb += x * b[d]
	}
	return sa, sb
}

// dot4 is dot for four vectors at once: four independent chains.
func dot4(v, a, b, c, e []float64) (sa, sb, sc, se float64) {
	a, b, c, e = a[:len(v)], b[:len(v)], c[:len(v)], e[:len(v)]
	for d, x := range v {
		sa += x * a[d]
		sb += x * b[d]
		sc += x * c[d]
		se += x * e[d]
	}
	return sa, sb, sc, se
}

func sigmoid(z float64) float64 {
	if z > 8 {
		return 1
	}
	if z < -8 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// buildTable constructs the unigram^0.75 negative-sampling table.
func buildTable(counts []int) []int32 {
	const tableSize = 1 << 17
	table := make([]int32, 0, tableSize)
	var z float64
	pows := make([]float64, len(counts))
	for i, c := range counts {
		pows[i] = math.Pow(float64(c), 0.75)
		z += pows[i]
	}
	for i, p := range pows {
		n := int(p / z * tableSize)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			table = append(table, int32(i))
		}
	}
	return table
}

// VocabSize returns the number of words in the model.
func (m *Model) VocabSize() int { return len(m.words) }

// Contains reports whether w is in the vocabulary.
func (m *Model) Contains(w string) bool {
	_, ok := m.vocab[w]
	return ok
}

// Vector returns the embedding of w, or false if out of vocabulary. The
// returned slice aliases model state; callers must not mutate it.
func (m *Model) Vector(w string) ([]float64, bool) {
	id, ok := m.vocab[w]
	if !ok {
		return nil, false
	}
	return m.in[id], true
}

// Similarity returns the cosine similarity of two words, or an error if
// either is out of vocabulary.
func (m *Model) Similarity(a, b string) (float64, error) {
	va, ok := m.Vector(a)
	if !ok {
		return 0, fmt.Errorf("word2vec: %q not in vocabulary", a)
	}
	vb, ok := m.Vector(b)
	if !ok {
		return 0, fmt.Errorf("word2vec: %q not in vocabulary", b)
	}
	return cosine(va, vb), nil
}

func cosine(a, b []float64) float64 {
	return cosineNorms(dot(a, b), dot(a, a), dot(b, b))
}

// cosineNorms is the cosine of two vectors from their dot product and
// squared norms, 0 if either is the zero vector.
func cosineNorms(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Neighbor is a word with its cosine similarity to a query.
type Neighbor struct {
	Word string
	Sim  float64
}

// Nearest returns the k nearest vocabulary words to w by cosine
// similarity, excluding w itself. It returns nil if w is out of
// vocabulary.
func (m *Model) Nearest(w string, k int) []Neighbor {
	vw, ok := m.Vector(w)
	if !ok {
		return nil
	}
	return m.nearestVec(vw, k, m.vocab[w])
}

// before is Nearest's order: similarity descending, then word.
func before(a, b Neighbor) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.Word < b.Word
}

// nearestVec selects the k words before all others in before's order,
// keeping the best k seen so far in a heap whose root is the last of
// them, and returns them sorted.
func (m *Model) nearestVec(v []float64, k, exclude int) []Neighbor {
	m.normsOnce.Do(func() {
		m.norms = make([]float64, len(m.in))
		for i, u := range m.in {
			m.norms[i] = dot(u, u)
		}
	})
	k = min(k, len(m.words))
	if k <= 0 {
		return []Neighbor{}
	}
	nv := dot(v, v)
	top := make([]Neighbor, 0, k)
	for i, word := range m.words {
		if i == exclude {
			continue
		}
		nb := Neighbor{word, cosineNorms(dot(v, m.in[i]), nv, m.norms[i])}
		switch {
		case len(top) < k:
			top = append(top, nb)
			for j := len(top) - 1; j > 0; {
				p := (j - 1) / 2
				if !before(top[p], top[j]) {
					break
				}
				top[p], top[j] = top[j], top[p]
				j = p
			}
		case before(nb, top[0]):
			top[0] = nb
			for j := 0; ; {
				c := 2*j + 1
				if c >= k {
					break
				}
				if c+1 < k && before(top[c], top[c+1]) {
					c++
				}
				if !before(top[j], top[c]) {
					break
				}
				top[j], top[c] = top[c], top[j]
				j = c
			}
		}
	}
	sort.Slice(top, func(a, b int) bool { return before(top[a], top[b]) })
	return top
}

// Words returns the vocabulary ordered by descending frequency.
func (m *Model) Words() []string { return append([]string(nil), m.words...) }

// Count returns the corpus frequency of w (0 if out of vocabulary).
func (m *Model) Count(w string) int {
	id, ok := m.vocab[w]
	if !ok {
		return 0
	}
	return m.counts[id]
}
