// Package lexicon implements the paper's lexicon-construction step
// (Section II-A.2): starting from a few seed words, iteratively search
// the k-nearest neighbors of the frontier in a trained word2vec model,
// accumulating similar words until a size cap is reached. This is how
// CATS builds its ~200-word positive set P and negative set N
// (Table I), discovering filter-evading homographs (好评 → 好坪/好平)
// along the way.
package lexicon

import (
	"errors"
	"sort"

	"repro/internal/word2vec"
)

// Config controls the expansion.
type Config struct {
	// K is the neighbor count per query word; <= 0 means 10.
	K int
	// MaxSize caps the lexicon ("for computation efficiency, we limit
	// the sizes of both the positive and the negative sets");
	// <= 0 means 200.
	MaxSize int
	// MinSim discards neighbors whose cosine similarity falls below
	// this threshold; 0 means 0.35.
	MinSim float64
	// MaxRounds bounds the number of frontier expansions;
	// <= 0 means 8.
	MaxRounds int
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 200
	}
	if c.MinSim == 0 {
		c.MinSim = 0.35
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 8
	}
	return c
}

// ErrNoSeeds is returned when no seed word is in the model vocabulary.
var ErrNoSeeds = errors.New("lexicon: no seed word found in model vocabulary")

// Expand grows a lexicon from seeds using iterative k-NN search over
// the embedding space. The result contains every in-vocabulary seed
// plus discovered neighbors, sorted for determinism, capped at
// cfg.MaxSize.
func Expand(m *word2vec.Model, seeds []string, cfg Config) ([]string, error) {
	cfg = cfg.withDefaults()
	visited := map[string]struct{}{}
	var result []string
	var frontier []string
	for _, s := range seeds {
		if !m.Contains(s) {
			continue
		}
		if _, ok := visited[s]; ok {
			continue
		}
		visited[s] = struct{}{}
		result = append(result, s)
		frontier = append(frontier, s)
	}
	if len(result) == 0 {
		return nil, ErrNoSeeds
	}

	for round := 0; round < cfg.MaxRounds && len(frontier) > 0 && len(result) < cfg.MaxSize; round++ {
		var next []string
		for _, w := range frontier {
			if len(result) >= cfg.MaxSize {
				break
			}
			for _, nb := range m.Nearest(w, cfg.K) {
				if nb.Sim < cfg.MinSim {
					break // Nearest is sorted descending
				}
				if _, ok := visited[nb.Word]; ok {
					continue
				}
				visited[nb.Word] = struct{}{}
				result = append(result, nb.Word)
				next = append(next, nb.Word)
				if len(result) >= cfg.MaxSize {
					break
				}
			}
		}
		frontier = next
	}
	sort.Strings(result)
	return result, nil
}

// Set is a membership-testable word set built from an expanded lexicon.
type Set struct {
	words map[string]struct{}
}

// NewSet builds a Set from words.
func NewSet(words []string) *Set {
	s := &Set{words: make(map[string]struct{}, len(words))}
	for _, w := range words {
		s.words[w] = struct{}{}
	}
	return s
}

// Contains reports membership. It hashes w; the feature extractor
// instead marks each member once in its ID-indexed word table (Each)
// and tests tokens by ID.
func (s *Set) Contains(w string) bool {
	_, ok := s.words[w]
	return ok
}

// Len returns the set size.
func (s *Set) Len() int { return len(s.words) }

// Each calls fn once per member, in no particular order.
func (s *Set) Each(fn func(w string)) {
	//lint:ignore map-range-determinism each member is visited once; callers index by word, never by visit order
	for w := range s.words {
		fn(w)
	}
}

// Words returns the sorted members.
func (s *Set) Words() []string {
	out := make([]string, 0, len(s.words))
	for w := range s.words {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Overlap returns |s ∩ other| — used by the experiments to score how
// much of the ground-truth lexicon the expansion recovered.
func (s *Set) Overlap(other []string) int {
	n := 0
	for _, w := range other {
		if s.Contains(w) {
			n++
		}
	}
	return n
}
