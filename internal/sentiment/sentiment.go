// Package sentiment implements a multinomial Naive Bayes sentiment
// scorer over segmented comment words — the stand-in for the SnowNLP
// pre-trained model the paper's semantic analyzer uses. Scores are
// P(positive|comment) in [0, 1]; the paper reads fraud items' comments
// concentrating near 1 and normal items' near 0.7 (Fig 1).
package sentiment

import (
	"errors"
	"math"
)

// Model is a fitted two-class multinomial NB sentiment model.
type Model struct {
	logPrior [2]float64 // 0 = negative, 1 = positive
	logLik   [2]map[string]float64
	logOOV   [2]float64 // smoothed likelihood for unseen words
	fitted   bool
}

// ErrNoTraining is returned by Train when a polarity class is empty.
var ErrNoTraining = errors.New("sentiment: need at least one document per polarity")

// Train fits the model on segmented documents with binary polarity
// labels (1 = positive, 0 = negative), using Laplace smoothing.
func Train(docs [][]string, labels []int) (*Model, error) {
	if len(docs) != len(labels) {
		return nil, errors.New("sentiment: docs/labels length mismatch")
	}
	var docCount [2]int
	var wordTotal [2]float64
	counts := [2]map[string]float64{{}, {}}
	vocab := map[string]struct{}{}
	for i, doc := range docs {
		c := labels[i]
		if c != 0 && c != 1 {
			return nil, errors.New("sentiment: labels must be 0 or 1")
		}
		docCount[c]++
		for _, w := range doc {
			counts[c][w]++
			wordTotal[c]++
			vocab[w] = struct{}{}
		}
	}
	if docCount[0] == 0 || docCount[1] == 0 {
		return nil, ErrNoTraining
	}
	m := &Model{fitted: true}
	total := float64(docCount[0] + docCount[1])
	v := float64(len(vocab))
	for c := 0; c < 2; c++ {
		m.logPrior[c] = math.Log(float64(docCount[c]) / total)
		m.logLik[c] = make(map[string]float64, len(counts[c]))
		denom := wordTotal[c] + v + 1
		for w, n := range counts[c] {
			m.logLik[c][w] = math.Log((n + 1) / denom)
		}
		m.logOOV[c] = math.Log(1 / denom)
	}
	return m, nil
}

// Score returns P(positive|words). Empty input scores a neutral 0.5.
//
// This is the string-keyed form: two map lookups per word. The
// detection path does not call it — the feature extractor reads each
// word's log-odds term (EachWordLogOdds) into its ID-indexed table once
// and sums the same floats in the same order — so it stays as the
// reference the kernel is tested against.
func (m *Model) Score(words []string) float64 {
	logOdds := m.PriorLogOdds()
	for _, w := range words {
		l1, ok := m.logLik[1][w]
		if !ok {
			l1 = m.logOOV[1]
		}
		l0, ok := m.logLik[0][w]
		if !ok {
			l0 = m.logOOV[0]
		}
		logOdds += l1 - l0
	}
	return m.Squash(logOdds, len(words))
}

// PriorLogOdds is the value a document's log-odds sum starts from,
// before any word's term is added.
func (m *Model) PriorLogOdds() float64 { return m.logPrior[1] - m.logPrior[0] }

// OOVLogOdds is the term of a word unseen in training.
func (m *Model) OOVLogOdds() float64 { return m.logOOV[1] - m.logOOV[0] }

// EachWordLogOdds calls fn once per word seen in training, in no
// particular order, with the term that word adds to a document's
// log-odds: l1 − l0, each side falling back to its class's smoothed
// unseen-word likelihood exactly as Score does.
func (m *Model) EachWordLogOdds(fn func(word string, term float64)) {
	//lint:ignore map-range-determinism each word is visited once and its term depends on the word alone; callers index by word, never by visit order
	for w, l1 := range m.logLik[1] {
		l0, ok := m.logLik[0][w]
		if !ok {
			l0 = m.logOOV[0]
		}
		fn(w, l1-l0)
	}
	//lint:ignore map-range-determinism as above
	for w, l0 := range m.logLik[0] {
		if _, ok := m.logLik[1][w]; !ok {
			fn(w, m.logOOV[1]-l0)
		}
	}
}

// Squash turns a document's summed log-odds (PriorLogOdds plus one term
// per word, added in word order) over n words into P(positive). The sum
// is normalized by the square root of the word count before the
// logistic squash: long, consistently positive documents still saturate
// toward 1 (the behavior behind Fig 1's fraud-comment concentration
// near 1), while short or mixed documents stay graded instead of
// snapping to {0, 1} the way a raw Naive Bayes posterior would. An
// unfitted model and an empty document score a neutral 0.5.
//
//cats:hotpath
func (m *Model) Squash(logOdds float64, n int) float64 {
	if !m.fitted || n == 0 {
		return 0.5
	}
	norm := logOdds / (temperature * math.Sqrt(float64(n)))
	return 1 / (1 + math.Exp(-norm))
}

// temperature softens the logistic squash so a short, mildly positive
// comment scores ~0.7 rather than saturating — only long, consistently
// polar documents approach 0 or 1. Calibrated against the paper's
// Fig 1 (normal comments concentrate near 0.7, fraud near 1).
const temperature = 3.2

// Classify returns 1 (positive) when Score >= 0.5, else 0.
func (m *Model) Classify(words []string) int {
	if m.Score(words) >= 0.5 {
		return 1
	}
	return 0
}

// VocabSize returns the number of distinct words seen in training.
func (m *Model) VocabSize() int {
	seen := map[string]struct{}{}
	for c := 0; c < 2; c++ {
		for w := range m.logLik[c] {
			seen[w] = struct{}{}
		}
	}
	return len(seen)
}
