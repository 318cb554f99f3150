package word2vec

import (
	"errors"
	"fmt"
)

// Snapshot is the JSON-serializable inference view of a trained model:
// the vocabulary with frequencies and the input embeddings. It supports
// Vector/Similarity/Nearest on restore; further training is not
// supported on a restored model.
type Snapshot struct {
	Dim     int         `json:"dim"`
	Words   []string    `json:"words"`
	Counts  []int       `json:"counts"`
	Vectors [][]float64 `json:"vectors"`
}

// Snapshot captures the model's embeddings.
func (m *Model) Snapshot() *Snapshot {
	s := &Snapshot{
		Dim:    m.dim,
		Words:  append([]string(nil), m.words...),
		Counts: append([]int(nil), m.counts...),
	}
	s.Vectors = make([][]float64, len(m.in))
	for i, v := range m.in {
		s.Vectors[i] = append([]float64(nil), v...)
	}
	return s
}

// FromSnapshot reconstructs an inference-only model. The model keeps
// s's vectors rather than copying them (a restored model never writes
// to them); s must not be modified afterwards.
func FromSnapshot(s *Snapshot) (*Model, error) {
	if s == nil {
		return nil, errors.New("word2vec: nil snapshot")
	}
	if s.Dim < 1 {
		return nil, fmt.Errorf("word2vec: snapshot dim %d, want at least 1", s.Dim)
	}
	if len(s.Words) != len(s.Vectors) || len(s.Words) != len(s.Counts) {
		return nil, fmt.Errorf("word2vec: snapshot shape mismatch: %d words, %d counts, %d vectors",
			len(s.Words), len(s.Counts), len(s.Vectors))
	}
	m := &Model{
		dim:    s.Dim,
		vocab:  make(map[string]int, len(s.Words)),
		words:  append([]string(nil), s.Words...),
		counts: append([]int(nil), s.Counts...),
	}
	for i, v := range s.Vectors {
		if len(v) != s.Dim {
			return nil, fmt.Errorf("word2vec: vector %d has dim %d, want %d", i, len(v), s.Dim)
		}
		m.vocab[s.Words[i]] = i
	}
	m.in = s.Vectors
	return m, nil
}
