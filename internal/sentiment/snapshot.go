package sentiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Snapshot is the JSON-serializable form of a fitted sentiment model.
type Snapshot struct {
	LogPrior [2]float64 `json:"log_prior"`
	LogLik   [2]LogLik  `json:"log_lik"`
	LogOOV   [2]float64 `json:"log_oov"`
}

// LogLik is one class's smoothed word log-likelihoods as two parallel
// columns, Words in ascending byte order without repeats: the order a
// columnar snapshot stores them in and a model reads them in, so a load
// passes the columns through without building a map. In JSON it is the
// {"word": loglik} object it always was.
type LogLik struct {
	Words []string
	Vals  []float64
}

// MarshalJSON writes the object encoding/json writes for the same pairs
// in a map[string]float64: keys sorted, so the bytes are the same.
func (l LogLik) MarshalJSON() ([]byte, error) {
	if len(l.Words) != len(l.Vals) {
		return nil, fmt.Errorf("sentiment: %d words but %d log-likelihoods", len(l.Words), len(l.Vals))
	}
	m := make(map[string]float64, len(l.Words))
	for i, w := range l.Words {
		m[w] = l.Vals[i]
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads the object as a map does (a repeated key keeps
// its last value; null is empty) and sorts it into columns.
func (l *LogLik) UnmarshalJSON(b []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		// Not wrapped: the inner decoder's offsets are relative to this
		// object, not to the snapshot a caller reports them against.
		return fmt.Errorf("sentiment: log-likelihoods: %v", err)
	}
	l.Words = make([]string, 0, len(m))
	for w := range m {
		l.Words = append(l.Words, w)
	}
	slices.Sort(l.Words)
	l.Vals = make([]float64, len(l.Words))
	for i, w := range l.Words {
		l.Vals[i] = m[w]
	}
	return nil
}

// Sorted returns the columns with their words in ascending order and
// each word once, keeping a repeated word's last value, as filling a map
// in column order would. Columns already in that order (everything the
// writers produce) are returned as they are.
func (l LogLik) Sorted() LogLik {
	if strictlySorted(l.Words) {
		return l
	}
	idx := make([]int, len(l.Words))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return strings.Compare(l.Words[a], l.Words[b]) })
	var out LogLik
	for k, i := range idx {
		if k+1 < len(idx) && l.Words[idx[k+1]] == l.Words[i] {
			continue // a later occurrence of the word wins
		}
		out.Words = append(out.Words, l.Words[i])
		out.Vals = append(out.Vals, l.Vals[i])
	}
	return out
}

func strictlySorted(words []string) bool {
	for i := 1; i < len(words); i++ {
		if words[i-1] >= words[i] {
			return false
		}
	}
	return true
}

// Snapshot captures the fitted model; it returns an error before Train.
func (m *Model) Snapshot() (*Snapshot, error) {
	if !m.fitted {
		return nil, errors.New("sentiment: model not fitted")
	}
	s := &Snapshot{LogPrior: m.logPrior, LogOOV: m.logOOV}
	for c := 0; c < 2; c++ {
		s.LogLik[c] = LogLik{Words: slices.Clone(m.logLik[c].Words), Vals: slices.Clone(m.logLik[c].Vals)}
	}
	return s, nil
}

// FromSnapshot reconstructs a fitted model. The model keeps s's columns
// when they are already sorted (a restored model never writes to them);
// s must not be modified afterwards.
func FromSnapshot(s *Snapshot) (*Model, error) {
	if s == nil {
		return nil, errors.New("sentiment: nil snapshot")
	}
	m := &Model{logPrior: s.LogPrior, logOOV: s.LogOOV, fitted: true}
	for c := 0; c < 2; c++ {
		l := s.LogLik[c]
		if len(l.Words) != len(l.Vals) {
			return nil, fmt.Errorf("sentiment: class %d has %d words but %d log-likelihoods", c, len(l.Words), len(l.Vals))
		}
		m.logLik[c] = l.Sorted()
	}
	return m, nil
}
