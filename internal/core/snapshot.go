package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/colfmt"
	"repro/internal/features"
	"repro/internal/lexicon"
	"repro/internal/ml/gbt"
	"repro/internal/sentiment"
	"repro/internal/tokenize"
	"repro/internal/word2vec"
)

// snapshotVersion is bumped on incompatible format changes.
const snapshotVersion = 1

// AnalyzerSnapshot is the JSON-serializable form of a trained semantic
// analyzer: the segmenter dictionary, the expanded lexicons, the
// sentiment model, and (optionally) the word2vec embeddings.
type AnalyzerSnapshot struct {
	Vocabulary []string            `json:"vocabulary"`
	Positive   []string            `json:"positive"`
	Negative   []string            `json:"negative"`
	Sentiment  *sentiment.Snapshot `json:"sentiment"`
	Embedding  *word2vec.Snapshot  `json:"embedding,omitempty"`
}

// Snapshot captures the analyzer. The segmenter dictionary cannot be
// read back out of a Segmenter, so the caller supplies the vocabulary
// it was built with.
func (a *Analyzer) Snapshot(vocabulary []string) (*AnalyzerSnapshot, error) {
	if a.Positive == nil || a.Negative == nil || a.Sentiment == nil {
		return nil, errors.New("core: analyzer incomplete; cannot snapshot")
	}
	sent, err := a.Sentiment.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot sentiment: %w", err)
	}
	s := &AnalyzerSnapshot{
		Vocabulary: append([]string(nil), vocabulary...),
		Positive:   a.Positive.Words(),
		Negative:   a.Negative.Words(),
		Sentiment:  sent,
	}
	if a.Embedding != nil {
		s.Embedding = a.Embedding.Snapshot()
	}
	return s, nil
}

// AnalyzerFromSnapshot reconstructs an analyzer.
func AnalyzerFromSnapshot(s *AnalyzerSnapshot) (*Analyzer, error) {
	if s == nil {
		return nil, errors.New("core: nil analyzer snapshot")
	}
	sent, err := sentiment.FromSnapshot(s.Sentiment)
	if err != nil {
		return nil, fmt.Errorf("core: restore sentiment: %w", err)
	}
	a := &Analyzer{
		Segmenter: tokenize.NewSegmenter(s.Vocabulary),
		Positive:  lexicon.NewSet(s.Positive),
		Negative:  lexicon.NewSet(s.Negative),
		Sentiment: sent,
	}
	if s.Embedding != nil {
		emb, err := word2vec.FromSnapshot(s.Embedding)
		if err != nil {
			return nil, fmt.Errorf("core: restore embedding: %w", err)
		}
		a.Embedding = emb
	}
	return a, nil
}

// DetectorSnapshot is the JSON-serializable form of a trained detector
// (analyzer + rule-filter settings + the fitted boosted-tree model).
type DetectorSnapshot struct {
	Version  int               `json:"version"`
	Analyzer *AnalyzerSnapshot `json:"analyzer"`
	Config   DetectorConfig    `json:"config"`
	GBT      *gbt.Snapshot     `json:"gbt"`
	// TrainingSample is the drift baseline: a bounded sample of
	// training feature vectors, so deployments restored from the
	// snapshot can monitor traffic drift.
	TrainingSample [][]float64 `json:"training_sample,omitempty"`
}

// Snapshot captures a trained detector. vocabulary is the segmenter
// dictionary the analyzer was built with.
func (d *Detector) Snapshot(vocabulary []string, a *Analyzer) (*DetectorSnapshot, error) {
	if !d.trained {
		return nil, ErrNotTrained
	}
	gs, err := d.clf.Snapshot()
	if err != nil {
		return nil, err
	}
	as, err := a.Snapshot(vocabulary)
	if err != nil {
		return nil, err
	}
	return &DetectorSnapshot{
		Version:        snapshotVersion,
		Analyzer:       as,
		Config:         d.cfg,
		GBT:            gs,
		TrainingSample: d.trainSample,
	}, nil
}

// DetectorFromSnapshot reconstructs a trained detector and its
// analyzer.
func DetectorFromSnapshot(s *DetectorSnapshot) (*Detector, *Analyzer, error) {
	if s == nil {
		return nil, nil, errors.New("core: nil detector snapshot")
	}
	if s.Version != snapshotVersion {
		return nil, nil, fmt.Errorf("core: snapshot version %d unsupported (want %d)", s.Version, snapshotVersion)
	}
	a, err := AnalyzerFromSnapshot(s.Analyzer)
	if err != nil {
		return nil, nil, err
	}
	clf, err := gbt.FromSnapshot(s.GBT)
	if err != nil {
		return nil, nil, err
	}
	// The trees index the extractor's vectors: a model over any other
	// feature count would read past them at detection time.
	if n := len(s.GBT.SplitCount); n != features.NumFeatures {
		return nil, nil, fmt.Errorf("core: snapshot model has %d features, the extractor produces %d", n, features.NumFeatures)
	}
	d := &Detector{
		cfg:         s.Config.withDefaults(),
		extractor:   a.Extractor(),
		clf:         clf,
		trained:     true,
		trainSample: s.TrainingSample,
		m:           pipelineByTenant.For(DefaultTenant),
	}
	return d, a, nil
}

// SnapshotFormat selects the on-disk encoding of a detector snapshot.
type SnapshotFormat int

const (
	// FormatJSON is the row-oriented import/export codec: diffable,
	// editable, interoperable.
	FormatJSON SnapshotFormat = iota
	// FormatColumnar is the native binary codec (internal/colfmt):
	// column blocks over a shared string arena, built for fast loads
	// at corpus scale. ReadSnapshot accepts either transparently.
	FormatColumnar
)

// WriteSnapshot JSON-encodes a detector snapshot to w.
func WriteSnapshot(w io.Writer, s *DetectorSnapshot) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	return nil
}

// WriteSnapshotFormat encodes a detector snapshot in the chosen format.
func WriteSnapshotFormat(w io.Writer, s *DetectorSnapshot, f SnapshotFormat) error {
	switch f {
	case FormatJSON:
		return WriteSnapshot(w, s)
	case FormatColumnar:
		return WriteSnapshotColumnar(w, s)
	default:
		return fmt.Errorf("core: unknown snapshot format %d", f)
	}
}

// ReadSnapshot decodes a detector snapshot from r, sniffing the format
// from the leading magic bytes: columnar containers and JSON snapshots
// are both accepted, so every load path (cats.Load, registry.LoadFile,
// catsserve -models) handles either transparently. Reads are buffered
// here, so callers can hand over a bare *os.File without the decoder
// issuing small reads against it.
//
// Decode failures are diagnosable from the error alone: JSON errors
// carry the byte offset the decoder died at and the snapshot version
// when the stream got far enough to reveal one; columnar errors carry
// the format version, block name, and byte offset (colfmt.Error) — the
// detail a failed tenant reload surfaces in its /admin/reload response
// body.
func ReadSnapshot(r io.Reader) (*DetectorSnapshot, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	prefix, _ := br.Peek(4)
	if colfmt.Sniff(prefix) {
		return readSnapshotColumnar(br)
	}
	var s DetectorSnapshot
	dec := json.NewDecoder(br)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decode snapshot (%s): %w", decodeFailureDetail(dec, err, s.Version), err)
	}
	return &s, nil
}

// decodeFailureDetail renders where and in what a snapshot decode died:
// the most precise byte offset the error carries (syntax and type
// errors record their own; anything else falls back to the decoder's
// read position) and the partially-decoded snapshot version, 0 when the
// stream broke before the version field.
func decodeFailureDetail(dec *json.Decoder, err error, version int) string {
	offset := dec.InputOffset()
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		offset = syn.Offset
	case errors.As(err, &typ):
		offset = typ.Offset
	}
	if version == 0 {
		return fmt.Sprintf("snapshot version unknown, byte offset %d", offset)
	}
	return fmt.Sprintf("snapshot version %d, byte offset %d", version, offset)
}
