package cats

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// SnapshotFormat selects a snapshot encoding: FormatJSON is the
// import/export codec, FormatColumnar the fast binary native one.
// Load and LoadFile sniff the format from the file's magic bytes, so
// either loads transparently.
type SnapshotFormat = core.SnapshotFormat

// Snapshot formats accepted by SaveFormat and SaveFileFormat.
const (
	FormatJSON     = core.FormatJSON
	FormatColumnar = core.FormatColumnar
)

// Save serializes the trained system (semantic analyzer, rule-filter
// settings, and the fitted boosted-tree classifier) as JSON.
// vocabulary must be the segmenter dictionary used at Train time
// (s.Vocabulary() for a trained or loaded system).
func (s *System) Save(w io.Writer, vocabulary []string) error {
	return s.SaveFormat(w, vocabulary, FormatJSON)
}

// SaveFormat is Save with an explicit snapshot format.
func (s *System) SaveFormat(w io.Writer, vocabulary []string, f SnapshotFormat) error {
	snap, err := s.detector.Snapshot(vocabulary, s.analyzer)
	if err != nil {
		return fmt.Errorf("cats: save: %w", err)
	}
	if err := core.WriteSnapshotFormat(w, snap, f); err != nil {
		return fmt.Errorf("cats: save: %w", err)
	}
	return nil
}

// SaveFile saves the system to path as JSON (see SaveFileFormat).
func (s *System) SaveFile(path string, vocabulary []string) error {
	return s.SaveFileFormat(path, vocabulary, FormatJSON)
}

// SaveFileFormat saves the system to path in the chosen format. The
// write is atomic: the snapshot lands in a temporary file in path's
// directory, is fsynced, and only then renamed over path — so a crash
// mid-save can never leave a truncated model where a serving reload (or
// the next boot) would pick it up — and the directory is fsynced after
// the rename, so a save that returned nil survives a crash. On a failure
// before the rename the temporary file is removed and path is untouched;
// one after it leaves the new snapshot in place, not yet known durable.
func (s *System) SaveFileFormat(path string, vocabulary []string, format SnapshotFormat) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("cats: save: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := s.SaveFormat(bw, vocabulary, format); err != nil {
		return cleanup(err)
	}
	if err := bw.Flush(); err != nil {
		return cleanup(fmt.Errorf("cats: save: flush %s: %w", tmp, err))
	}
	// Flush to stable storage before the rename publishes the file:
	// rename-over is only crash-safe when the new bytes are durable.
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("cats: save: sync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cats: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cats: save: %w", err)
	}
	// The rename is an edit of the directory: it is durable once the
	// directory is.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("cats: save: sync directory: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("cats: save: sync directory: %w", err)
	}
	return nil
}

// Load reconstructs a trained system saved with Save or SaveFormat:
// the snapshot format (JSON or columnar) is sniffed from the leading
// magic bytes and reads are buffered internally. The restored system
// detects immediately; no retraining is needed. It keeps the snapshot's
// vocabulary (Vocabulary), so saving it again writes the dictionary it
// was loaded with.
func Load(r io.Reader) (*System, error) {
	snap, err := core.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("cats: load: %w", err)
	}
	det, analyzer, err := core.DetectorFromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("cats: load: %w", err)
	}
	return &System{analyzer: analyzer, detector: det, vocabulary: snap.Analyzer.Vocabulary}, nil
}

// LoadFile loads a system from path (see Load).
func LoadFile(path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cats: load: %w", err)
	}
	defer f.Close()
	return Load(f)
}
