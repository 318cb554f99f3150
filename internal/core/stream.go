package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/ecom"
)

// StreamStats summarizes a streaming detection run.
type StreamStats struct {
	Items    int
	Reported int
	Filtered int

	// Batches is the number of batches handed to emit. ReadSeconds,
	// ScoreSeconds and EmitSeconds are the time each stage spent
	// working (not waiting for a neighbour): the largest names the
	// bottleneck, and their sum exceeds the run's wall time by what the
	// stages overlapped.
	Batches      int
	ReadSeconds  float64
	ScoreSeconds float64
	EmitSeconds  float64
}

// StreamOptions tunes DetectStream.
type StreamOptions struct {
	// BatchSize is the number of items scored per flush; <= 0 means 1024.
	BatchSize int
	// Workers bounds per-batch scoring parallelism; <= 0 means
	// GOMAXPROCS.
	Workers int
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 1024
	}
	return o
}

// streamDepth is the number of batches a DetectStream run owns: one
// being read, one being scored, one being emitted. It is a constant
// because the stages are three; a deeper pipeline would only queue
// batches behind the slowest stage and raise the resident set by a
// batch's chunk each.
const streamDepth = 3

// streamBatch is the unit the stages hand each other. The run's
// streamDepth batches are allocated once and recycled, so a batch's
// items are overwritten by a later read. A batch's items grow with what
// is read into it, up to BatchSize: a 16-item job never makes room for
// 1,024.
type streamBatch struct {
	items []ecom.Item // projected (dataset.Reader.NextTexts)
	dets  []Detection // dets[i] scores items[i]; set by the score stage
	// end is non-nil on the stream's last batch: io.EOF when the input
	// ended cleanly after items, else the error that stopped the stage
	// that set it (which also dropped the batch's items).
	end error
}

// streamRun is one DetectStream call. Each field of stats is written by
// the one goroutine running the stage it describes and read after that
// goroutine has exited.
type streamRun struct {
	d     *Detector
	r     *dataset.Reader
	opts  StreamOptions
	emit  func(*ecom.Item, Detection) error
	stats StreamStats
}

// DetectStream scores items from a dataset reader (JSONL or columnar;
// the reader sniffs which) without materializing the dataset: items are
// read in batches, each batch runs through the fused
// filter→feature→score pipeline in parallel, and each detection is
// handed to emit in input order. This is the path for full-scale runs
// (the paper's D1 has 1.48M items and 72M comments — far beyond
// comfortable in-memory slices).
//
// The three stages overlap: while batch k is being scored, a reader
// goroutine fills batch k+1 and batch k−1 is emitted. emit always runs
// on the calling goroutine, one call at a time, so it needs no
// synchronization of its own. At most streamDepth batches exist at any
// moment, which bounds the resident set the way the batch size did
// before the stages overlapped. An input that ends inside its first
// batch is read, scored and emitted on the calling goroutine and starts
// no goroutine. On every return path the stage goroutines have exited
// and r.Next is not running.
//
// The input is read projected (dataset.Reader.NextTexts, so r must not
// have been read through Next): the detector uses nothing of a comment
// but its text, and on both formats emit receives the item's ID,
// ShopID, Name, Category, PriceCents, SalesVolume, Label and Texts, with
// Comments == nil. The read is told whose text will be read at all
// (readsText): the sales cutoff, the paper's stage one, is applied inside
// the decode, and an item under it comes with Texts nil (on JSONL never
// materialized).
//
// Cancellation of ctx aborts between (and within) batches with the
// context's error. emit must not retain the item pointer or anything
// it reaches past its call: the batch is recycled for a later read. A
// non-nil error from emit aborts the stream; a read error aborts it
// after every full batch read before it has been emitted, and so does
// a panic in the read or score stage, returned as an error naming the
// stage: the caller could not recover it from the stage's goroutine.
func (d *Detector) DetectStream(ctx context.Context, r *dataset.Reader, opts StreamOptions, emit func(*ecom.Item, Detection) error) (StreamStats, error) {
	if !d.trained {
		return StreamStats{}, ErrNotTrained
	}
	s := &streamRun{d: d, r: r, opts: opts.withDefaults(), emit: emit}
	err := s.run(ctx)
	return s.stats, err
}

func (s *streamRun) run(ctx context.Context) error {
	first := new(streamBatch)
	s.fill(first)
	if first.end != nil {
		// The whole input fits one batch: nothing to overlap.
		s.score(ctx, first)
		return finish(ctx, s.emitAll(first))
	}
	return finish(ctx, s.overlap(ctx, first))
}

// overlap runs the three stages over the input that follows first, a
// full batch already read, and returns what ended the emit loop: a
// batch's end, emit's error, or nil when the stages stopped without
// handing over a last batch.
func (s *streamRun) overlap(ctx context.Context, first *streamBatch) error {
	ctx, cancel := context.WithCancel(ctx) // stops the stages when emit fails
	// Capacity 1 lets a stage hand its batch over and start the next
	// while its neighbour is still busy; free holds every batch not in
	// a stage's hands, so no send on it ever blocks.
	filled := make(chan *streamBatch, 1)
	scored := make(chan *streamBatch, 1)
	free := make(chan *streamBatch, streamDepth)
	filled <- first
	for i := 1; i < streamDepth; i++ {
		free <- new(streamBatch)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // read stage
		defer wg.Done()
		defer close(filled)
		for {
			var b *streamBatch
			select {
			case b = <-free:
			case <-ctx.Done():
				return
			}
			s.fill(b)
			last := b.end != nil // b is the next stage's once sent
			select {
			case filled <- b:
			case <-ctx.Done():
				return
			}
			if last {
				return
			}
		}
	}()
	go func() { // score stage
		defer wg.Done()
		defer close(scored)
		for b := range filled {
			s.score(ctx, b)
			last := b.end != nil
			select {
			case scored <- b:
			case <-ctx.Done():
				return
			}
			if last {
				return
			}
		}
	}()

	var end error
	for b := range scored {
		if end = s.emitAll(b); end != nil {
			break
		}
		// Drop what was emitted before the batch waits for its next
		// read: every item and detection keeps its columnar chunk (or
		// its JSONL arena blocks) reachable, and a waiting batch
		// would hold them for as long as the slowest stage takes to
		// come round.
		clear(b.items)
		b.dets = nil
		free <- b
	}
	// Stop the stages and wait for them: after this no goroutine of
	// this run is left and the reader is not inside Next.
	cancel()
	wg.Wait()
	return end
}

// finish turns the condition that ended the emit loop into
// DetectStream's error: nil after a clean end of input, the caller's
// context's error when the stages stopped without handing over a last
// batch (only its cancellation does that), else the stage's error.
func finish(ctx context.Context, end error) error {
	switch {
	case end == io.EOF:
		return nil
	case end == nil:
		return ctx.Err()
	}
	return end
}

// contain, deferred by a stage's step over b, turns a panic in it into
// the stream's end: b drops its items and carries the panic and stack.
func contain(stage string, b *streamBatch) {
	if p := recover(); p != nil {
		b.items, b.end = b.items[:0], fmt.Errorf("core: stream %s stage panicked: %v\n%s", stage, p, debug.Stack())
	}
}

// fill reads up to BatchSize items into b. A read error drops the
// partial batch, as the serial loop did: only full batches read before
// the failure are scored.
func (s *streamRun) fill(b *streamBatch) {
	defer contain("read", b)
	start := time.Now()
	b.items = b.items[:0]
	keep := s.d.readsText // bound once: a method value allocates
	for len(b.items) < s.opts.BatchSize {
		item, err := s.r.NextTexts(keep)
		if errors.Is(err, io.EOF) {
			b.end = io.EOF
			break
		}
		if err != nil {
			b.items, b.end = b.items[:0], fmt.Errorf("core: stream read: %w", err)
			break
		}
		if len(b.items) == cap(b.items) {
			// Double, from 16, but never past BatchSize: append's own
			// growth would overshoot it.
			grown := make([]ecom.Item, len(b.items), min(max(2*cap(b.items), 16), s.opts.BatchSize))
			copy(grown, b.items)
			b.items = grown
		}
		b.items = append(b.items, *item)
	}
	s.stats.ReadSeconds += time.Since(start).Seconds()
}

// score runs b's items through the detector, or on failure drops them
// and ends the stream with the error.
func (s *streamRun) score(ctx context.Context, b *streamBatch) {
	if len(b.items) == 0 {
		return
	}
	defer contain("score", b)
	start := time.Now()
	var err error
	if b.dets, _, err = s.d.scoreBatch(ctx, b.items, s.opts.Workers); err != nil {
		b.items, b.end = b.items[:0], err
	}
	s.stats.ScoreSeconds += time.Since(start).Seconds()
}

// emitAll hands b's detections to emit in order and returns what ends
// the stream after them, if anything: emit's error, or b.end.
func (s *streamRun) emitAll(b *streamBatch) error {
	if len(b.items) == 0 {
		return b.end
	}
	start := time.Now()
	defer func() { s.stats.EmitSeconds += time.Since(start).Seconds() }()
	s.stats.Batches++
	for i := range b.items {
		s.stats.Items++
		if b.dets[i].Filtered {
			s.stats.Filtered++
		}
		if b.dets[i].IsFraud {
			s.stats.Reported++
		}
		if err := s.emit(&b.items[i], b.dets[i]); err != nil {
			return fmt.Errorf("core: emit: %w", err)
		}
	}
	return b.end
}
