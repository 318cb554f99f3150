package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/ecom"
	"repro/internal/synth"
	"repro/internal/textgen"
)

// The DetectStream pipeline's contract: order, error paths, which
// goroutine runs emit, what is left behind on return, and how far the
// read stage may run ahead. The tests share one detector (detection
// never mutates it) so that -race -count=10 stays cheap.

var pipelineDetector = sync.OnceValues(func() (*Detector, error) {
	texts, labels := synth.PolarCorpus(600, 21)
	bank := textgen.NewBank()
	a, err := OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		return nil, err
	}
	train := synth.Generate(synth.Config{
		Name: "train", Seed: 22, FraudEvidence: 60, FraudManual: 10, Normal: 90, Shops: 6,
	})
	d := NewDetector(a, DetectorConfig{})
	return d, d.Train(&train.Dataset, 0)
})

func sharedDetector(t *testing.T) *Detector {
	t.Helper()
	d, err := pipelineDetector()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func encodeItems(t *testing.T, items []ecom.Item, format dataset.Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := dataset.NewWriterFormat(&buf, format)
	for i := range items {
		if err := w.Write(&items[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyItems are n one-comment items whose JSONL lines are far shorter
// than any buffer between the file and the decoder.
func tinyItems(n int) []ecom.Item {
	items := make([]ecom.Item, n)
	for i := range items {
		items[i] = ecom.Item{ID: fmt.Sprintf("t%03d", i), SalesVolume: 50,
			Comments: []ecom.Comment{{Content: "很好，满意！"}}}
	}
	return items
}

// lineReader hands out one line of its input per Read call, counts the
// calls, and notes any that arrive after the test declared the stream
// call returned. dataset.Reader asks for more only when it has no whole
// line left, so with lines shorter than its buffers Reads (less the
// final one that reports EOF) is the number of items the read stage has
// pulled.
type lineReader struct {
	lines    [][]byte
	failAt   int // Read number (from 0) that fails with failErr; ignored when failErr is nil
	failErr  error
	reads    atomic.Int64
	returned atomic.Bool
	late     atomic.Int64
}

func newLineReader(data []byte) *lineReader {
	return &lineReader{lines: bytes.SplitAfter(data, []byte("\n"))}
}

func (l *lineReader) Read(p []byte) (int, error) {
	if l.returned.Load() {
		l.late.Add(1)
	}
	n := int(l.reads.Add(1)) - 1
	if l.failErr != nil && n >= l.failAt {
		return 0, l.failErr
	}
	if n >= len(l.lines) || len(l.lines[n]) == 0 {
		return 0, io.EOF
	}
	if len(p) < len(l.lines[n]) {
		panic("lineReader: line longer than the caller's buffer")
	}
	return copy(p, l.lines[n]), nil
}

// goid is the running goroutine's id, read off its stack header
// ("goroutine 12 [running]:"); the runtime offers no other way to tell
// two goroutines apart, and a test is the one place that needs to.
func goid() string {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return fields[1]
}

// settleGoroutines waits for the goroutine count to come back to base:
// a goroutine that has called wg.Done is still counted until it has
// finished returning, so the count trails wg.Wait by an instant.
func settleGoroutines(t *testing.T, base int, path string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after DetectStream returned, %d before it", path, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestDetectStreamMatchesDetect: at every batch size and worker count,
// over both input formats, the stream emits Detect's detections for the
// same items, in input order, each with its own item.
func TestDetectStreamMatchesDetect(t *testing.T) {
	d := sharedDetector(t)
	items := fusedTestItems(t)
	n := len(items)
	want, err := d.Detect(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	for formatName, format := range map[string]dataset.Format{"jsonl": dataset.FormatJSONL, "columnar": dataset.FormatColumnar} {
		data := encodeItems(t, items, format)
		for _, bs := range []int{1, 7, 1024, n + 5} {
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s batch=%d workers=%d", formatName, bs, workers)
				var got []Detection
				stats, err := d.DetectStream(context.Background(), dataset.NewReader(bytes.NewReader(data)),
					StreamOptions{BatchSize: bs, Workers: workers},
					func(item *ecom.Item, det Detection) error {
						if item.ID != items[len(got)].ID || det.ItemID != item.ID {
							t.Fatalf("%s: emit %d got item %q with detection of %q, want %q", name, len(got), item.ID, det.ItemID, items[len(got)].ID)
						}
						got = append(got, det)
						return nil
					})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != n || stats.Items != n {
					t.Fatalf("%s: %d emits, stats.Items %d, want %d", name, len(got), stats.Items, n)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: detection %d: stream %+v, Detect %+v", name, i, got[i], want[i])
					}
				}
				if wantBatches := (n + bs - 1) / bs; stats.Batches != wantBatches {
					t.Fatalf("%s: stats.Batches = %d, want %d", name, stats.Batches, wantBatches)
				}
				if stats.ReadSeconds <= 0 || stats.ScoreSeconds <= 0 || stats.EmitSeconds < 0 {
					t.Fatalf("%s: a working stage reports no busy time: %+v", name, stats)
				}
			}
		}
	}
}

// TestDetectStreamReadErrorAfterFullBatches: a reader that fails inside
// batch k+1 yields exactly the k full batches before it, in order, then
// the read error, wrapped — with k = 0 (the failure is inside the first
// batch, so no stage goroutine exists) as with k = 3.
func TestDetectStreamReadErrorAfterFullBatches(t *testing.T) {
	d := sharedDetector(t)
	const bs = 8
	items := tinyItems(5 * bs)
	broken := errors.New("disk fell off")
	for _, k := range []int{0, 3} {
		lr := newLineReader(encodeItems(t, items, dataset.FormatJSONL))
		lr.failAt, lr.failErr = k*bs+3, broken
		emitted := 0
		stats, err := d.DetectStream(context.Background(), dataset.NewReader(lr), StreamOptions{BatchSize: bs, Workers: 2},
			func(item *ecom.Item, _ Detection) error {
				if item.ID != items[emitted].ID {
					t.Fatalf("k=%d: emit %d is %q, want %q", k, emitted, item.ID, items[emitted].ID)
				}
				emitted++
				return nil
			})
		if !errors.Is(err, broken) || !strings.HasPrefix(err.Error(), "core: stream read: ") {
			t.Fatalf("k=%d: err = %v, want the reader's error wrapped as a stream read error", k, err)
		}
		if emitted != k*bs || stats.Items != k*bs || stats.Batches != k {
			t.Fatalf("k=%d: %d emits, stats %+v; want exactly %d items in %d batches", k, emitted, stats, k*bs, k)
		}
	}
}

// TestDetectStreamEmitErrorStopsEmits: once emit fails it is never
// called again, and its error comes back wrapped.
func TestDetectStreamEmitErrorStopsEmits(t *testing.T) {
	d := sharedDetector(t)
	data := encodeItems(t, tinyItems(60), dataset.FormatJSONL)
	sentinel := errors.New("downstream full")
	for _, failOn := range []int{1, 20, 60} {
		calls := 0
		_, err := d.DetectStream(context.Background(), dataset.NewReader(bytes.NewReader(data)), StreamOptions{BatchSize: 7, Workers: 2},
			func(*ecom.Item, Detection) error {
				calls++
				if calls == failOn {
					return sentinel
				}
				return nil
			})
		if !errors.Is(err, sentinel) || !strings.HasPrefix(err.Error(), "core: emit: ") {
			t.Fatalf("failOn=%d: err = %v, want emit's error wrapped", failOn, err)
		}
		if calls != failOn {
			t.Fatalf("failOn=%d: emit called %d times", failOn, calls)
		}
	}
}

// TestDetectStreamCancelMidStream: a context cancelled while the stages
// are running ends the stream with the context's error, short of the
// end of the input.
func TestDetectStreamCancelMidStream(t *testing.T) {
	d := sharedDetector(t)
	items := tinyItems(200)
	data := encodeItems(t, items, dataset.FormatJSONL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err := d.DetectStream(ctx, dataset.NewReader(bytes.NewReader(data)), StreamOptions{BatchSize: 7, Workers: 2},
		func(*ecom.Item, Detection) error {
			if emitted++; emitted == 10 {
				cancel()
			}
			return nil
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled itself", err)
	}
	if emitted >= len(items) {
		t.Fatalf("all %d items were emitted after a cancellation at the 10th", emitted)
	}
}

// TestDetectStreamEmitsOnCallingGoroutine: every emit runs on the
// goroutine that called DetectStream, whether or not the stages were
// started, so emit may touch the caller's state with no lock.
func TestDetectStreamEmitsOnCallingGoroutine(t *testing.T) {
	d := sharedDetector(t)
	data := encodeItems(t, tinyItems(100), dataset.FormatJSONL)
	for _, bs := range []int{7, 1024} {
		caller := goid()
		plain := 0 // written by emit, read here: the race detector watches it too
		_, err := d.DetectStream(context.Background(), dataset.NewReader(bytes.NewReader(data)), StreamOptions{BatchSize: bs, Workers: 2},
			func(*ecom.Item, Detection) error {
				if g := goid(); g != caller {
					t.Errorf("batch=%d: emit %d ran on goroutine %s, DetectStream was called on %s", bs, plain, g, caller)
				}
				plain++
				return nil
			})
		if err != nil || plain != 100 {
			t.Fatalf("batch=%d: %d emits, err %v", bs, plain, err)
		}
	}
}

// TestDetectStreamLeavesNothingRunning: on every way out — end of
// input, read error, emit error, cancellation, untrained detector — the
// stage goroutines are gone and the input is not read again.
func TestDetectStreamLeavesNothingRunning(t *testing.T) {
	d := sharedDetector(t)
	items := tinyItems(120)
	data := encodeItems(t, items, dataset.FormatJSONL)
	texts, labels := synth.PolarCorpus(200, 102)
	bank := textgen.NewBank()
	a, err := OracleAnalyzer(bank.Vocabulary(), bank.PositiveForms(), bank.Negative, texts, labels)
	if err != nil {
		t.Fatal(err)
	}
	untrained := NewDetector(a, DetectorConfig{})
	boom := errors.New("boom")

	// Each path stops the run its own way: the input fails at read
	// readFailAt, emit fails at call emitFailAt, or the context is
	// cancelled during emit call cancelAt (0 = never).
	paths := []struct {
		name                             string
		det                              *Detector
		readFailAt, emitFailAt, cancelAt int
		want                             error
	}{
		{name: "eof", det: d},
		{name: "read error", det: d, readFailAt: 50, want: boom},
		{name: "emit error", det: d, emitFailAt: 30, want: boom},
		{name: "cancel", det: d, cancelAt: 30, want: context.Canceled},
		{name: "untrained", det: untrained, want: ErrNotTrained},
	}
	for _, p := range paths {
		base := runtime.NumGoroutine()
		lr := newLineReader(data)
		if p.readFailAt > 0 {
			lr.failAt, lr.failErr = p.readFailAt, boom
		}
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		_, err := p.det.DetectStream(ctx, dataset.NewReader(lr), StreamOptions{BatchSize: 7, Workers: 2},
			func(*ecom.Item, Detection) error {
				switch n++; n {
				case p.emitFailAt:
					return boom
				case p.cancelAt:
					cancel()
				}
				return nil
			})
		lr.returned.Store(true)
		cancel()
		if !errors.Is(err, p.want) {
			t.Fatalf("%s: err = %v, want %v", p.name, err, p.want)
		}
		settleGoroutines(t, base, p.name)
		if late := lr.late.Load(); late != 0 {
			t.Fatalf("%s: %d reads of the input after DetectStream returned", p.name, late)
		}
	}
}

// TestDetectStreamHoldsAtMostThreeBatches: with emit stalled on the
// very first item, the read stage pulls exactly three batches' worth of
// items and then stops; afterwards it is never more than three batches
// ahead of emit.
func TestDetectStreamHoldsAtMostThreeBatches(t *testing.T) {
	d := sharedDetector(t)
	const bs, depth = 5, 3
	items := tinyItems(20 * bs)
	lr := newLineReader(encodeItems(t, items, dataset.FormatJSONL))
	emitted := 0
	_, err := d.DetectStream(context.Background(), dataset.NewReader(lr), StreamOptions{BatchSize: bs, Workers: 2},
		func(*ecom.Item, Detection) error {
			if emitted == 0 {
				// Hold the first batch until the stages behind it have
				// filled up, then give them every chance to overrun.
				deadline := time.Now().Add(5 * time.Second)
				for lr.reads.Load() < depth*bs {
					if time.Now().After(deadline) {
						t.Fatalf("read stage stopped %d items in; want it %d batches of %d ahead", lr.reads.Load(), depth, bs)
					}
					runtime.Gosched()
				}
				for i := 0; i < 1000; i++ {
					runtime.Gosched()
				}
			}
			if ahead := int(lr.reads.Load()) - emitted; ahead > depth*bs {
				t.Fatalf("emit %d: the read stage has pulled %d items, %d ahead; want at most %d batches of %d", emitted, lr.reads.Load(), ahead, depth, bs)
			}
			emitted++
			return nil
		})
	if err != nil || emitted != len(items) {
		t.Fatalf("%d emits, err %v", emitted, err)
	}
}
