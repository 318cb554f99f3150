package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// cancelAfter is a context that reports cancellation from its n-th Err
// call on. The batch fan-out consults Err once per claimed item, so
// this cancels deterministically in the middle of a batch.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestScoreBatchWorkersMatchSerial: the work-claiming fan-out returns
// the serial pass's detections and feature rows, bit for bit and in
// item order, at every worker count — and a cancellation in the middle
// of a batch returns the context's error and no partial result.
func TestScoreBatchWorkersMatchSerial(t *testing.T) {
	d, _ := trainedDetector(t, DetectorConfig{})
	items := fusedTestItems(t)
	ctx := context.Background()
	wantDets, wantX, err := d.scoreBatch(ctx, items, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if det, err := d.DetectItem(&items[i]); err != nil || det != wantDets[i] {
			t.Fatalf("item %d: serial batch %+v, batch of one %+v (%v)", i, wantDets[i], det, err)
		}
	}
	for _, workers := range []int{1, 2, 3, 8, len(items) + 5} {
		dets, X, err := d.scoreBatch(ctx, items, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range items {
			if dets[i] != wantDets[i] {
				t.Fatalf("workers=%d item %d: %+v, serial %+v", workers, i, dets[i], wantDets[i])
			}
			if len(X[i]) != len(wantX[i]) {
				t.Fatalf("workers=%d item %d: %d features, serial %d", workers, i, len(X[i]), len(wantX[i]))
			}
			for j := range X[i] {
				if math.Float64bits(X[i][j]) != math.Float64bits(wantX[i][j]) {
					t.Fatalf("workers=%d item %d feature %d: %v, serial %v", workers, i, j, X[i][j], wantX[i][j])
				}
			}
		}

		mid := &cancelAfter{Context: ctx, n: int64(len(items) / 2)}
		dets, X, err = d.scoreBatch(mid, items, workers)
		if !errors.Is(err, context.Canceled) || dets != nil || X != nil {
			t.Fatalf("workers=%d canceled mid-batch: err %v, %d detections, %d rows; want context.Canceled and none", workers, err, len(dets), len(X))
		}
	}
}
