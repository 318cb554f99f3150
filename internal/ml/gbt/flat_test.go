package gbt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ml"
)

func flatTestDataset(n, nf int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &ml.Dataset{}
	for i := 0; i < n; i++ {
		row := make([]float64, nf)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(i%2)
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, i%2)
	}
	return ds
}

// wireWalk is the test-only reference for the flat walk: it follows x
// through one tree in its wire form (NodeDTO, per-tree child indices —
// a different encoding from the shared flat slice), returning the leaf
// weight and adding each consulted feature to counts.
func wireWalk(tree []NodeDTO, x []float64, counts []int) float64 {
	n := tree[0]
	for !n.Leaf {
		counts[n.Feature]++
		if x[n.Feature] <= n.Threshold {
			n = tree[n.Left]
		} else {
			n = tree[n.Right]
		}
	}
	return n.Weight
}

// TestFlatMatchesWireWalk: on seeded random vectors the flat ensemble's
// staged margin at every tree count, its batch probabilities and its
// decision-path counts must equal, bit for bit, an independent walk
// over Snapshot().Trees.
func TestFlatMatchesWireWalk(t *testing.T) {
	ds := flatTestDataset(400, 7, 3)
	c := New(Config{Rounds: 40, MaxDepth: 4, Subsample: 0.8, ColSample: 0.6, Seed: 5})
	if err := c.Fit(ds); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Trees) != c.NumTrees() || c.NumTrees() != 40 {
		t.Fatalf("snapshot has %d trees, model %d, want 40", len(snap.Trees), c.NumTrees())
	}
	X := flatTestDataset(200, 7, 77).X // vectors the model never saw
	probas := c.PredictProbaBatch(X, nil)
	for i, x := range X {
		counts := make([]int, len(snap.SplitCount))
		m := snap.BaseScore
		for n := 0; ; n++ {
			if got := c.PredictProbaAt(x, n); math.Float64bits(got) != math.Float64bits(sigmoid(m)) {
				t.Fatalf("row %d staged n=%d: flat %v != wire %v", i, n, got, sigmoid(m))
			}
			if n == len(snap.Trees) {
				break
			}
			m += snap.Config.LearningRate * wireWalk(snap.Trees[n], x, counts)
		}
		if got := c.PredictMargin(x); math.Float64bits(got) != math.Float64bits(m) {
			t.Fatalf("row %d: flat margin %v != wire margin %v", i, got, m)
		}
		if math.Float64bits(probas[i]) != math.Float64bits(sigmoid(m)) {
			t.Fatalf("row %d: batch proba %v != wire %v", i, probas[i], sigmoid(m))
		}
		path, err := c.DecisionPathFeatures(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range path {
			if e.Splits != counts[e.Index] {
				t.Fatalf("row %d: feature %d consulted %d times, wire walk says %d", i, e.Index, e.Splits, counts[e.Index])
			}
		}
	}
}

// TestPredictBatchMatchesSingle: batch prediction must be bit-identical
// to per-row calls, for both margins and probabilities, with and
// without a caller-provided output buffer.
func TestPredictBatchMatchesSingle(t *testing.T) {
	ds := flatTestDataset(300, 5, 9)
	c := New(Config{Rounds: 25, MaxDepth: 3, Seed: 2})
	if err := c.Fit(ds); err != nil {
		t.Fatal(err)
	}
	margins := c.PredictMarginBatch(ds.X, nil)
	buf := make([]float64, len(ds.X))
	probas := c.PredictProbaBatch(ds.X, buf)
	if &probas[0] != &buf[0] {
		t.Fatal("PredictProbaBatch did not reuse the provided buffer")
	}
	for i, x := range ds.X {
		if margins[i] != c.PredictMargin(x) {
			t.Fatalf("row %d: batch margin %v != single %v", i, margins[i], c.PredictMargin(x))
		}
		if probas[i] != c.PredictProba(x) {
			t.Fatalf("row %d: batch proba %v != single %v", i, probas[i], c.PredictProba(x))
		}
	}
}

// TestSnapshotRoundTripFlat: a classifier rebuilt from its snapshot
// lays its trees out exactly as Fit did — it snapshots to the same
// value and predicts bit-identically.
func TestSnapshotRoundTripFlat(t *testing.T) {
	ds := flatTestDataset(200, 6, 4)
	c := New(Config{Rounds: 15, MaxDepth: 3, Seed: 8})
	if err := c.Fit(ds); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, again) {
		t.Fatal("Fit → Snapshot → FromSnapshot → Snapshot changed the snapshot")
	}
	for i, x := range ds.X {
		if got, want := back.PredictMargin(x), c.PredictMargin(x); got != want {
			t.Fatalf("row %d: snapshot margin %v != original %v", i, got, want)
		}
	}
}

// TestPredictZeroAlloc: single and batch prediction over the flat
// ensemble must not allocate (beyond a caller-provided buffer).
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ds := flatTestDataset(64, 6, 12)
	c := New(Config{Rounds: 20, MaxDepth: 4, Seed: 3})
	if err := c.Fit(ds); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(ds.X))
	allocs := testing.AllocsPerRun(50, func() {
		_ = c.PredictMargin(ds.X[0])
		_ = c.PredictProbaBatch(ds.X, out)
	})
	if allocs > 0 {
		t.Fatalf("prediction allocated %.1f times per run, want 0", allocs)
	}
}
