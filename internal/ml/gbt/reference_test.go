package gbt

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
)

// referenceFit is Fit as it stood before columns were presorted: every
// node gathers its rows' (value, gradient, hessian) for each sampled
// feature and sorts them, here with a stable sort. It searches serially
// whatever c's Workers; the parallel search reduces to the serial pick.
// Fit must build the same model, bit for bit.
func referenceFit(c *Classifier, ds *ml.Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	n := ds.Len()
	c.names = ds.FeatureNames
	c.splitCount = make([]int, ds.NumFeatures())
	c.flat = flatEnsemble{roots: make([]int32, 0, c.cfg.Rounds)}
	p := ds.PositiveRate()
	p = math.Min(math.Max(p, 1e-6), 1-1e-6)
	c.baseScore = math.Log(p / (1 - p))

	rng := rand.New(rand.NewSource(c.cfg.Seed))
	margin := make([]float64, n)
	for i := range margin {
		margin[i] = c.baseScore
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	for round := 0; round < c.cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			pi := sigmoid(margin[i])
			grad[i] = pi - float64(ds.Y[i])
			hess[i] = pi * (1 - pi)
		}
		var rows []int
		for i := 0; i < n; i++ {
			if c.cfg.Subsample >= 1 || rng.Float64() < c.cfg.Subsample {
				rows = append(rows, i)
			}
		}
		if len(rows) == 0 {
			rows = append(rows, rng.Intn(n))
		}
		root := referenceNode(c, ds, rows, grad, hess, 0, rng)
		c.flat.roots = append(c.flat.roots, root)
		for i := 0; i < n; i++ {
			margin[i] += c.cfg.LearningRate * c.flat.leaf(root, ds.X[i])
		}
	}
	return nil
}

func referenceNode(c *Classifier, ds *ml.Dataset, rows []int, grad, hess []float64, depth int, rng *rand.Rand) int32 {
	var G, H float64
	for _, i := range rows {
		G += grad[i]
		H += hess[i]
	}
	nd := int32(len(c.flat.nodes))
	c.flat.nodes = append(c.flat.nodes, flatNode{Feature: -1, Value: -G / (H + c.cfg.Lambda)})
	if depth >= c.cfg.MaxDepth || len(rows) < 2 {
		return nd
	}
	parentScore := G * G / (H + c.cfg.Lambda)

	nf := ds.NumFeatures()
	cols := make([]int, nf)
	for i := range cols {
		cols[i] = i
	}
	if c.cfg.ColSample < 1 {
		k := max(1, int(math.Ceil(c.cfg.ColSample*float64(nf))))
		rng.Shuffle(nf, func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		cols = cols[:k]
		sort.Ints(cols)
	}

	type splitPair struct{ v, g, h float64 }
	best := splitCandidate{feat: -1}
	for _, f := range cols {
		pairs := make([]splitPair, len(rows))
		for k, i := range rows {
			pairs[k] = splitPair{ds.X[i][f], grad[i], hess[i]}
		}
		slices.SortStableFunc(pairs, func(a, b splitPair) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return 0
		})
		cand := splitCandidate{feat: -1}
		var GL, HL float64
		for k := 0; k < len(pairs)-1; k++ {
			GL += pairs[k].g
			HL += pairs[k].h
			if pairs[k].v == pairs[k+1].v {
				continue
			}
			GR, HR := G-GL, H-HL
			if HL < c.cfg.MinChildWeight || HR < c.cfg.MinChildWeight {
				continue
			}
			gain := 0.5*(GL*GL/(HL+c.cfg.Lambda)+GR*GR/(HR+c.cfg.Lambda)-parentScore) - c.cfg.Gamma
			if gain > cand.gain {
				cand = splitCandidate{gain: gain, feat: f, thr: (pairs[k].v + pairs[k+1].v) / 2}
			}
		}
		best = reduceCandidates(best, cand)
	}
	if best.feat < 0 {
		return nd
	}

	var left, right []int
	for _, i := range rows {
		if ds.X[i][best.feat] <= best.thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return nd
	}
	c.splitCount[best.feat]++
	l := referenceNode(c, ds, left, grad, hess, depth+1, rng)
	r := referenceNode(c, ds, right, grad, hess, depth+1, rng)
	c.flat.nodes[nd] = flatNode{Feature: int32(best.feat), Left: l, Right: r, Value: best.thr}
	return nd
}

// snapshotBytes fits a model with fit and returns its snapshot's JSON.
func snapshotBytes(tb testing.TB, cfg Config, ds *ml.Dataset, fit func(*Classifier, *ml.Dataset) error) []byte {
	tb.Helper()
	clf := New(cfg)
	if err := fit(clf, ds); err != nil {
		tb.Fatal(err)
	}
	snap, err := clf.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// checkMatchesReference fails tb unless Fit and referenceFit build the
// same model.
func checkMatchesReference(tb testing.TB, cfg Config, ds *ml.Dataset) {
	tb.Helper()
	got := snapshotBytes(tb, cfg, ds, (*Classifier).Fit)
	want := snapshotBytes(tb, cfg, ds, referenceFit)
	if !bytes.Equal(got, want) {
		tb.Fatalf("%+v on %d rows: snapshot differs from the stable-sort reference\n got: %.300s\nwant: %.300s", cfg, ds.Len(), got, want)
	}
}

// TestFitMatchesStableSortReference holds the presorted search to the
// per-node stable sort on tie-heavy data: features rounded to 1, 1/10
// and 1/100 and one constant column, row and column subsampling, deep
// trees whose lower nodes hold a handful of rows, and the parallel
// search (900 rows leave nodes of 256 or more for it).
func TestFitMatchesStableSortReference(t *testing.T) {
	configs := []Config{
		{Rounds: 30, MaxDepth: 5, Subsample: 0.8, ColSample: 0.5},
		{Rounds: 20, MaxDepth: 6, Subsample: 0.8, ColSample: 0.3, MinChildWeight: 0.05, Workers: 4},
		{Rounds: 20, MaxDepth: 6, ColSample: 0.4, Lambda: 4, MinChildWeight: 6, Workers: 4},
		{Rounds: 15, MaxDepth: 3, Gamma: 0.5},
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []int{40, 900} {
			ds := mltest.Gaussians(n, 7, 1.2, seed)
			for _, x := range ds.X {
				for j := range x {
					scale := []float64{1, 10, 100}[j%3]
					x[j] = math.Round(x[j]*scale) / scale
				}
				x[6] = 1
			}
			for _, cfg := range configs {
				cfg.Seed = seed
				checkMatchesReference(t, cfg, ds)
			}
		}
	}
}

// FuzzFitDifferential holds Fit to the stable-sort reference on
// datasets of 2-60 rows and 1-6 features drawn from a seven-value
// alphabet (ties everywhere, -0 beside 0), under configs decoded from
// the input's first bytes.
func FuzzFitDifferential(f *testing.F) {
	f.Add([]byte("\x10\x03\x02\x00\x01\x00\x00\x00\x03\x07\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"))
	f.Add([]byte("\x3a\x05\x05\x01\x02\x01\x01\x01\x07\x2a\x91\x42\xf3\x11\x08\x77\x00\xc4\x5e\x9b\x23\x6d"))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n, nf := 2+at(0)%59, 1+at(1)%6
		cfg := Config{
			MaxDepth:       1 + at(2)%6,
			Subsample:      []float64{1, 0.8, 0.5}[at(3)%3],
			ColSample:      []float64{1, 0.5, 0.3}[at(4)%3],
			MinChildWeight: []float64{0.001, 0.1, 1}[at(5)%3],
			Lambda:         []float64{1, 0.25, 4}[at(6)%3],
			Gamma:          []float64{0, 0.01}[at(7)%2],
			Rounds:         1 + at(8)%8,
			Seed:           int64(at(9)),
			Workers:        []int{0, 4}[at(10)%2],
		}
		alphabet := []float64{0, 1, 2, 0.5, -1, 3.25, math.Copysign(0, -1)}
		ds := &ml.Dataset{X: make([][]float64, n), Y: make([]int, n)}
		k := 11
		for i := range ds.X {
			ds.X[i] = make([]float64, nf)
			for j := range ds.X[i] {
				ds.X[i][j] = alphabet[at(k)%len(alphabet)]
				k++
			}
			ds.Y[i] = at(k) & 1
			k++
		}
		checkMatchesReference(t, cfg, ds)
	})
}
