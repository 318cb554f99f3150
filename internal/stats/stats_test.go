package stats

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("Std = %v, want sqrt(2)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("Summarize(nil).N = %d", s.N)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.2, 0.9, 1.5, -3}, 0, 1, 2)
	// -3 clamps to bin 0; 1.5 clamps to bin 1.
	if h.Counts[0] != 3 || h.Counts[1] != 2 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	if h.Total != 5 {
		t.Fatalf("Total = %d", h.Total)
	}
	// Densities integrate to 1.
	var integral float64
	for i := range h.Counts {
		integral += h.Density(i) * h.BinWidth()
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("density integral = %v", integral)
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram([]float64{0.9, 0.95, 0.92, 0.1}, 0, 1, 10)
	if m := h.Mode(); m < 0.9 || m > 1.0 {
		t.Fatalf("Mode = %v, want in [0.9,1.0]", m)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(nil, 0, 0, 0) // hi<=lo and bins<=0 both corrected
	if len(h.Counts) != 1 || h.Total != 0 {
		t.Fatalf("degenerate histogram = %+v", h)
	}
	if h.Density(0) != 0 {
		t.Fatal("empty histogram density should be 0")
	}
}

func TestRender(t *testing.T) {
	h := NewHistogram([]float64{0.5}, 0, 1, 2)
	out := Render([]string{"x"}, []*Histogram{h}, 10)
	if out == "" {
		t.Fatal("Render returned empty output")
	}
}

func TestKSIdenticalAndDisjoint(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := KS(a, a); d != 0 {
		t.Errorf("KS(a,a) = %v, want 0", d)
	}
	b := []float64{10, 11, 12}
	if d := KS(a, b); d != 1 {
		t.Errorf("KS(disjoint) = %v, want 1", d)
	}
	if !math.IsNaN(KS(nil, a)) {
		t.Error("KS(empty, a) should be NaN")
	}
}

func TestKSSeparatesShiftedGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	c := make([]float64, 2000)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64() + 3
	}
	same := KS(a, b)
	diff := KS(a, c)
	if same > 0.08 {
		t.Errorf("KS(same dist) = %v, want small", same)
	}
	if diff < 0.8 {
		t.Errorf("KS(shifted) = %v, want large", diff)
	}
}

// Property: KS is symmetric and in [0, 1].
func TestKSProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		for _, v := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		d1, d2 := KS(a, b), KS(b, a)
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]int{1, 1}); math.Abs(h-1) > 1e-12 {
		t.Errorf("Entropy uniform-2 = %v, want 1", h)
	}
	if h := Entropy([]int{5}); h != 0 {
		t.Errorf("Entropy single = %v, want 0", h)
	}
	if h := Entropy(nil); h != 0 {
		t.Errorf("Entropy empty = %v, want 0", h)
	}
	if h := Entropy([]int{0, 4, 0, 4}); math.Abs(h-1) > 1e-12 {
		t.Errorf("Entropy with zeros = %v, want 1", h)
	}
}

func TestEntropyOfWords(t *testing.T) {
	if h := EntropyOfWords([]string{"a", "a", "a"}); h != 0 {
		t.Errorf("all-same entropy = %v", h)
	}
	if h := EntropyOfWords([]string{"a", "b", "c", "d"}); math.Abs(h-2) > 1e-12 {
		t.Errorf("uniform-4 entropy = %v, want 2", h)
	}
	if h := EntropyOfWords(nil); h != 0 {
		t.Errorf("empty entropy = %v", h)
	}
}

// TestEntropyOfCountsMatchesWords: the count-based form must return the
// string-keyed form's result bit for bit — it is what the feature
// extractor computes comment entropy with — for any mix of repeated
// and unrepeated words, and whatever order the counts arrive in.
func TestEntropyOfCountsMatchesWords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		distinct := 1 + rng.Intn(40)
		var words []string
		counts := make([]int32, distinct)
		for w := range counts {
			c := 1
			if rng.Intn(3) == 0 {
				c += rng.Intn(9)
			}
			counts[w] = int32(c)
			for k := 0; k < c; k++ {
				words = append(words, strconv.Itoa(w))
			}
		}
		rng.Shuffle(len(counts), func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
		want := EntropyOfWords(words)
		if got := EntropyOfCounts(counts, len(words)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: EntropyOfCounts = %v (%#x), EntropyOfWords = %v (%#x)",
				trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if h := EntropyOfCounts(nil, 0); h != 0 {
		t.Errorf("EntropyOfCounts of nothing = %v, want 0", h)
	}
}

// Property: entropy of n distinct words is log2(n), and any repetition
// strictly lowers it below log2(len).
func TestEntropyMaxProperty(t *testing.T) {
	f := func(n uint8) bool {
		k := int(n%20) + 1
		words := make([]string, k)
		for i := range words {
			words[i] = string(rune('a' + i))
		}
		return math.Abs(EntropyOfWords(words)-math.Log2(float64(k))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopWords(t *testing.T) {
	counts := map[string]int{"b": 2, "a": 2, "c": 5}
	top := TopWords(counts, 2)
	if len(top) != 2 || top[0].Word != "c" || top[1].Word != "a" {
		t.Fatalf("TopWords = %v", top)
	}
	all := TopWords(counts, 10)
	if len(all) != 3 {
		t.Fatalf("TopWords k>len = %v", all)
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{100, 100, 500, 1500, 5000}
	if got := FractionBelow(xs, 1000); got != 0.6 {
		t.Errorf("FractionBelow = %v, want 0.6", got)
	}
	if got := FractionEqual(xs, 100); got != 0.4 {
		t.Errorf("FractionEqual = %v, want 0.4", got)
	}
	if !math.IsNaN(FractionBelow(nil, 1)) || !math.IsNaN(FractionEqual(nil, 1)) {
		t.Error("empty-sample fractions should be NaN")
	}
}

// Property: Quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
