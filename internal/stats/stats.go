// Package stats provides the small statistical toolkit the experiments
// rely on: summary statistics, fixed-bin histograms with probability
// densities (the paper's distribution figures), empirical CDFs with
// two-sample Kolmogorov–Smirnov distance (used to check that fraud and
// normal distributions separate, and that the two platforms' fraud
// distributions agree — Fig 13), Shannon entropy, and frequency counts.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Summary holds the usual scalar summaries of a sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	Median        float64
	P25, P75, P90 float64
}

// Summarize computes summary statistics. It returns a zero Summary for
// an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P25 = Quantile(sorted, 0.25)
	s.P75 = Quantile(sorted, 0.75)
	s.P90 = Quantile(sorted, 0.90)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample, with linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-width binning of a sample over [Lo, Hi]. Values
// outside the range are clamped into the edge bins, matching how the
// paper's density plots bound their axes.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into bins equal-width buckets over [lo, hi].
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// Density returns the probability density of bin i (so that the
// densities integrate to 1 over [Lo, Hi]).
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / (float64(h.Total) * h.BinWidth())
}

// Densities returns the density of every bin.
func (h *Histogram) Densities() []float64 {
	out := make([]float64, len(h.Counts))
	for i := range h.Counts {
		out[i] = h.Density(i)
	}
	return out
}

// Mode returns the center of the highest-density bin — where the
// distribution "concentrates", the property the paper reads off its
// density figures (e.g. fraud sentiment concentrates near 1).
func (h *Histogram) Mode() float64 {
	best, bi := -1, 0
	for i, c := range h.Counts {
		if c > best {
			best, bi = c, i
		}
	}
	return h.Lo + (float64(bi)+0.5)*h.BinWidth()
}

// Render draws an ASCII density plot of one or more histograms with the
// same binning, for the catsbench figure output. Labels name each
// series.
func Render(labels []string, hs []*Histogram, width int) string {
	if len(hs) == 0 || width <= 0 {
		return ""
	}
	var maxD float64
	for _, h := range hs {
		for i := range h.Counts {
			if d := h.Density(i); d > maxD {
				maxD = d
			}
		}
	}
	if maxD == 0 {
		maxD = 1
	}
	var b strings.Builder
	for s, h := range hs {
		fmt.Fprintf(&b, "%s (mode≈%.3g)\n", labels[s], h.Mode())
		for i := range h.Counts {
			lo := h.Lo + float64(i)*h.BinWidth()
			bar := int(h.Density(i) / maxD * float64(width))
			fmt.Fprintf(&b, "  %9.3g |%s\n", lo, strings.Repeat("#", bar))
		}
	}
	return b.String()
}

// KS computes the two-sample Kolmogorov–Smirnov statistic between
// samples a and b: the maximum absolute difference between their
// empirical CDFs. 0 means identical distributions, 1 means disjoint.
func KS(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var i, j int
	var d float64
	for i < len(as) && j < len(bs) {
		var x float64
		if as[i] <= bs[j] {
			x = as[i]
		} else {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// Entropy computes the Shannon entropy (base 2) of a discrete frequency
// distribution given as counts. Zero counts contribute nothing.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// EntropyOfWords computes the Shannon entropy of a word sequence using
// within-sequence word frequencies — the comment-entropy measure of
// Section II-A.4 and Fig 3. Counts are summed in sorted order so the
// result is bit-for-bit deterministic (float addition is not
// associative, and Go map iteration order varies).
//
// This is the string-keyed form, one map operation per word; the
// feature extractor counts by word ID and calls EntropyOfCounts.
func EntropyOfWords(words []string) float64 {
	if len(words) == 0 {
		return 0
	}
	freq := make(map[string]int, len(words))
	for _, w := range words {
		freq[w]++
	}
	cs := make([]int, 0, len(freq))
	//lint:ignore map-range-determinism the counts are drained into cs and sorted below; no float is summed in map order
	for _, c := range freq {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	var h float64
	n := float64(len(words))
	for _, c := range cs {
		p := float64(c) / n
		// The conversion keeps the product a rounded float64 on
		// architectures that would otherwise fuse it into the
		// subtraction, so this and EntropyOfCounts agree everywhere.
		h -= float64(p * math.Log2(p))
	}
	return h
}

// EntropyOfCounts is EntropyOfWords for a caller that has already
// counted: counts holds each distinct word's occurrences (all positive)
// and total is their sum, the sequence length. Terms are subtracted in
// ascending order of count, the order EntropyOfWords sums in, so the
// two agree bit for bit. Equal counts contribute the same term, so it
// is computed once per run of equal counts; and since most words of a
// comment occur once, the ones are peeled off first and only the rest
// is sorted. counts is reordered in place.
//
//cats:hotpath
func EntropyOfCounts(counts []int32, total int) float64 {
	rest := counts[:0]
	for _, c := range counts {
		if c != 1 {
			rest = append(rest, c)
		}
	}
	slices.Sort(rest)
	var h float64
	n := float64(total)
	if ones := len(counts) - len(rest); ones > 0 {
		p := 1 / n
		term := float64(p * math.Log2(p)) // rounded, never fused: see EntropyOfWords
		for ; ones > 0; ones-- {
			h -= term
		}
	}
	for i := 0; i < len(rest); {
		c := rest[i]
		p := float64(c) / n
		term := float64(p * math.Log2(p))
		for ; i < len(rest) && rest[i] == c; i++ {
			h -= term
		}
	}
	return h
}

// WordCount is a word together with its occurrence count.
type WordCount struct {
	Word  string
	Count int
}

// TopWords returns the k most frequent words in the counts map, ties
// broken lexicographically (deterministic output for the word-cloud
// tables, Appendix Tables VIII/IX).
func TopWords(counts map[string]int, k int) []WordCount {
	out := make([]WordCount, 0, len(counts))
	//lint:ignore map-range-determinism the pairs are fully sorted below (count desc, then word); iteration order cannot show
	for w, c := range counts {
		out = append(out, WordCount{w, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Word < out[j].Word
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// FractionBelow returns the fraction of xs strictly below t (Fig 11's
// "45% of users have userExpValue below 2,000"-style statements).
func FractionBelow(xs []float64, t float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x < t {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionEqual returns the fraction of xs equal to t.
func FractionEqual(xs []float64, t float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x == t {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
