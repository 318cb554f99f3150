package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted values; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentiles are the candidates of the percentile rule, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// topPercentile is the percentile rule: the highest candidate
// percentile that still has at least ten samples beyond it, so a tail
// figure is never one or two outliers. With fewer than 40 samples only
// the median is reported.
func topPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			return p
		}
	}
	return 50
}

// timed is one timed observation: when it was due and what it measured.
type timed struct {
	at    time.Duration // offset from the phase start
	value float64
}

// windowStat groups observations into consecutive windows of the given
// length by their at offset, applies stat to each full window's values
// (sorted ascending), and returns the median across windows — so one
// bad second on a shared machine moves one window, not the figure. Only
// windows that lie entirely within span count; when none does, stat
// runs over everything.
func windowStat(obs []timed, window, span time.Duration, stat func(sorted []float64) float64) float64 {
	full := int(span / window)
	var per []float64
	for w := 0; w < full; w++ {
		lo, hi := time.Duration(w)*window, time.Duration(w+1)*window
		var vals []float64
		for _, o := range obs {
			if o.at >= lo && o.at < hi {
				vals = append(vals, o.value)
			}
		}
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		per = append(per, stat(vals))
	}
	if len(per) == 0 {
		vals := make([]float64, len(obs))
		for i, o := range obs {
			vals[i] = o.value
		}
		sort.Float64s(vals)
		return stat(vals)
	}
	return median(per)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is what the driver's spread rule uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
