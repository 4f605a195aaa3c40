package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted.
// It refuses a percentile with fewer than minBeyond samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d",
			p*100, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// timed is one measurement placed on a phase's clock.
type timed struct {
	at time.Duration // offset from the phase start
	v  float64
}

// windowed cuts [0, span) into windows equal parts, takes the
// p-quantile of each and returns the median window: one disturbed
// window (a GC cycle, a noisy neighbour) cannot set the reported tail.
// It refuses when any window is too thin for p.
func windowed(samples []timed, span time.Duration, windows int, p float64) (float64, error) {
	buckets := make([][]float64, windows)
	for _, s := range samples {
		w := int(int64(s.at) * int64(windows) / int64(span))
		if w < 0 {
			w = 0
		}
		if w >= windows {
			w = windows - 1
		}
		buckets[w] = append(buckets[w], s.v)
	}
	per := make([]float64, windows)
	for w, b := range buckets {
		sort.Float64s(b)
		v, err := percentile(b, p)
		if err != nil {
			return 0, fmt.Errorf("window %d of %d: %w", w+1, windows, err)
		}
		per[w] = v
	}
	return median(per), nil
}

// median returns the middle of xs (mean of the middle two when even);
// xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so
// spreads computed here and by the driver agree. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
