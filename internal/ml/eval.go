package ml

import (
	"math"
	"sort"
)

// MAPE returns the mean absolute percentage error in [0, +inf), skipping
// zero-truth samples (convention used by refs [26]-[29] for count
// accuracy, where relative error is the headline metric).
func MAPE(pred, truth []float64) float64 {
	n := len(pred)
	if len(truth) < n {
		n = len(truth)
	}
	var s float64
	var m int
	for i := 0; i < n; i++ {
		if truth[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-truth[i]) / math.Abs(truth[i])
		m++
	}
	if m == 0 {
		return 0
	}
	return s / float64(m)
}

// R2 returns the coefficient of determination; 1 is perfect, 0 matches
// predicting the mean, negative is worse than the mean.
func R2(pred, truth []float64) float64 {
	n := len(pred)
	if len(truth) < n {
		n = len(truth)
	}
	if n == 0 {
		return 0
	}
	m := Mean(truth[:n])
	var ssRes, ssTot float64
	for i := 0; i < n; i++ {
		d := truth[i] - pred[i]
		ssRes += d * d
		t := truth[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Quantile returns the q-th quantile (0..1) of xs by sorting a copy;
// linear interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := CopyVec(xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
