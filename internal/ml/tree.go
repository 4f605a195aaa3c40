package ml

import (
	"fmt"
	"math"
	"sort"
)

// SegmentedRegression fits a piecewise-linear model of a scalar function
// y = f(x) with at most Segments pieces, choosing breakpoints by greedy
// recursive splitting on SSE reduction. The paper proposes exactly this
// form for query-answer explanations (RT4.2: "a (piecewise) linear
// regression model showing how count ... depends on the size of the
// subspace") and cites fast segmented regression [23].
type SegmentedRegression struct {
	// Segments caps the number of linear pieces (default 4).
	Segments int
	// MinPoints is the minimum samples per piece (default 4).
	MinPoints int

	breaks []float64 // ascending interior breakpoints
	pieces []linearPiece
}

type linearPiece struct{ slope, intercept float64 }

// Fit fits the piecewise model to scalar samples (xs[i], ys[i]).
func (sr *SegmentedRegression) Fit(xs, ys []float64) error {
	n := len(xs)
	if n == 0 || len(ys) < n {
		return fmt.Errorf("segmented regression fit: %w", ErrNoData)
	}
	segs := sr.Segments
	if segs <= 0 {
		segs = 4
	}
	minPts := sr.MinPoints
	if minPts <= 0 {
		minPts = 4
	}
	// Sort by x.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	sx := make([]float64, n)
	sy := make([]float64, n)
	for i, o := range order {
		sx[i] = xs[o]
		sy[i] = ys[o]
	}
	// Greedy splitting: repeatedly split the segment whose best split
	// yields the largest SSE reduction.
	type span struct{ lo, hi int } // [lo, hi)
	spans := []span{{0, n}}
	for len(spans) < segs {
		bestSpan, bestCut := -1, -1
		bestGain := 1e-12
		for si, sp := range spans {
			if sp.hi-sp.lo < 2*minPts {
				continue
			}
			base := lineSSE(sx, sy, sp.lo, sp.hi)
			for cut := sp.lo + minPts; cut <= sp.hi-minPts; cut++ {
				if sx[cut] == sx[cut-1] {
					continue
				}
				g := base - lineSSE(sx, sy, sp.lo, cut) - lineSSE(sx, sy, cut, sp.hi)
				if g > bestGain {
					bestGain = g
					bestSpan = si
					bestCut = cut
				}
			}
		}
		if bestSpan < 0 {
			break
		}
		sp := spans[bestSpan]
		spans = append(spans[:bestSpan], append([]span{
			{sp.lo, bestCut}, {bestCut, sp.hi},
		}, spans[bestSpan+1:]...)...)
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	sr.breaks = sr.breaks[:0]
	sr.pieces = sr.pieces[:0]
	for i, sp := range spans {
		slope, intercept := fitLine(sx, sy, sp.lo, sp.hi)
		sr.pieces = append(sr.pieces, linearPiece{slope, intercept})
		if i > 0 {
			sr.breaks = append(sr.breaks, sx[sp.lo])
		}
	}
	return nil
}

// Predict evaluates the piecewise model at x.
func (sr *SegmentedRegression) Predict(x float64) float64 {
	if len(sr.pieces) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(sr.breaks, x)
	if i >= len(sr.pieces) {
		i = len(sr.pieces) - 1
	}
	p := sr.pieces[i]
	return p.slope*x + p.intercept
}

// Breakpoints returns a copy of the interior breakpoints (ascending).
func (sr *SegmentedRegression) Breakpoints() []float64 {
	return CopyVec(sr.breaks)
}

// Pieces returns the (slope, intercept) pairs of each piece in order.
func (sr *SegmentedRegression) Pieces() (slopes, intercepts []float64) {
	for _, p := range sr.pieces {
		slopes = append(slopes, p.slope)
		intercepts = append(intercepts, p.intercept)
	}
	return slopes, intercepts
}

func fitLine(xs, ys []float64, lo, hi int) (slope, intercept float64) {
	n := float64(hi - lo)
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := lo; i < hi; i++ {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

func lineSSE(xs, ys []float64, lo, hi int) float64 {
	slope, intercept := fitLine(xs, ys, lo, hi)
	var s float64
	for i := lo; i < hi; i++ {
		d := ys[i] - (slope*xs[i] + intercept)
		s += d * d
	}
	return s
}
