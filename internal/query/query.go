// Package query defines the analytical query model of §III.A: selection
// operators that carve out a data subspace (multi-dimensional ranges,
// radius/hyper-sphere selections, and nearest-neighbour selections) paired
// with an analytical operator over the rows inside that subspace
// (descriptive statistics such as COUNT/SUM/AVG, and dependence statistics
// such as correlation and regression coefficients).
//
// The package also defines the query vectorisation used by the SEA agent:
// a query's position in "query space" (RT1.1) is a fixed-width numeric
// vector, so that quantisation and per-quantum models operate on a stable
// geometry.
package query

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/storage"
)

// ErrBadQuery is returned for malformed queries.
var ErrBadQuery = errors.New("query: malformed query")

// Agg identifies the analytical operator applied inside the selected
// subspace.
type Agg int

// Aggregate kinds. Count/Sum/Avg are the descriptive statistics of
// §III.A; Corr and RegSlope are the dependence (multivariate) statistics
// the paper argues present-day systems should expose.
const (
	// Count returns the subspace population.
	Count Agg = iota + 1
	// Sum returns the sum of column Col.
	Sum
	// Avg returns the mean of column Col.
	Avg
	// Var returns the population variance of column Col.
	Var
	// Corr returns the Pearson correlation between Col and Col2.
	Corr
	// RegSlope returns the OLS slope of Col2 regressed on Col.
	RegSlope
)

// String names the aggregate.
func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Var:
		return "VAR"
	case Corr:
		return "CORR"
	case RegSlope:
		return "REGSLOPE"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Selection is a data-subspace selector: either an axis-aligned range
// (hyper-rectangle) or a centre+radius (hyper-sphere). Exactly one form
// is active: a radius selection has Radius > 0.
type Selection struct {
	// Los/His bound a hyper-rectangle when Radius == 0.
	Los, His []float64
	// Center and Radius define a hyper-sphere when Radius > 0.
	Center []float64
	Radius float64
}

// IsRadius reports whether the selection is a hyper-sphere.
func (s Selection) IsRadius() bool { return s.Radius > 0 }

// Dims returns the selection's dimensionality.
func (s Selection) Dims() int {
	if s.IsRadius() {
		return len(s.Center)
	}
	return len(s.Los)
}

// Validate checks structural invariants. A NaN bound, centre or radius is
// refused: NaN fails every comparison, so it would pass `lo > hi` here
// and then match every row on its side in Contains and in the kernels.
func (s Selection) Validate() error {
	if math.IsNaN(s.Radius) {
		return fmt.Errorf("%w: radius is NaN", ErrBadQuery)
	}
	if s.IsRadius() {
		if len(s.Center) == 0 {
			return fmt.Errorf("%w: radius selection without centre", ErrBadQuery)
		}
		for i, c := range s.Center {
			if math.IsNaN(c) {
				return fmt.Errorf("%w: centre coordinate %d is NaN", ErrBadQuery, i)
			}
		}
		return nil
	}
	if len(s.Los) == 0 || len(s.Los) != len(s.His) {
		return fmt.Errorf("%w: range selection lo/hi widths %d/%d",
			ErrBadQuery, len(s.Los), len(s.His))
	}
	for i := range s.Los {
		if math.IsNaN(s.Los[i]) || math.IsNaN(s.His[i]) {
			return fmt.Errorf("%w: dimension %d has a NaN bound", ErrBadQuery, i)
		}
		if s.Los[i] > s.His[i] {
			return fmt.Errorf("%w: dimension %d has lo > hi", ErrBadQuery, i)
		}
	}
	return nil
}

// Contains reports whether point p (attribute vector) lies inside the
// selection. Points with fewer dimensions than the selection never match.
func (s Selection) Contains(p []float64) bool {
	if s.IsRadius() {
		if len(p) < len(s.Center) {
			return false
		}
		var d2 float64
		for i, c := range s.Center {
			d := p[i] - c
			d2 += d * d
		}
		return d2 <= s.Radius*s.Radius
	}
	if len(p) < len(s.Los) {
		return false
	}
	for i := range s.Los {
		if p[i] < s.Los[i] || p[i] > s.His[i] {
			return false
		}
	}
	return true
}

// Center1 returns the selection's centre point (midpoint for ranges).
func (s Selection) Center1() []float64 {
	if s.IsRadius() {
		out := make([]float64, len(s.Center))
		copy(out, s.Center)
		return out
	}
	out := make([]float64, len(s.Los))
	for i := range out {
		out[i] = (s.Los[i] + s.His[i]) / 2
	}
	return out
}

// Extent returns a scalar size proxy: the radius for spheres, half the
// mean side length for rectangles.
func (s Selection) Extent() float64 {
	if s.IsRadius() {
		return s.Radius
	}
	if len(s.Los) == 0 {
		return 0
	}
	var sum float64
	for i := range s.Los {
		sum += s.His[i] - s.Los[i]
	}
	return sum / float64(2*len(s.Los))
}

// Volume returns the selection's geometric volume (hyper-rectangle
// product, or the d-ball volume for radius selections).
func (s Selection) Volume() float64 {
	if s.IsRadius() {
		d := float64(len(s.Center))
		// V_d(r) = pi^(d/2) r^d / Gamma(d/2+1)
		return math.Pow(math.Pi, d/2) * math.Pow(s.Radius, d) / gammaHalf(len(s.Center))
	}
	v := 1.0
	for i := range s.Los {
		v *= s.His[i] - s.Los[i]
	}
	return v
}

func gammaHalf(d int) float64 {
	// Gamma(d/2 + 1)
	if d%2 == 0 {
		// (d/2)!
		out := 1.0
		for i := 2; i <= d/2; i++ {
			out *= float64(i)
		}
		return out
	}
	// Gamma(n + 1/2) = (2n)! / (4^n n!) * sqrt(pi), with n = (d+1)/2
	n := (d + 1) / 2
	num := 1.0
	for i := 2; i <= 2*n; i++ {
		num *= float64(i)
	}
	den := math.Pow(4, float64(n))
	for i := 2; i <= n; i++ {
		den *= float64(i)
	}
	return num / den * math.Sqrt(math.Pi)
}

// Query is a full analytical query: a subspace selection plus an
// aggregate over it.
type Query struct {
	// Select carves out the data subspace.
	Select Selection
	// Aggregate is the analytical operator.
	Aggregate Agg
	// Col is the aggregate's primary column (ignored for Count).
	Col int
	// Col2 is the second column for Corr/RegSlope.
	Col2 int
	// Deadline is the absolute wall-clock instant by which the
	// coordinator's caller stops waiting; zero means none. It rides on
	// the query so every execution layer (scheduler, agent, scatter)
	// can clamp its own work without widening their interfaces. It is a
	// request attribute, not query identity: serve.Key excludes it, and
	// two queries differing only in Deadline are the same query.
	Deadline time.Time
}

// Validate checks structural invariants.
func (q Query) Validate() error {
	if err := q.Select.Validate(); err != nil {
		return err
	}
	switch q.Aggregate {
	case Count, Sum, Avg, Var, Corr, RegSlope:
	default:
		return fmt.Errorf("%w: unknown aggregate %d", ErrBadQuery, int(q.Aggregate))
	}
	return nil
}

// ValidateCols checks the aggregate's column references against a
// table width at the evaluation boundary. Without this check, colVal
// silently reads 0 for out-of-range columns — a malformed query would
// produce a well-formed-looking answer instead of an error.
func (q Query) ValidateCols(width int) error {
	switch q.Aggregate {
	case Sum, Avg, Var:
		if q.Col < 0 || q.Col >= width {
			return fmt.Errorf("%w: %s column %d out of range for %d-column table",
				ErrBadQuery, q.Aggregate, q.Col, width)
		}
	case Corr, RegSlope:
		if q.Col < 0 || q.Col >= width {
			return fmt.Errorf("%w: %s column %d out of range for %d-column table",
				ErrBadQuery, q.Aggregate, q.Col, width)
		}
		if q.Col2 < 0 || q.Col2 >= width {
			return fmt.Errorf("%w: %s second column %d out of range for %d-column table",
				ErrBadQuery, q.Aggregate, q.Col2, width)
		}
	}
	return nil
}

// Vectorize maps the query to its position in query space: centre
// coordinates followed by the extent. This is the representation the SEA
// agent quantises (RT1.1) and its per-quantum models regress over
// (RT1.3). dims pads/truncates the centre to a fixed width so that all
// queries share one geometry.
func (q Query) Vectorize(dims int) []float64 {
	return q.VectorizeInto(make([]float64, 0, dims+1), dims)
}

// VectorizeInto appends the query vector (centre..., extent) to dst and
// returns it — the allocation-free variant the agent's prediction fast
// path uses with a reusable scratch buffer (pass dst[:0] with capacity
// dims+1).
func (q Query) VectorizeInto(dst []float64, dims int) []float64 {
	s := q.Select
	if s.IsRadius() {
		for i := 0; i < dims; i++ {
			if i < len(s.Center) {
				dst = append(dst, s.Center[i])
			} else {
				dst = append(dst, 0)
			}
		}
	} else {
		for i := 0; i < dims; i++ {
			if i < len(s.Los) && i < len(s.His) {
				dst = append(dst, (s.Los[i]+s.His[i])/2)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return append(dst, s.Extent())
}

// Result is an executed query's answer.
type Result struct {
	// Value is the aggregate's value.
	Value float64
	// Support is the number of rows inside the subspace.
	Support int64
	// Degraded marks an answer merged from a strict subset of the
	// partition space after every holder of the missing partitions
	// failed; Coverage is then the fraction of partitions that did
	// contribute (0 < Coverage < 1). Both are zero on a full answer.
	Degraded bool
	Coverage float64
}

// EvalRows computes the query's exact answer over the given rows (the
// per-node kernel shared by every execution paradigm).
func EvalRows(q Query, rows []storage.Row) Result {
	var n int64
	var sum, sum2 float64
	var sx, sy, sxx, sxy, syy float64
	for _, r := range rows {
		if !q.Select.Contains(r.Vec) {
			continue
		}
		n++
		switch q.Aggregate {
		case Sum, Avg, Var:
			v := colVal(r, q.Col)
			sum += v
			sum2 += v * v
		case Corr, RegSlope:
			x := colVal(r, q.Col)
			y := colVal(r, q.Col2)
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			syy += y * y
		}
	}
	return finishAgg(q, aggState{n: n, sum: sum, sum2: sum2, sx: sx, sy: sy, sxx: sxx, sxy: sxy, syy: syy})
}

func colVal(r storage.Row, col int) float64 {
	if col < 0 || col >= len(r.Vec) {
		return 0
	}
	return r.Vec[col]
}

// aggState is the mergeable sufficient statistic for every supported
// aggregate; partial states from different nodes combine with merge().
// Its existence is why all of the paper's aggregates distribute cleanly
// over both execution paradigms.
type aggState struct {
	n                     int64
	sum, sum2             float64
	sx, sy, sxx, sxy, syy float64
}

func (a aggState) merge(b aggState) aggState {
	return aggState{
		n:   a.n + b.n,
		sum: a.sum + b.sum, sum2: a.sum2 + b.sum2,
		sx: a.sx + b.sx, sy: a.sy + b.sy,
		sxx: a.sxx + b.sxx, sxy: a.sxy + b.sxy, syy: a.syy + b.syy,
	}
}

// PartialEval computes a node-local aggregate state for q over rows.
func PartialEval(q Query, rows []storage.Row) []float64 {
	var st aggState
	for _, r := range rows {
		if !q.Select.Contains(r.Vec) {
			continue
		}
		st.n++
		switch q.Aggregate {
		case Sum, Avg, Var:
			v := colVal(r, q.Col)
			st.sum += v
			st.sum2 += v * v
		case Corr, RegSlope:
			x := colVal(r, q.Col)
			y := colVal(r, q.Col2)
			st.sx += x
			st.sy += y
			st.sxx += x * x
			st.sxy += x * y
			st.syy += y * y
		}
	}
	return st.encode()
}

func (a aggState) encode() []float64 {
	return []float64{float64(a.n), a.sum, a.sum2, a.sx, a.sy, a.sxx, a.sxy, a.syy}
}

func decodeState(v []float64) aggState {
	var a aggState
	if len(v) >= 8 {
		a.n = int64(v[0])
		a.sum, a.sum2 = v[1], v[2]
		a.sx, a.sy, a.sxx, a.sxy, a.syy = v[3], v[4], v[5], v[6], v[7]
	}
	return a
}

// MergeEval combines node-local states (as produced by PartialEval) into
// the final result.
func MergeEval(q Query, partials [][]float64) Result {
	var st aggState
	for _, p := range partials {
		st = st.merge(decodeState(p))
	}
	return finishAgg(q, st)
}

func finishAgg(q Query, st aggState) Result {
	res := Result{Support: st.n}
	if st.n == 0 {
		return res
	}
	nf := float64(st.n)
	switch q.Aggregate {
	case Count:
		res.Value = nf
	case Sum:
		res.Value = st.sum
	case Avg:
		res.Value = st.sum / nf
	case Var:
		// sum2/n - m² can go (slightly or catastrophically) negative on
		// mean-dominated data; a variance is never negative, so clamp.
		m := st.sum / nf
		res.Value = clampNonNeg(st.sum2/nf - m*m)
	case Corr:
		// The same cancellation can push either variance term negative,
		// which used to surface as NaN (sqrt of a negative). Clamp both:
		// a non-positive variance means the correlation is undefined and
		// the result stays 0.
		num := nf*st.sxy - st.sx*st.sy
		den := math.Sqrt(clampNonNeg(nf*st.sxx-st.sx*st.sx)) *
			math.Sqrt(clampNonNeg(nf*st.syy-st.sy*st.sy))
		if den != 0 {
			res.Value = num / den
		}
	case RegSlope:
		den := nf*st.sxx - st.sx*st.sx
		if den > 0 {
			res.Value = (nf*st.sxy - st.sx*st.sy) / den
		}
	}
	return res
}

// Extrapolate marks a partially-covered merge as degraded and
// extrapolates it to the full partition space. Rows land in partitions
// by key hash, so a missing partition is a uniform random sample of the
// subspace: the additive aggregates (COUNT, SUM) scale by 1/coverage to
// stay unbiased, while the ratio statistics (AVG, VAR, CORR, REGSLOPE)
// are already unbiased on the covered rows and keep their merged value.
// Support always reports the rows actually observed, not the estimate.
func Extrapolate(q Query, r Result, coverage float64) Result {
	if coverage <= 0 || coverage >= 1 {
		return r
	}
	r.Degraded = true
	r.Coverage = coverage
	switch q.Aggregate {
	case Count, Sum:
		r.Value /= coverage
	}
	return r
}

// clampNonNeg floors a variance/covariance term at zero: catastrophic
// cancellation in raw-moment arithmetic can drive a mathematically
// non-negative quantity negative.
func clampNonNeg(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
