// Package ml is the statistical machine-learning substrate of the SEA
// agent. The paper's data-less paradigm (§III.B) rests on "statistical
// machine learning (SML) models" trained on (query, answer) pairs; this
// package provides the ones the serving agent and its explanations use,
// from scratch on the standard library: vector helpers, recursive least
// squares for online updates, online adaptive vector quantisation,
// segmented (piecewise-linear) regression and the accuracy metrics. The
// reproduction's batch learners are in internal/learn.
//
// All estimators are deterministic given a seeded *rand.Rand and are safe
// for single-goroutine simulation use; estimators that support concurrent
// prediction after training say so explicitly.
package ml

import "errors"

// ErrDimensionMismatch is returned when vector or matrix shapes disagree.
var ErrDimensionMismatch = errors.New("ml: dimension mismatch")

// ErrNoData is returned when an estimator is fit on an empty dataset.
var ErrNoData = errors.New("ml: no training data")

// Dot returns the inner product of a and b. Panics are avoided: mismatched
// lengths use the shorter prefix, which callers guard against via FitCheck
// helpers; in practice all call sites pass equal-length slices.
func Dot(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// SquaredDistance returns the squared Euclidean distance between a and b.
func SquaredDistance(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// AXPY computes y[i] += alpha*x[i] in place.
func AXPY(alpha float64, x, y []float64) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// CopyVec returns a fresh copy of x (boundary-safety helper: callers hand
// out copies rather than aliases, per the style guide).
func CopyVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Matrix is a dense row-major matrix. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
