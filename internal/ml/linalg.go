// Package ml is the statistical machine-learning substrate for SEA. The
// paper's data-less paradigm (§III.B) rests on "statistical machine
// learning (SML) models" trained on (query, answer) pairs; this package
// provides those models from scratch on the standard library: dense linear
// algebra, ordinary/ridge least squares, recursive least squares for
// online updates, k-means (batch and online adaptive vector quantisation),
// kNN regression/classification, CART trees, gradient-boosted stumps, and
// segmented (piecewise-linear) regression.
//
// All estimators are deterministic given a seeded *rand.Rand and are safe
// for single-goroutine simulation use; estimators that support concurrent
// prediction after training say so explicitly.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when vector or matrix shapes disagree.
var ErrDimensionMismatch = errors.New("ml: dimension mismatch")

// ErrSingular is returned when a linear system is (numerically) singular.
var ErrSingular = errors.New("ml: singular matrix")

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

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
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

// CholeskySolve solves the symmetric positive-definite system A x = b in
// place using a Cholesky factorisation. A must be n x n and is destroyed.
// It returns ErrSingular when a pivot collapses below tolerance.
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("%w: cholesky on %dx%d with rhs %d",
			ErrDimensionMismatch, a.Rows, a.Cols, len(b))
	}
	const tol = 1e-12
	// Factor A = L L^T, storing L in the lower triangle.
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			l := a.At(j, k)
			d -= l * l
		}
		if d < tol {
			return nil, fmt.Errorf("%w: pivot %d = %g", ErrSingular, j, d)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
	}
	// Forward solve L y = b.
	x := make([]float64, n)
	copy(x, b)
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= a.At(i, k) * x[k]
		}
		x[i] = s / a.At(i, i)
	}
	// Back solve L^T x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= a.At(k, i) * x[k]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

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

// Variance returns the population variance of xs, or 0 when len < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Correlation returns the Pearson correlation coefficient of paired
// samples x and y (using the shorter length), or 0 when undefined.
func Correlation(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n < 2 {
		return 0
	}
	mx := Mean(x[:n])
	my := Mean(y[:n])
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
