// Package learn holds the batch learners of the reproduction world: the
// simulated optimizer's model selection (ordinary/ridge least squares,
// kNN regression, CART trees, gradient-boosted stumps, k-fold
// cross-validation), batch k-means for imputation, and the statistics
// the simulated polystore reports. The serving agent's online models
// live in internal/ml, whose vector helpers this package builds on.
//
// All estimators are deterministic given a seeded *rand.Rand and are safe
// for single-goroutine simulation use; estimators that support concurrent
// prediction after training say so explicitly.
package learn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ml"
)

// ErrSingular is returned when a linear system is (numerically) singular.
var ErrSingular = errors.New("ml: singular matrix")

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// CholeskySolve solves the symmetric positive-definite system A x = b in
// place using a Cholesky factorisation. A must be n x n and is destroyed.
// It returns ErrSingular when a pivot collapses below tolerance.
func CholeskySolve(a *ml.Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("%w: cholesky on %dx%d with rhs %d",
			ml.ErrDimensionMismatch, a.Rows, a.Cols, len(b))
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
	mx := ml.Mean(x[:n])
	my := ml.Mean(y[:n])
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
