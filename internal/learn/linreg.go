package learn

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// LinearRegression is an ordinary/ridge least-squares model with an
// intercept: y ≈ w·x + b. Fit solves the normal equations with a Cholesky
// factorisation; Ridge > 0 adds Tikhonov regularisation (the intercept is
// not regularised). After Fit, the model is safe for concurrent Predict.
type LinearRegression struct {
	// Ridge is the L2 regularisation strength applied at Fit time.
	Ridge float64

	weights   []float64
	intercept float64
	fitted    bool
}

// Fit estimates weights from design matrix xs (n samples, d features each)
// and targets ys. It returns ErrNoData for empty input and ErrSingular
// when the (regularised) normal equations cannot be solved.
func (lr *LinearRegression) Fit(xs [][]float64, ys []float64) error {
	n := len(xs)
	if n == 0 || len(ys) < n {
		return fmt.Errorf("linear regression fit: %w", ml.ErrNoData)
	}
	d := len(xs[0])
	// Augment with intercept column: solve for [w; b].
	k := d + 1
	ata := ml.NewMatrix(k, k)
	atb := make([]float64, k)
	xi := make([]float64, k)
	for i := 0; i < n; i++ {
		copy(xi, xs[i])
		xi[d] = 1
		for r := 0; r < k; r++ {
			atb[r] += xi[r] * ys[i]
			row := ata.Row(r)
			for c := r; c < k; c++ {
				row[c] += xi[r] * xi[c]
			}
		}
	}
	// Mirror the upper triangle and add the ridge term (not on intercept).
	for r := 0; r < k; r++ {
		for c := 0; c < r; c++ {
			ata.Set(r, c, ata.At(c, r))
		}
	}
	for r := 0; r < d; r++ {
		ata.Set(r, r, ata.At(r, r)+lr.Ridge)
	}
	// Tiny jitter keeps near-singular designs solvable (constant features).
	for r := 0; r < k; r++ {
		ata.Set(r, r, ata.At(r, r)+1e-9)
	}
	sol, err := CholeskySolve(ata, atb)
	if err != nil {
		return fmt.Errorf("linear regression fit: %w", err)
	}
	lr.weights = sol[:d]
	lr.intercept = sol[d]
	lr.fitted = true
	return nil
}

// Predict returns w·x + b. Unfitted models predict 0.
func (lr *LinearRegression) Predict(x []float64) float64 {
	if !lr.fitted {
		return 0
	}
	return ml.Dot(lr.weights, x) + lr.intercept
}

// Weights returns a copy of the fitted coefficient vector.
func (lr *LinearRegression) Weights() []float64 { return ml.CopyVec(lr.weights) }

// Intercept returns the fitted intercept.
func (lr *LinearRegression) Intercept() float64 { return lr.intercept }

// StandardScaler centres and scales features to zero mean and unit
// variance, the usual preconditioning before distance-based models.
type StandardScaler struct {
	mean, std []float64
	fitted    bool
}

// Fit computes per-dimension means and standard deviations.
func (s *StandardScaler) Fit(xs [][]float64) error {
	if len(xs) == 0 {
		return fmt.Errorf("scaler fit: %w", ml.ErrNoData)
	}
	d := len(xs[0])
	s.mean = make([]float64, d)
	s.std = make([]float64, d)
	for _, x := range xs {
		for j := 0; j < d && j < len(x); j++ {
			s.mean[j] += x[j]
		}
	}
	n := float64(len(xs))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, x := range xs {
		for j := 0; j < d && j < len(x); j++ {
			dd := x[j] - s.mean[j]
			s.std[j] += dd * dd
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] < 1e-12 {
			s.std[j] = 1
		}
	}
	s.fitted = true
	return nil
}

// Transform returns a scaled copy of x.
func (s *StandardScaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	if !s.fitted {
		return out
	}
	for j := 0; j < len(out) && j < len(s.mean); j++ {
		out[j] = (out[j] - s.mean[j]) / s.std[j]
	}
	return out
}
