package learn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/ml"
)

// Regressor is the interface shared by all of this package's regression
// models and satisfied by per-quantum answer models; the optimizer's
// model-selection machinery (ref [48]) works against it.
type Regressor interface {
	Fit(xs [][]float64, ys []float64) error
	Predict(x []float64) float64
}

// RMSE returns the root-mean-squared error of predictions vs truth.
func RMSE(pred, truth []float64) float64 {
	n := len(pred)
	if len(truth) < n {
		n = len(truth)
	}
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}

// MAE returns the mean absolute error.
func MAE(pred, truth []float64) float64 {
	n := len(pred)
	if len(truth) < n {
		n = len(truth)
	}
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(n)
}

// CrossValidateRMSE estimates a model family's out-of-sample RMSE with
// k-fold cross-validation. factory must return a fresh unfitted model per
// fold. rng shuffles the fold assignment; deterministic for a fixed seed.
func CrossValidateRMSE(factory func() Regressor, xs [][]float64, ys []float64, folds int, rng *rand.Rand) (float64, error) {
	n := len(xs)
	if n == 0 || len(ys) < n {
		return 0, fmt.Errorf("cross-validate: %w", ml.ErrNoData)
	}
	if folds < 2 {
		folds = 2
	}
	if folds > n {
		folds = n
	}
	perm := rng.Perm(n)
	var sse float64
	var count int
	for f := 0; f < folds; f++ {
		var trX [][]float64
		var trY []float64
		var teX [][]float64
		var teY []float64
		for i, p := range perm {
			if i%folds == f {
				teX = append(teX, xs[p])
				teY = append(teY, ys[p])
			} else {
				trX = append(trX, xs[p])
				trY = append(trY, ys[p])
			}
		}
		if len(trX) == 0 || len(teX) == 0 {
			continue
		}
		m := factory()
		if err := m.Fit(trX, trY); err != nil {
			return 0, fmt.Errorf("cross-validate fold %d: %w", f, err)
		}
		for i, x := range teX {
			d := m.Predict(x) - teY[i]
			sse += d * d
			count++
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("cross-validate: %w", ml.ErrNoData)
	}
	return math.Sqrt(sse / float64(count)), nil
}

// SelectModel runs cross-validation for each named factory and returns the
// name with the lowest RMSE alongside all scores. This is the mechanism of
// "query-driven regression model selection" (ref [48]) used per quantum by
// the SEA agent and by RT3.3's inference-model selection.
func SelectModel(factories map[string]func() Regressor, xs [][]float64, ys []float64, folds int, rng *rand.Rand) (string, map[string]float64, error) {
	if len(factories) == 0 {
		return "", nil, fmt.Errorf("select model: %w", ml.ErrNoData)
	}
	scores := make(map[string]float64, len(factories))
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic iteration
	best := ""
	bestScore := math.Inf(1)
	for _, name := range names {
		// Derive a per-model rng stream so that map order never matters.
		sub := rand.New(rand.NewSource(rng.Int63()))
		score, err := CrossValidateRMSE(factories[name], xs, ys, folds, sub)
		if err != nil {
			return "", nil, fmt.Errorf("select model %q: %w", name, err)
		}
		scores[name] = score
		if score < bestScore {
			bestScore = score
			best = name
		}
	}
	return best, scores, nil
}
