package learn

import (
	"fmt"
	"sort"

	"repro/internal/ml"
)

// KNNRegressor predicts by averaging the targets of the k nearest
// training points (optionally inverse-distance weighted). It is both a
// candidate per-quantum answer model (ref [48]: query-driven regression
// model selection) and the estimator behind kNN-regression on ad-hoc
// subspaces (RT2.2).
type KNNRegressor struct {
	// K is the neighbourhood size (default 5).
	K int
	// Weighted enables inverse-distance weighting.
	Weighted bool

	xs [][]float64
	ys []float64
}

// Fit stores the training set (copies the slices' headers, not the
// vectors; callers must not mutate the vectors afterwards — simulation
// datasets are immutable by construction).
func (k *KNNRegressor) Fit(xs [][]float64, ys []float64) error {
	if len(xs) == 0 || len(ys) < len(xs) {
		return fmt.Errorf("knn regressor fit: %w", ml.ErrNoData)
	}
	k.xs = xs
	k.ys = ys[:len(xs)]
	return nil
}

// Predict returns the (weighted) mean target among the k nearest stored
// points; an unfitted model returns 0.
func (k *KNNRegressor) Predict(x []float64) float64 {
	idx, d2 := k.neighbours(x)
	if len(idx) == 0 {
		return 0
	}
	if !k.Weighted {
		var s float64
		for _, i := range idx {
			s += k.ys[i]
		}
		return s / float64(len(idx))
	}
	var num, den float64
	for j, i := range idx {
		w := 1 / (1e-9 + d2[j])
		num += w * k.ys[i]
		den += w
	}
	return num / den
}

func (k *KNNRegressor) neighbours(x []float64) ([]int, []float64) {
	n := len(k.xs)
	if n == 0 {
		return nil, nil
	}
	kk := k.K
	if kk <= 0 {
		kk = 5
	}
	if kk > n {
		kk = n
	}
	type nd struct {
		i  int
		d2 float64
	}
	all := make([]nd, n)
	for i, p := range k.xs {
		all[i] = nd{i, ml.SquaredDistance(p, x)}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].d2 < all[b].d2 })
	idx := make([]int, kk)
	d2 := make([]float64, kk)
	for j := 0; j < kk; j++ {
		idx[j] = all[j].i
		d2[j] = all[j].d2
	}
	return idx, d2
}

// KNNClassifier predicts the majority label among the k nearest training
// points. Labels are small non-negative ints.
type KNNClassifier struct {
	// K is the neighbourhood size (default 5).
	K int

	xs     [][]float64
	labels []int
}

// Fit stores the training set.
func (k *KNNClassifier) Fit(xs [][]float64, labels []int) error {
	if len(xs) == 0 || len(labels) < len(xs) {
		return fmt.Errorf("knn classifier fit: %w", ml.ErrNoData)
	}
	k.xs = xs
	k.labels = labels[:len(xs)]
	return nil
}

// Predict returns the majority vote; ties break toward the smaller label.
// An unfitted model returns -1.
func (k *KNNClassifier) Predict(x []float64) int {
	reg := KNNRegressor{K: k.K}
	reg.xs = k.xs
	idx, _ := reg.neighbours(x)
	if len(idx) == 0 {
		return -1
	}
	votes := make(map[int]int)
	for _, i := range idx {
		votes[k.labels[i]]++
	}
	best, bestN := -1, -1
	for lbl, n := range votes {
		if n > bestN || (n == bestN && lbl < best) {
			best, bestN = lbl, n
		}
	}
	return best
}
