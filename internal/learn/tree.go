package learn

import (
	"fmt"
	"sort"

	"repro/internal/ml"
)

// RegressionTree is a CART regression tree with axis-aligned splits,
// variance-reduction split selection, and depth/leaf-size stopping rules.
// It serves the optimizer (RT3): learned cost models that decide between
// execution alternatives are trees or boosted stumps over workload
// features.
type RegressionTree struct {
	// MaxDepth bounds tree depth (default 4).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 2).
	MinLeaf int

	root *treeNode
}

type treeNode struct {
	feature   int
	threshold float64
	value     float64
	left      *treeNode
	right     *treeNode
}

func (n *treeNode) isLeaf() bool { return n.left == nil }

// Fit grows the tree on xs/ys.
func (t *RegressionTree) Fit(xs [][]float64, ys []float64) error {
	if len(xs) == 0 || len(ys) < len(xs) {
		return fmt.Errorf("regression tree fit: %w", ml.ErrNoData)
	}
	maxDepth := t.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 4
	}
	minLeaf := t.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 2
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	t.root = growTree(xs, ys, idx, maxDepth, minLeaf)
	return nil
}

// Predict routes x to a leaf and returns its mean target. Unfitted trees
// return 0.
func (t *RegressionTree) Predict(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.isLeaf() {
		if feat(x, n.feature) <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Depth returns the fitted tree's depth (0 for a stump/leaf-only tree).
func (t *RegressionTree) Depth() int { return nodeDepth(t.root) }

func nodeDepth(n *treeNode) int {
	if n == nil || n.isLeaf() {
		return 0
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if r > l {
		l = r
	}
	return 1 + l
}

func feat(x []float64, j int) float64 {
	if j < len(x) {
		return x[j]
	}
	return 0
}

func growTree(xs [][]float64, ys []float64, idx []int, depth, minLeaf int) *treeNode {
	node := &treeNode{value: meanAt(ys, idx)}
	if depth == 0 || len(idx) < 2*minLeaf {
		return node
	}
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	baseSSE := sseAt(ys, idx, node.value)
	d := len(xs[idx[0]])
	order := make([]int, len(idx))
	for j := 0; j < d; j++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool {
			return feat(xs[order[a]], j) < feat(xs[order[b]], j)
		})
		// Prefix sums over the sorted order allow O(n) split scanning.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, i := range order {
			sumR += ys[i]
			sumSqR += ys[i] * ys[i]
		}
		nL := 0
		nR := len(order)
		for s := 0; s < len(order)-1; s++ {
			i := order[s]
			sumL += ys[i]
			sumSqL += ys[i] * ys[i]
			sumR -= ys[i]
			sumSqR -= ys[i] * ys[i]
			nL++
			nR--
			v := feat(xs[i], j)
			next := feat(xs[order[s+1]], j)
			if v == next || nL < minLeaf || nR < minLeaf {
				continue
			}
			sse := (sumSqL - sumL*sumL/float64(nL)) +
				(sumSqR - sumR*sumR/float64(nR))
			gain := baseSSE - sse
			if gain > bestGain {
				bestGain = gain
				bestFeat = j
				bestThr = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12 {
		return node
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if feat(xs[i], bestFeat) <= bestThr {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return node
	}
	node.feature = bestFeat
	node.threshold = bestThr
	node.left = growTree(xs, ys, leftIdx, depth-1, minLeaf)
	node.right = growTree(xs, ys, rightIdx, depth-1, minLeaf)
	return node
}

func meanAt(ys []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += ys[i]
	}
	return s / float64(len(idx))
}

func sseAt(ys []float64, idx []int, mean float64) float64 {
	var s float64
	for _, i := range idx {
		d := ys[i] - mean
		s += d * d
	}
	return s
}

// GradientBoosting is a gradient-boosted ensemble of shallow regression
// trees fit to least-squares residuals — the "boosting-based ensemble
// models" the paper cites ([41] Friedman, [42] XGBoost) as candidate
// inference models (RT3.3).
type GradientBoosting struct {
	// Rounds is the number of boosting stages (default 50).
	Rounds int
	// LearningRate shrinks each stage (default 0.1).
	LearningRate float64
	// MaxDepth is the per-tree depth (default 2).
	MaxDepth int
	// MinLeaf is per-tree minimum leaf size (default 2).
	MinLeaf int

	base  float64
	trees []*RegressionTree
}

// Fit trains the ensemble.
func (g *GradientBoosting) Fit(xs [][]float64, ys []float64) error {
	if len(xs) == 0 || len(ys) < len(xs) {
		return fmt.Errorf("gradient boosting fit: %w", ml.ErrNoData)
	}
	rounds := g.Rounds
	if rounds <= 0 {
		rounds = 50
	}
	lr := g.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	depth := g.MaxDepth
	if depth <= 0 {
		depth = 2
	}
	g.base = ml.Mean(ys[:len(xs)])
	g.trees = g.trees[:0]
	resid := make([]float64, len(xs))
	pred := make([]float64, len(xs))
	for i := range pred {
		pred[i] = g.base
	}
	for r := 0; r < rounds; r++ {
		for i := range resid {
			resid[i] = ys[i] - pred[i]
		}
		t := &RegressionTree{MaxDepth: depth, MinLeaf: g.MinLeaf}
		if err := t.Fit(xs, resid); err != nil {
			return err
		}
		g.trees = append(g.trees, t)
		var improved bool
		for i, x := range xs {
			delta := lr * t.Predict(x)
			pred[i] += delta
			if delta != 0 {
				improved = true
			}
		}
		if !improved {
			break // residuals exhausted; further rounds are no-ops
		}
	}
	return nil
}

// Predict sums the shrunken stage predictions.
func (g *GradientBoosting) Predict(x []float64) float64 {
	lr := g.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	s := g.base
	for _, t := range g.trees {
		s += lr * t.Predict(x)
	}
	return s
}

// Stages returns the number of trees actually fit.
func (g *GradientBoosting) Stages() int { return len(g.trees) }
