package learn

import (
	"fmt"
	"math/rand"

	"repro/internal/ml"
)

// KMeans clusters points into K groups with Lloyd's algorithm and
// k-means++ seeding. It is the batch query-space quantiser of RT1.1: SEA
// partitions the stream of analyst queries into "query quanta", each of
// which gets its own answer model.
type KMeans struct {
	// K is the number of clusters.
	K int
	// MaxIter bounds Lloyd iterations (default 50).
	MaxIter int

	centroids [][]float64
}

// Fit clusters xs. rng drives the k-means++ seeding; deterministic for a
// fixed seed.
func (km *KMeans) Fit(xs [][]float64, rng *rand.Rand) error {
	if len(xs) == 0 {
		return fmt.Errorf("kmeans fit: %w", ml.ErrNoData)
	}
	k := km.K
	if k < 1 {
		k = 1
	}
	if k > len(xs) {
		k = len(xs)
	}
	maxIter := km.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	centroids := kmeansPlusPlusSeed(xs, k, rng)
	assign := make([]int, len(xs))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, x := range xs {
			best, _ := ml.NearestCentroid(centroids, x)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		counts := make([]int, k)
		for c := range centroids {
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
		}
		for i, x := range xs {
			c := assign[i]
			counts[c]++
			ml.AXPY(1, x, centroids[c])
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centroids[c], xs[rng.Intn(len(xs))])
				continue
			}
			Scale(1/float64(counts[c]), centroids[c])
		}
	}
	km.centroids = centroids
	return nil
}

// Centroids returns copies of the fitted centroids.
func (km *KMeans) Centroids() [][]float64 {
	out := make([][]float64, len(km.centroids))
	for i, c := range km.centroids {
		out[i] = ml.CopyVec(c)
	}
	return out
}

// Assign returns the index of the centroid nearest to x.
func (km *KMeans) Assign(x []float64) int {
	i, _ := ml.NearestCentroid(km.centroids, x)
	return i
}

// Distortion returns the mean squared distance of xs to their assigned
// centroids — the quantisation-quality score used by maintenance logic.
func (km *KMeans) Distortion(xs [][]float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		_, d2 := ml.NearestCentroid(km.centroids, x)
		s += d2
	}
	return s / float64(len(xs))
}

func kmeansPlusPlusSeed(xs [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, ml.CopyVec(xs[rng.Intn(len(xs))]))
	dist := make([]float64, len(xs))
	for len(centroids) < k {
		var total float64
		for i, x := range xs {
			_, d2 := ml.NearestCentroid(centroids, x)
			dist[i] = d2
			total += d2
		}
		if total == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, ml.CopyVec(xs[rng.Intn(len(xs))]))
			continue
		}
		target := rng.Float64() * total
		var cum float64
		pick := len(xs) - 1
		for i, d2 := range dist {
			cum += d2
			if cum >= target {
				pick = i
				break
			}
		}
		centroids = append(centroids, ml.CopyVec(xs[pick]))
	}
	return centroids
}
