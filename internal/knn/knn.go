// Package knn implements k-nearest-neighbour query processing over the
// simulated BDAS, reproducing the contrast of ref [33] ("Scaling
// k-nearest neighbours queries (the right way)", ICDCS'17) that the paper
// cites for its three-orders-of-magnitude claim (C3):
//
//   - Scan: the SpatialHadoop/Simba-era baseline — a MapReduce job scans
//     every partition, each node emits its local top-k, the reducer
//     merges. Every row is read on every query.
//
//   - Indexed: a coordinator-side grid index routes the query to the few
//     cells (and thus partitions and rows) that can contain the answer,
//     expanding ring by ring until the k-th best distance beats the next
//     ring's lower bound. Only candidate rows are read and moved.
//
// The package also provides kNN-regression and kNN-classification on
// ad-hoc subspaces (RT2.2).
package knn

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// ErrBadK is returned for non-positive k.
var ErrBadK = errors.New("knn: k must be positive")

// Result is one neighbour.
type Result struct {
	// Row is the matched row.
	Row storage.Row
	// Dist is the Euclidean distance to the query point.
	Dist float64
}

// Operator answers kNN queries against one table using the data's first
// Dims columns as coordinates.
type Operator struct {
	eng  *engine.Engine
	tbl  *cluster.Table
	dims int
	grid *index.GridIndex
}

// New builds the operator and its coordinator-side grid index over the
// first dims columns (offline step).
func New(eng *engine.Engine, tbl *cluster.Table, dims, gridCells int) (*Operator, error) {
	if dims < 1 {
		return nil, fmt.Errorf("knn: dims must be >= 1, got %d", dims)
	}
	var pts []index.Point
	for p := 0; p < tbl.Partitions(); p++ {
		rows, _, err := tbl.ScanPartition(p)
		if err != nil {
			return nil, fmt.Errorf("knn: index build: %w", err)
		}
		for _, r := range rows {
			vec := r.Vec
			if len(vec) > dims {
				vec = vec[:dims]
			}
			pts = append(pts, index.Point{Vec: vec, Partition: p, Key: r.Key})
		}
	}
	g, err := index.NewGridIndex(pts, gridCells)
	if err != nil {
		return nil, fmt.Errorf("knn: index build: %w", err)
	}
	return &Operator{eng: eng, tbl: tbl, dims: dims, grid: g}, nil
}

func (o *Operator) dist(row storage.Row, q []float64) float64 {
	var s float64
	for j := 0; j < o.dims; j++ {
		var a, b float64
		if j < len(row.Vec) {
			a = row.Vec[j]
		}
		if j < len(q) {
			b = q[j]
		}
		d := a - b
		s += d * d
	}
	return math.Sqrt(s)
}

// Scan answers the query with the full MapReduce baseline.
func (o *Operator) Scan(q []float64, k int) ([]Result, metrics.Cost, error) {
	if k < 1 {
		return nil, metrics.Cost{}, ErrBadK
	}
	// Map: emit (0, [dist, key...]) for every row; the engine charges the
	// full scan. Reduce keeps the global top-k. To model per-node local
	// top-k (combiners), only the k best per partition are shuffled: we
	// emulate that by emitting everything but charging shuffle bytes for
	// only k per partition — the dominant cost (scan + job overhead) is
	// unchanged, matching how SpatialHadoop-style systems behave.
	type cand struct {
		key  uint64
		dist float64
	}
	perPart := make(map[int][]cand)
	for p := 0; p < o.tbl.Partitions(); p++ {
		rows, _, err := o.tbl.ScanPartition(p)
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("knn scan: %w", err)
		}
		cs := make([]cand, 0, len(rows))
		for _, r := range rows {
			cs = append(cs, cand{key: r.Key, dist: o.dist(r, q)})
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].dist < cs[j].dist })
		if len(cs) > k {
			cs = cs[:k]
		}
		perPart[p] = cs
	}
	// Cost: a full MapReduce-style pass (scan everything, framework
	// overhead per node), shuffling k candidates per partition.
	mapper := func(row storage.Row, emit func(engine.KV)) {}
	reducer := func(_ uint64, values [][]float64) [][]float64 { return nil }
	_, cost, err := o.eng.MapReduce(o.tbl, mapper, reducer)
	if err != nil {
		return nil, cost, fmt.Errorf("knn scan: %w", err)
	}
	shuffle := o.eng.Cluster().TransferLAN(int64(len(perPart)*k) * 16)
	cost = cost.Add(shuffle)

	var all []cand
	for _, cs := range perPart {
		all = append(all, cs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].key < all[j].key
	})
	if len(all) > k {
		all = all[:k]
	}
	keys := make([]uint64, len(all))
	for i, c := range all {
		keys[i] = c.key
	}
	out, fetchCost, err := o.fetchRows(keys)
	if err != nil {
		return nil, cost, err
	}
	cost = cost.Add(fetchCost)
	results := o.toResults(out, q, k)
	cost.RowsReturned = int64(len(results))
	return results, cost, nil
}

// Indexed answers the query with the grid index and expanding-ring
// candidate pulls over the coordinator–cohort engine.
func (o *Operator) Indexed(q []float64, k int) ([]Result, metrics.Cost, error) {
	if k < 1 {
		return nil, metrics.Cost{}, ErrBadK
	}
	var total metrics.Cost
	var candidates []index.Point
	kthDist := math.Inf(1)

	minCellWidth := math.Inf(1)
	for j := 0; j < o.dims; j++ {
		if w := o.grid.CellWidth(j); w < minCellWidth {
			minCellWidth = w
		}
	}

	for ring := 0; ring <= o.grid.MaxRing(); ring++ {
		// Lower bound on distance to any point in ring r (r >= 1):
		// (r-1) * cellWidth.
		if ring >= 1 && len(candidates) >= k {
			lower := float64(ring-1) * minCellWidth
			if lower > kthDist {
				break
			}
		}
		pts := o.grid.RingCandidates(q, ring)
		if len(pts) == 0 {
			continue
		}
		candidates = append(candidates, pts...)
		// Maintain the running k-th best distance from index locations.
		ds := make([]float64, len(candidates))
		for i, p := range candidates {
			ds[i] = math.Sqrt(sq(p.Vec, q))
		}
		sort.Float64s(ds)
		if len(ds) >= k {
			kthDist = ds[k-1]
		}
	}

	// Surgical fetch of the candidate rows from their partitions.
	sort.Slice(candidates, func(i, j int) bool {
		return sq(candidates[i].Vec, q) < sq(candidates[j].Vec, q)
	})
	// Fetch only the candidates that can make top-k (up to 4k for safety
	// against boundary effects between index vecs and full rows).
	fetch := candidates
	if len(fetch) > 4*k {
		fetch = fetch[:4*k]
	}
	keys := make([]uint64, len(fetch))
	for i, p := range fetch {
		keys[i] = p.Key
	}
	rows, cost, err := o.fetchRows(keys)
	if err != nil {
		return nil, total, err
	}
	total = total.Add(cost)
	results := o.toResults(rows, q, k)
	total.RowsReturned = int64(len(results))
	return results, total, nil
}

func sq(a, b []float64) float64 {
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

// fetchRows pulls the given keys' rows via the cohort engine, charging
// one surgical read per row on each involved partition.
func (o *Operator) fetchRows(keys []uint64) ([]storage.Row, metrics.Cost, error) {
	if len(keys) == 0 {
		return nil, metrics.Cost{}, nil
	}
	wanted := make(map[uint64]bool, len(keys))
	partKeys := make(map[int]int)
	for _, key := range keys {
		wanted[key] = true
		partKeys[o.tbl.PartitionFor(key, nil)]++
	}
	parts := make([]int, 0, len(partKeys))
	for p := range partKeys {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	var out []storage.Row
	task := func(part []storage.Row) ([][]float64, int64) {
		var n int64
		for _, r := range part {
			if wanted[r.Key] {
				out = append(out, r)
				n++
			}
		}
		return nil, n // point reads: one per matched key
	}
	_, cost, err := o.eng.CoordinatorGather(o.tbl, parts, task)
	if err != nil {
		return nil, cost, fmt.Errorf("knn fetch: %w", err)
	}
	// Response bytes for the fetched rows.
	cost = cost.Add(o.eng.Cluster().TransferLAN(int64(len(out)) * o.tbl.RowBytes()))
	return out, cost, nil
}

func (o *Operator) toResults(rows []storage.Row, q []float64, k int) []Result {
	res := make([]Result, 0, len(rows))
	for _, r := range rows {
		res = append(res, Result{Row: r, Dist: o.dist(r, q)})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Dist != res[j].Dist {
			return res[i].Dist < res[j].Dist
		}
		return res[i].Row.Key < res[j].Row.Key
	})
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// Regress performs kNN regression at point q: the mean of column col over
// the k nearest rows (RT2.2's "kNN regression ... exploiting insights
// gained"). It uses the indexed path.
func (o *Operator) Regress(q []float64, k, col int) (float64, metrics.Cost, error) {
	nbrs, cost, err := o.Indexed(q, k)
	if err != nil {
		return 0, cost, err
	}
	if len(nbrs) == 0 {
		return 0, cost, nil
	}
	var s float64
	for _, n := range nbrs {
		if col < len(n.Row.Vec) {
			s += n.Row.Vec[col]
		}
	}
	return s / float64(len(nbrs)), cost, nil
}

// Classify performs kNN classification at q: the majority vote of column
// col (rounded to int labels) over the k nearest rows.
func (o *Operator) Classify(q []float64, k, col int) (int, metrics.Cost, error) {
	nbrs, cost, err := o.Indexed(q, k)
	if err != nil {
		return 0, cost, err
	}
	votes := make(map[int]int)
	for _, n := range nbrs {
		if col < len(n.Row.Vec) {
			votes[int(math.Round(n.Row.Vec[col]))]++
		}
	}
	best, bestN := -1, -1
	for lbl, n := range votes {
		if n > bestN || (n == bestN && lbl < best) {
			best, bestN = lbl, n
		}
	}
	return best, cost, nil
}
