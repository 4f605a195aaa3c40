// Package impute implements scalable missing-value imputation (paper §IV
// P3, ref [36] "Scaling out big data missing value imputations"): filling
// NaN cells of incomplete rows from their k nearest complete rows.
//
// Two implementations reproduce the paper's contrast:
//
//   - FullScan: the BDAS-style baseline — every incomplete row is matched
//     against every complete row (a MapReduce-style all-pairs pass).
//
//   - Centroid: the scalable method — complete rows are clustered
//     offline; each incomplete row is routed to its nearest centroid
//     (using only its observed dimensions) and imputed from that
//     cluster's members alone, reading a small fraction of the data.
package impute

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/learn"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// ErrNoCompleteRows is returned when the dataset has no complete rows to
// impute from.
var ErrNoCompleteRows = errors.New("impute: no complete rows")

// Imputer fills missing values in one table.
type Imputer struct {
	cl *cluster.Cluster
	// K is the neighbourhood size (default 5).
	K int
	// Clusters is the centroid count for the scalable path (default 16).
	Clusters int
}

// New creates an imputer over cl.
func New(cl *cluster.Cluster) *Imputer {
	return &Imputer{cl: cl, K: 5, Clusters: 16}
}

// split partitions rows into complete and incomplete index lists.
func split(rows []storage.Row) (complete, incomplete []int) {
	for i, r := range rows {
		missing := false
		for _, v := range r.Vec {
			if math.IsNaN(v) {
				missing = true
				break
			}
		}
		if missing {
			incomplete = append(incomplete, i)
		} else {
			complete = append(complete, i)
		}
	}
	return complete, incomplete
}

// obsDistance computes distance over the dimensions observed in a.
func obsDistance(a, b []float64) float64 {
	var s float64
	n := 0
	for j := 0; j < len(a) && j < len(b); j++ {
		if math.IsNaN(a[j]) || math.IsNaN(b[j]) {
			continue
		}
		d := a[j] - b[j]
		s += d * d
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	// Normalise by observed dims so rows with more NaNs aren't closer.
	return math.Sqrt(s / float64(n))
}

// imputeFrom fills row's NaN cells with the mean of its k nearest rows
// among the candidate pool, returning the filled copy.
func (im *Imputer) imputeFrom(row storage.Row, pool []storage.Row) storage.Row {
	k := im.K
	if k < 1 {
		k = 5
	}
	type nd struct {
		idx int
		d   float64
	}
	ds := make([]nd, 0, len(pool))
	for i, p := range pool {
		ds = append(ds, nd{i, obsDistance(row.Vec, p.Vec)})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
	if len(ds) > k {
		ds = ds[:k]
	}
	out := storage.Row{Key: row.Key, Vec: append([]float64(nil), row.Vec...)}
	for j, v := range out.Vec {
		if !math.IsNaN(v) {
			continue
		}
		var s float64
		var n int
		for _, d := range ds {
			pv := pool[d.idx].Vec[j]
			if !math.IsNaN(pv) {
				s += pv
				n++
			}
		}
		if n > 0 {
			out.Vec[j] = s / float64(n)
		} else {
			out.Vec[j] = 0
		}
	}
	return out
}

// Result is the outcome of one imputation run.
type Result struct {
	// Filled maps row index (within the input slice) to the filled row.
	Filled map[int]storage.Row
	// CellsFilled counts imputed cells.
	CellsFilled int
}

// FullScan imputes every incomplete row against the full complete set —
// the all-pairs baseline. Cost: a framework job per node plus an
// all-pairs distance computation (rowsRead = |incomplete| x |complete|).
func (im *Imputer) FullScan(rows []storage.Row) (Result, metrics.Cost, error) {
	complete, incomplete := split(rows)
	if len(complete) == 0 {
		return Result{}, metrics.Cost{}, ErrNoCompleteRows
	}
	pool := make([]storage.Row, len(complete))
	for i, idx := range complete {
		pool[i] = rows[idx]
	}
	res := Result{Filled: make(map[int]storage.Row, len(incomplete))}
	for _, idx := range incomplete {
		filled := im.imputeFrom(rows[idx], pool)
		res.CellsFilled += countFilled(rows[idx], filled)
		res.Filled[idx] = filled
	}
	// Cost model: per-node job overhead + all-pairs scan work.
	pairRows := int64(len(incomplete)) * int64(len(complete))
	rowBytes := int64(8)
	if len(rows) > 0 {
		rowBytes = rows[0].Bytes()
	}
	cost := im.cl.FrameworkLaunch()
	for n := 1; n < im.cl.Size(); n++ {
		cost = cost.Merge(im.cl.FrameworkLaunch())
	}
	// The scan work parallelises over nodes; time divides, totals don't.
	scan := im.cl.ScanCost(pairRows, rowBytes)
	scan.Time /= time.Duration(im.cl.Size())
	cost = cost.Add(scan)
	cost = cost.Add(im.cl.TransferLAN(int64(len(incomplete)) * rowBytes))
	return res, cost, nil
}

// Centroid imputes via the scalable path: offline k-means over complete
// rows, then per-row routing to one cluster.
func (im *Imputer) Centroid(rows []storage.Row, seed int64) (Result, metrics.Cost, error) {
	complete, incomplete := split(rows)
	if len(complete) == 0 {
		return Result{}, metrics.Cost{}, ErrNoCompleteRows
	}
	// Offline clustering (index build: uncharged, like other indexes).
	vecs := make([][]float64, len(complete))
	pool := make([]storage.Row, len(complete))
	for i, idx := range complete {
		pool[i] = rows[idx]
		vecs[i] = rows[idx].Vec
	}
	kc := im.Clusters
	if kc < 1 {
		kc = 16
	}
	km := learn.KMeans{K: kc}
	if err := km.Fit(vecs, rand.New(rand.NewSource(seed))); err != nil {
		return Result{}, metrics.Cost{}, fmt.Errorf("impute centroid: %w", err)
	}
	members := make([][]storage.Row, kc)
	for i, v := range vecs {
		c := km.Assign(v)
		members[c] = append(members[c], pool[i])
	}
	centroids := km.Centroids()

	res := Result{Filled: make(map[int]storage.Row, len(incomplete))}
	var rowsTouched int64
	for _, idx := range incomplete {
		row := rows[idx]
		// Route by observed-dimension distance to centroids.
		best, bestD := 0, math.Inf(1)
		for c, cen := range centroids {
			if d := obsDistance(row.Vec, cen); d < bestD {
				best, bestD = c, d
			}
		}
		cluster := members[best]
		if len(cluster) == 0 {
			cluster = pool
		}
		rowsTouched += int64(len(cluster))
		filled := im.imputeFrom(row, cluster)
		res.CellsFilled += countFilled(row, filled)
		res.Filled[idx] = filled
	}
	rowBytes := int64(8)
	if len(rows) > 0 {
		rowBytes = rows[0].Bytes()
	}
	cost := im.cl.CohortLaunch()
	scan := im.cl.ScanCost(rowsTouched, rowBytes)
	scan.Time /= time.Duration(im.cl.Size())
	cost = cost.Add(scan)
	cost = cost.Add(im.cl.TransferLAN(int64(len(incomplete)) * rowBytes))
	return res, cost, nil
}

func countFilled(before, after storage.Row) int {
	n := 0
	for j := range before.Vec {
		if math.IsNaN(before.Vec[j]) && !math.IsNaN(after.Vec[j]) {
			n++
		}
	}
	return n
}

// RMSE computes imputation accuracy against ground truth: the root mean
// squared error over cells that were missing, given the original
// (unmasked) rows.
func RMSE(truth, masked []storage.Row, res Result) float64 {
	var sse float64
	var n int
	for idx, filled := range res.Filled {
		if idx >= len(truth) {
			continue
		}
		for j := range masked[idx].Vec {
			if math.IsNaN(masked[idx].Vec[j]) && j < len(truth[idx].Vec) && j < len(filled.Vec) {
				d := filled.Vec[j] - truth[idx].Vec[j]
				sse += d * d
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sse / float64(n))
}
