// Package exec provides exact execution of analytical queries over the
// simulated BDAS, in both of the paper's paradigms:
//
//   - ExactMapReduce is the Fig. 1 path: the query descends through the
//     stack and a MapReduce-style job touches every node and scans every
//     row. This is the baseline the SEA agent's data-less path is
//     measured against (E1), and the "training oracle" that answers the
//     agent's training queries.
//
//   - ExactCohort is the coordinator–cohort path (RT3.2): with the
//     storage layer's zone maps routing the query, the coordinator
//     engages only partitions that can intersect the queried subspace,
//     and each engaged partition streams through the vectorized
//     columnar kernels (internal/query) in parallel.
//
// Both return the same answers (within reassociation tolerance for the
// second-order statistics); they differ in cost and in wall-clock speed.
package exec

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/storage"
)

// Executor runs exact analytical queries over one table.
type Executor struct {
	eng   *engine.Engine
	table *cluster.Table

	// grid is an optional density synopsis for selectivity estimates.
	grid *sketch.GridHistogram
}

// New builds an executor for table t on engine eng. Partition pruning
// metadata (zone maps) lives in the storage layer and is maintained on
// every mutation, so there is no index-build step.
func New(eng *engine.Engine, t *cluster.Table) (*Executor, error) {
	return &Executor{eng: eng, table: t}, nil
}

// Table returns the executor's table.
func (ex *Executor) Table() *cluster.Table { return ex.table }

// Engine returns the executor's engine.
func (ex *Executor) Engine() *engine.Engine { return ex.eng }

// ExactMapReduce answers q with a full MapReduce pass (Fig. 1 baseline).
func (ex *Executor) ExactMapReduce(q query.Query) (query.Result, metrics.Cost, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, metrics.Cost{}, err
	}
	if err := q.ValidateCols(ex.table.Width()); err != nil {
		return query.Result{}, metrics.Cost{}, err
	}
	const resultKey = 0
	mapper := func(row storage.Row, emit func(engine.KV)) {
		if q.Select.Contains(row.Vec) {
			emit(engine.KV{Key: resultKey, Value: query.PartialEval(q, []storage.Row{row})})
		}
	}
	reducer := func(_ uint64, values [][]float64) [][]float64 {
		res := query.MergeEval(q, values)
		return [][]float64{{res.Value, float64(res.Support)}}
	}
	out, cost, err := ex.eng.MapReduce(ex.table, mapper, reducer)
	if err != nil {
		return query.Result{}, cost, fmt.Errorf("exact mapreduce: %w", err)
	}
	if len(out) == 0 {
		return query.Result{}, cost, nil
	}
	v := out[0].Value
	return query.Result{Value: v[0], Support: int64(v[1])}, cost, nil
}

// CandidatePartitions returns the partitions whose zone maps intersect
// the selection. Zone maps are maintained by the table on every
// mutation, so the answer is always current; for range-partitioned
// tables they subsume the partition bounds, since they bound the actual
// data. The zone test runs against live bounds under the table's read
// lock (ZoneScan), so the only allocation is the candidate list itself.
func (ex *Executor) CandidatePartitions(s query.Selection) []int {
	parts := make([]int, 0, ex.table.Partitions())
	ex.table.ZoneScan(func(p int, zm storage.ZoneMap) {
		if query.ZoneCanMatch(s, zm) {
			parts = append(parts, p)
		}
	})
	return parts
}

// ExactCohort answers q by engaging only candidate partitions through
// the coordinator–cohort paradigm, evaluating each with the vectorized
// columnar kernels in parallel. With hash partitioning every partition
// is usually a candidate (data is spread uniformly), so the win comes
// from skipping job-framework overhead and from the batch kernels; with
// range partitioning the zone-map pruning is also dramatic — exactly
// the trade-off the optimizer (RT3) learns.
func (ex *Executor) ExactCohort(q query.Query) (query.Result, metrics.Cost, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, metrics.Cost{}, err
	}
	if err := q.ValidateCols(ex.table.Width()); err != nil {
		return query.Result{}, metrics.Cost{}, err
	}
	parts := ex.CandidatePartitions(q.Select)
	task := func(p int) ([][]float64, int64, error) {
		partial, rowsRead, err := partialForPartition(q, ex.table, p)
		if err != nil {
			return nil, 0, err
		}
		return [][]float64{partial}, rowsRead, nil
	}
	results, cost, err := ex.eng.CoordinatorGatherParallel(ex.table, parts, task)
	if err != nil {
		return query.Result{}, cost, fmt.Errorf("exact cohort: %w", err)
	}
	var partials [][]float64
	for _, r := range results {
		partials = append(partials, r.Results...)
	}
	return query.MergeEval(q, partials), cost, nil
}

// partialForPartition computes q's mergeable aggregate state over
// partition p of t: the columnar batch kernels when the projection is
// available, the row-at-a-time reference otherwise.
func partialForPartition(q query.Query, t *cluster.Table, p int) (partial []float64, rowsRead int64, err error) {
	view, _, err := t.ScanColumns(p)
	if err == nil {
		return query.PartialEvalView(q, view), int64(view.Len()), nil
	}
	if !errors.Is(err, cluster.ErrNoColumns) {
		return nil, 0, err
	}
	rows, _, err := t.ScanPartition(p)
	if err != nil {
		return nil, 0, err
	}
	return query.PartialEval(q, rows), int64(len(rows)), nil
}

// BuildGrid installs a density synopsis with cellsPer cells per dimension
// over the data's bounding box (an offline step; used for selectivity
// features by the optimizer).
func (ex *Executor) BuildGrid(cellsPer int) error {
	var mins, maxs []float64
	for p, zm := range ex.table.ZoneMaps() {
		if zm.Rows == 0 {
			continue
		}
		pmins, pmaxs := zm.Mins, zm.Maxs
		if pmins == nil {
			// No usable projection: derive this partition's box from rows.
			rows, _, err := ex.table.ScanPartition(p)
			if err != nil {
				return fmt.Errorf("exec: build grid: %w", err)
			}
			for _, r := range rows {
				for j := 0; j < len(r.Vec); j++ {
					if j >= len(pmins) {
						pmins = append(pmins, r.Vec[j])
						pmaxs = append(pmaxs, r.Vec[j])
						continue
					}
					if r.Vec[j] < pmins[j] {
						pmins[j] = r.Vec[j]
					}
					if r.Vec[j] > pmaxs[j] {
						pmaxs[j] = r.Vec[j]
					}
				}
			}
		}
		if mins == nil {
			mins = append([]float64(nil), pmins...)
			maxs = append([]float64(nil), pmaxs...)
			continue
		}
		for j := range mins {
			if j >= len(pmins) {
				continue
			}
			if pmins[j] < mins[j] {
				mins[j] = pmins[j]
			}
			if pmaxs[j] > maxs[j] {
				maxs[j] = pmaxs[j]
			}
		}
	}
	if mins == nil {
		return fmt.Errorf("exec: build grid: empty table %q", ex.table.Name())
	}
	// Nudge max up so the top edge lands inside the last cell.
	for j := range maxs {
		maxs[j] += 1e-9
	}
	// Cap synopsis dimensionality at 3 to bound memory (selectivity only
	// needs the leading dimensions).
	d := len(mins)
	if d > 3 {
		d = 3
	}
	g, err := sketch.NewGridHistogram(mins[:d], maxs[:d], cellsPer)
	if err != nil {
		return fmt.Errorf("exec: build grid: %w", err)
	}
	for p := 0; p < ex.table.Partitions(); p++ {
		rows, _, err := ex.table.ScanPartition(p)
		if err != nil {
			return fmt.Errorf("exec: build grid: %w", err)
		}
		for _, r := range rows {
			g.Add(r.Vec[:d])
		}
	}
	ex.grid = g
	return nil
}

// EstimateSelectivity returns the estimated fraction of rows inside the
// selection, from the grid synopsis (0 when no grid is built).
func (ex *Executor) EstimateSelectivity(s query.Selection) float64 {
	if ex.grid == nil || ex.table.Rows() == 0 {
		return 0
	}
	d := 3
	if s.Dims() < d {
		d = s.Dims()
	}
	var los, his []float64
	if s.IsRadius() {
		for j := 0; j < d; j++ {
			los = append(los, s.Center[j]-s.Radius)
			his = append(his, s.Center[j]+s.Radius)
		}
	} else {
		los = append(los, s.Los[:d]...)
		his = append(his, s.His[:d]...)
	}
	est := ex.grid.EstimateRange(los, his)
	return est / float64(ex.table.Rows())
}
