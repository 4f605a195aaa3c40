// Package aqp implements a BlinkDB-style approximate query processing
// engine (paper §II, ref [17]): stratified samples of the base data are
// materialised across the cluster's nodes, queries run over the sample
// with Horvitz-Thompson reweighting, and answers carry CLT error bounds.
//
// This is the baseline the paper critiques: "sample sizes can become
// prohibitively large", "accuracy can be quite low for many tasks", and
// the samples live *inside* the BDAS so querying them still pays
// distributed-execution costs. The E2 experiment quantifies exactly these
// three complaints against the SEA agent.
package aqp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ErrBadFraction is returned for sampling fractions outside (0, 1].
var ErrBadFraction = errors.New("aqp: sampling fraction must be in (0, 1]")

// ErrUnsupported is returned for aggregates the sampler cannot estimate.
var ErrUnsupported = errors.New("aqp: unsupported aggregate")

// Engine is the AQP engine: a sampled replica of one table.
type Engine struct {
	eng    *engine.Engine
	sample *cluster.Table
	// weight is the inverse sampling fraction applied to every sampled
	// row (uniform sampling keeps one weight; stratified sampling stores
	// per-row weights in an extra column).
	weightCol int
	baseRows  int64
}

// Build materialises a sample of t with the given fraction. Stratified
// sampling allocates the budget equally across strata defined by a grid
// over the first two columns — BlinkDB's trick for keeping rare strata
// represented. The sample is itself a distributed table (that is the
// paper's architectural complaint).
func Build(eng *engine.Engine, t *cluster.Table, fraction float64, stratify bool, seed int64) (*Engine, metrics.Cost, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, metrics.Cost{}, fmt.Errorf("%w: %v", ErrBadFraction, fraction)
	}
	rng := workload.NewRNG(seed)
	cols := t.Columns()
	weightCol := len(cols)
	sampleTbl, err := cluster.NewTable(eng.Cluster(), t.Name()+"_sample",
		append(cols, "_weight"), t.Partitions())
	if err != nil {
		return nil, metrics.Cost{}, fmt.Errorf("aqp build: %w", err)
	}

	var buildCost metrics.Cost
	var sampled []storage.Row
	if !stratify {
		for p := 0; p < t.Partitions(); p++ {
			rows, c, err := t.ScanPartition(p)
			buildCost = buildCost.Merge(c)
			if err != nil {
				return nil, buildCost, fmt.Errorf("aqp build: %w", err)
			}
			for _, r := range rows {
				if rng.Float64() < fraction {
					vec := append(append([]float64(nil), r.Vec...), 1/fraction)
					sampled = append(sampled, storage.Row{Key: r.Key, Vec: vec})
				}
			}
		}
	} else {
		// Strata = 8x8 grid over the first two columns' observed range.
		const cells = 8
		var mins, maxs [2]float64
		first := true
		var all []storage.Row
		for p := 0; p < t.Partitions(); p++ {
			rows, c, err := t.ScanPartition(p)
			buildCost = buildCost.Merge(c)
			if err != nil {
				return nil, buildCost, fmt.Errorf("aqp build: %w", err)
			}
			for _, r := range rows {
				all = append(all, r)
				for j := 0; j < 2 && j < len(r.Vec); j++ {
					if first || r.Vec[j] < mins[j] {
						mins[j] = r.Vec[j]
					}
					if first || r.Vec[j] > maxs[j] {
						maxs[j] = r.Vec[j]
					}
				}
				first = false
			}
		}
		cellOf := func(r storage.Row) int {
			id := 0
			for j := 0; j < 2 && j < len(r.Vec); j++ {
				span := maxs[j] - mins[j]
				c := 0
				if span > 0 {
					c = int(float64(cells) * (r.Vec[j] - mins[j]) / span)
				}
				if c >= cells {
					c = cells - 1
				}
				id = id*cells + c
			}
			return id
		}
		// Strata are indexed, and drawn from, in ascending cell id, so
		// one seed always draws one sample.
		strata := make([][]storage.Row, cells*cells)
		nStrata := 0
		for _, r := range all {
			id := cellOf(r)
			if len(strata[id]) == 0 {
				nStrata++
			}
			strata[id] = append(strata[id], r)
		}
		// Budget per stratum: proportional floor + equal share of the
		// rest, so small strata stay represented.
		budget := int(fraction * float64(len(all)))
		if budget < nStrata {
			budget = nStrata
		}
		perStratum := budget / nStrata
		if perStratum < 1 {
			perStratum = 1
		}
		for _, rows := range strata {
			n := len(rows)
			if n == 0 {
				continue
			}
			take := perStratum
			if take > n {
				take = n
			}
			w := float64(n) / float64(take)
			// Partial Fisher-Yates for the first `take` positions.
			for i := 0; i < take; i++ {
				j := i + rng.Intn(n-i)
				rows[i], rows[j] = rows[j], rows[i]
			}
			for _, r := range rows[:take] {
				vec := append(append([]float64(nil), r.Vec...), w)
				sampled = append(sampled, storage.Row{Key: r.Key, Vec: vec})
			}
		}
	}
	if err := sampleTbl.Load(sampled); err != nil {
		return nil, buildCost, fmt.Errorf("aqp build: %w", err)
	}
	// Loading the sample into the distributed store ships its bytes.
	buildCost = buildCost.Add(eng.Cluster().TransferLAN(int64(len(sampled)) * sampleTbl.RowBytes()))
	return &Engine{
		eng:       eng,
		sample:    sampleTbl,
		weightCol: weightCol,
		baseRows:  t.Rows(),
	}, buildCost, nil
}

// SampleRows returns the materialised sample's row count (the storage
// cost the paper calls prohibitive).
func (e *Engine) SampleRows() int64 { return e.sample.Rows() }

// SampleBytes returns the sample's storage footprint.
func (e *Engine) SampleBytes() int64 {
	return e.sample.Rows() * e.sample.RowBytes()
}

// Answer estimates q over the sample. The returned bound is a ~95%
// confidence half-width for Count/Sum/Avg (CLT over the weighted
// sample); Corr/RegSlope return plug-in estimates with a zero bound.
func (e *Engine) Answer(q query.Query) (query.Result, float64, metrics.Cost, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, 0, metrics.Cost{}, err
	}
	// Aggregate columns refer to the base schema; the sample appends a
	// weight column past it.
	if err := q.ValidateCols(e.weightCol); err != nil {
		return query.Result{}, 0, metrics.Cost{}, err
	}
	// Scan the (distributed) sample with the cohort engine: all sample
	// partitions, each fully read — the sample is small but the
	// distributed machinery is still paid, per the paper's critique. The
	// selection itself runs through the vectorized columnar kernel; the
	// few matching rows are materialised from the column views for the
	// weighted estimators.
	parts := make([]int, e.sample.Partitions())
	for i := range parts {
		parts[i] = i
	}
	matchedPer := make([][]storage.Row, e.sample.Partitions())
	task := func(p int) ([][]float64, int64, error) {
		view, _, err := e.sample.ScanColumns(p)
		if err != nil {
			if !errors.Is(err, cluster.ErrNoColumns) {
				return nil, 0, err
			}
			rows, _, err := e.sample.ScanPartition(p)
			if err != nil {
				return nil, 0, err
			}
			var m []storage.Row
			for _, r := range rows {
				if q.Select.Contains(r.Vec) {
					m = append(m, r)
				}
			}
			matchedPer[p] = m
			return nil, int64(len(rows)), nil
		}
		idx := query.SelectIndices(q.Select, view)
		m := make([]storage.Row, 0, len(idx))
		for _, i := range idx {
			m = append(m, storage.Row{Key: view.Keys[i], Vec: view.Row(i)})
		}
		matchedPer[p] = m
		return nil, int64(view.Len()), nil
	}
	_, cost, err := e.eng.CoordinatorGatherParallel(e.sample, parts, task)
	if err != nil {
		return query.Result{}, 0, cost, fmt.Errorf("aqp answer: %w", err)
	}
	var matched []storage.Row
	for _, m := range matchedPer {
		matched = append(matched, m...)
	}
	cost = cost.Add(e.eng.Cluster().TransferLAN(int64(len(matched)) * 16))

	res, bound, err := e.estimate(q, matched)
	return res, bound, cost, err
}

func (e *Engine) estimate(q query.Query, matched []storage.Row) (query.Result, float64, error) {
	n := len(matched)
	support := int64(0)
	for _, r := range matched {
		support += int64(math.Round(r.Vec[e.weightCol]))
	}
	switch q.Aggregate {
	case query.Count:
		// HT estimator: sum of weights. Variance ~ sum w_i (w_i - 1).
		var est, varSum float64
		for _, r := range matched {
			w := r.Vec[e.weightCol]
			est += w
			varSum += w * (w - 1)
		}
		return query.Result{Value: est, Support: support}, 1.96 * math.Sqrt(varSum), nil
	case query.Sum, query.Avg:
		var wSum, wvSum, wvvSum float64
		for _, r := range matched {
			w := r.Vec[e.weightCol]
			v := colVal(r, q.Col)
			wSum += w
			wvSum += w * v
			wvvSum += w * v * v
		}
		if wSum == 0 {
			return query.Result{}, 0, nil
		}
		if q.Aggregate == query.Sum {
			mean := wvSum / wSum
			variance := wvvSum/wSum - mean*mean
			bound := 1.96 * math.Sqrt(math.Max(0, variance)) * wSum / math.Sqrt(math.Max(1, float64(n)))
			return query.Result{Value: wvSum, Support: support}, bound, nil
		}
		mean := wvSum / wSum
		variance := wvvSum/wSum - mean*mean
		bound := 1.96 * math.Sqrt(math.Max(0, variance)/math.Max(1, float64(n)))
		return query.Result{Value: mean, Support: support}, bound, nil
	case query.Var, query.Corr, query.RegSlope:
		// Plug-in estimates from the sample (weights ignored for the
		// scale-free statistics).
		res := query.EvalRows(query.Query{
			Select: q.Select, Aggregate: q.Aggregate, Col: q.Col, Col2: q.Col2,
		}, matched)
		res.Support = support
		return res, 0, nil
	default:
		return query.Result{}, 0, fmt.Errorf("%w: %v", ErrUnsupported, q.Aggregate)
	}
}

func colVal(r storage.Row, col int) float64 {
	if col < 0 || col >= len(r.Vec) {
		return 0
	}
	return r.Vec[col]
}
