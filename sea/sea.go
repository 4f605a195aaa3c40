// Package sea is the public API of the SEA reproduction: Scalable,
// Efficient, Accurate analytics via data-less query processing
// (Triantafillou, "Towards Intelligent Distributed Data Systems for
// Scalable Efficient and Accurate Analytics", ICDCS 2018).
//
// A System bundles a simulated Big Data Analytics Stack — cluster, a
// partitioned storage back-end, and both execution paradigms — and an
// Agent realises the paper's Fig. 2 pipeline on top of it: analytical
// queries are intercepted, an initial prefix trains per-quantum learned
// models, and subsequent queries are answered from the models without
// touching base data, with estimated errors and automatic exact fallback.
//
// Quickstart:
//
//	sys, _ := sea.NewSystem(sea.SystemConfig{Nodes: 8, Partitions: 16, Columns: []string{"x", "y"}})
//	_ = sys.Load(rows)
//	agent, _ := sys.NewAgent(sea.AgentConfig{Dims: 2, TrainingQueries: 300})
//	ans, _ := agent.Count(sea.Range([]float64{20, 20}, []float64{30, 30}))
//	fmt.Println(ans.Value, ans.Predicted, ans.EstError)
//
// See examples/ for runnable end-to-end scenarios and DESIGN.md for the
// full system inventory.
package sea

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/explain"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
)

// ErrNotLoaded is returned when an agent is requested before data is
// loaded.
var ErrNotLoaded = errors.New("sea: load data before creating agents")

// Row is one stored record: a key plus numeric attributes.
type Row = storage.Row

// Cost is the itemised execution cost of an operation.
type Cost = metrics.Cost

// Selection carves out a data subspace (range or radius form).
type Selection = query.Selection

// Query is a full analytical query.
type Query = query.Query

// Answer is the agent's reply (value, predicted?, estimated error, cost).
type Answer = core.Answer

// Explanation is a query-answer explanation (RT4).
type Explanation = explain.Explanation

// Aggregate kinds re-exported for query construction.
const (
	Count    = query.Count
	Sum      = query.Sum
	Avg      = query.Avg
	Var      = query.Var
	Corr     = query.Corr
	RegSlope = query.RegSlope
)

// Range builds a hyper-rectangle selection.
func Range(los, his []float64) Selection {
	return Selection{
		Los: append([]float64(nil), los...),
		His: append([]float64(nil), his...),
	}
}

// Radius builds a hyper-sphere selection.
func Radius(center []float64, r float64) Selection {
	return Selection{Center: append([]float64(nil), center...), Radius: r}
}

// SystemConfig sizes the simulated BDAS.
type SystemConfig struct {
	// Nodes is the cluster size (default 8).
	Nodes int
	// Partitions is the table partition count (default 2x nodes).
	Partitions int
	// Columns names the table's attributes.
	Columns []string
	// Cluster overrides the cost model (zero value = DefaultConfig).
	Cluster cluster.Config
}

// System is one simulated BDAS holding one table.
type System struct {
	cl    *cluster.Cluster
	eng   *engine.Engine
	table *cluster.Table
	ex    *exec.Executor
}

// NewSystem builds an empty system.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Nodes < 1 {
		cfg.Nodes = 8
	}
	if cfg.Partitions < 1 {
		cfg.Partitions = 2 * cfg.Nodes
	}
	if len(cfg.Columns) == 0 {
		return nil, fmt.Errorf("sea: SystemConfig.Columns required")
	}
	if cfg.Cluster == (cluster.Config{}) {
		cfg.Cluster = cluster.DefaultConfig()
	}
	cl := cluster.New(cfg.Nodes, cfg.Cluster)
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "data", cfg.Columns, cfg.Partitions)
	if err != nil {
		return nil, fmt.Errorf("sea: %w", err)
	}
	return &System{cl: cl, eng: eng, table: tbl}, nil
}

// Load bulk-loads rows and prepares the exact executors.
func (s *System) Load(rows []Row) error {
	if err := s.table.Load(rows); err != nil {
		return fmt.Errorf("sea: load: %w", err)
	}
	ex, err := exec.New(s.eng, s.table)
	if err != nil {
		return fmt.Errorf("sea: load: %w", err)
	}
	s.ex = ex
	return nil
}

// Rows returns the loaded row count.
func (s *System) Rows() int64 { return s.table.Rows() }

// Table exposes the underlying table (for advanced use: updates,
// operators from the internal packages).
func (s *System) Table() *cluster.Table { return s.table }

// Engine exposes the execution engine.
func (s *System) Engine() *engine.Engine { return s.eng }

// Cluster exposes the simulated cluster.
func (s *System) Cluster() *cluster.Cluster { return s.cl }

// Executor exposes the exact executor (nil before Load).
func (s *System) Executor() *exec.Executor { return s.ex }

// ExactMapReduce answers q through the traditional full-stack path
// (paper Fig. 1).
func (s *System) ExactMapReduce(q Query) (query.Result, Cost, error) {
	if s.ex == nil {
		return query.Result{}, Cost{}, ErrNotLoaded
	}
	return s.ex.ExactMapReduce(q)
}

// ExactCohort answers q through the coordinator-cohort path (RT3.2).
func (s *System) ExactCohort(q Query) (query.Result, Cost, error) {
	if s.ex == nil {
		return query.Result{}, Cost{}, ErrNotLoaded
	}
	return s.ex.ExactCohort(q)
}

// AgentConfig tunes a data-less analytics agent. Zero values take the
// defaults of the underlying core.DefaultConfig.
type AgentConfig struct {
	// Dims is the selection dimensionality (required).
	Dims int
	// TrainingQueries is the training prefix length.
	TrainingQueries int
	// FallbackThreshold is the estimated-error bound for predictions.
	FallbackThreshold float64
	// UseMapReduceOracle trains through the Fig. 1 path when true
	// (default) or the cohort path when false.
	UseMapReduceOracle bool
	// DriftRowBudget enables incremental model maintenance under a live
	// write path: ingested rows update additive models in place and
	// stale quanta invalidate surgically instead of wholesale (see
	// core.Config.DriftRowBudget). 0 keeps the legacy behaviour.
	DriftRowBudget int
}

// Agent is the public handle of the SEA intelligent agent (Fig. 2).
type Agent struct {
	inner   *core.Agent
	explain *explain.Engine
	oracle  core.Oracle
}

// NewAgent builds a data-less analytics agent over the system.
func (s *System) NewAgent(cfg AgentConfig) (*Agent, error) {
	if s.ex == nil {
		return nil, ErrNotLoaded
	}
	cc := core.DefaultConfig(cfg.Dims)
	if cfg.TrainingQueries > 0 {
		cc.TrainingQueries = cfg.TrainingQueries
	}
	if cfg.FallbackThreshold > 0 {
		cc.FallbackThreshold = cfg.FallbackThreshold
	}
	if cfg.DriftRowBudget > 0 {
		cc.DriftRowBudget = cfg.DriftRowBudget
	}
	var oracle core.Oracle
	if cfg.UseMapReduceOracle {
		oracle = exec.MapReduceOracle{Ex: s.ex}
	} else {
		oracle = exec.CohortOracle{Ex: s.ex}
	}
	inner, err := core.NewAgent(oracle, cc)
	if err != nil {
		return nil, fmt.Errorf("sea: %w", err)
	}
	return &Agent{inner: inner, explain: explain.New(inner), oracle: oracle}, nil
}

// Answer processes one analytical query through the agent.
func (a *Agent) Answer(q Query) (Answer, error) { return a.inner.Answer(q) }

// Count answers COUNT over the selection.
func (a *Agent) Count(sel Selection) (Answer, error) {
	return a.inner.Answer(Query{Select: sel, Aggregate: Count})
}

// Average answers AVG(col) over the selection.
func (a *Agent) Average(sel Selection, col int) (Answer, error) {
	return a.inner.Answer(Query{Select: sel, Aggregate: Avg, Col: col})
}

// Sum answers SUM(col) over the selection.
func (a *Agent) Sum(sel Selection, col int) (Answer, error) {
	return a.inner.Answer(Query{Select: sel, Aggregate: Sum, Col: col})
}

// Correlation answers CORR(col, col2) over the selection.
func (a *Agent) Correlation(sel Selection, col, col2 int) (Answer, error) {
	return a.inner.Answer(Query{Select: sel, Aggregate: Corr, Col: col, Col2: col2})
}

// Slope answers the OLS slope of col2 on col over the selection.
func (a *Agent) Slope(sel Selection, col, col2 int) (Answer, error) {
	return a.inner.Answer(Query{Select: sel, Aggregate: RegSlope, Col: col, Col2: col2})
}

// Explain derives a query-answer explanation (RT4): a piecewise-linear
// model of answer vs subspace extent plus per-dimension sensitivities.
func (a *Agent) Explain(q Query) (*Explanation, error) { return a.explain.Explain(q) }

// Stats returns the agent's lifetime counters.
func (a *Agent) Stats() core.Stats { return a.inner.Stats() }

// NotifyDataChange invalidates models covering sel (nil = all).
func (a *Agent) NotifyDataChange(sel *Selection) { a.inner.NotifyDataChange(sel) }

// Inner exposes the underlying core agent for advanced composition
// (geo deployments, model export).
func (a *Agent) Inner() *core.Agent { return a.inner }

// Oracle exposes the agent's exact oracle (used by explanation-fidelity
// checks).
func (a *Agent) Oracle() core.Oracle { return a.oracle }

// SubspacesWhere scans a grid of candidate subspaces (centres on a step
// grid over [lo,hi]^dims with the given extent) and returns those whose
// predicted aggregate satisfies pred — the paper's flagship higher-level
// interrogation: "return the data subspaces where the correlation
// coefficient between attributes is greater than a threshold value"
// (RT4.1). Only model predictions are consulted: zero base-data access.
func (a *Agent) SubspacesWhere(q Query, lo, hi, step, extent float64, pred func(float64) bool) []Selection {
	dims := a.inner.Config().Dims
	var out []Selection
	center := make([]float64, dims)
	// Integer-indexed stepping: accumulating v += step drifts in
	// floating point and can skip the final grid point (hi itself).
	last := gridSteps(lo, hi, step)
	var rec func(d int)
	rec = func(d int) {
		if d == dims {
			sel := Radius(center, extent)
			qq := q
			qq.Select = sel
			if v, _, ok := a.inner.PredictOnly(qq); ok && pred(v) {
				out = append(out, sel)
			}
			return
		}
		for i := 0; i <= last; i++ {
			center[d] = lo + float64(i)*step
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

// gridSteps returns the last index i such that lo + i*step <= hi (with a
// relative tolerance so hi itself is always included when (hi-lo) is an
// integral multiple of step), or -1 for an empty range (hi < lo): the
// grid then has no points at all. A non-positive step degenerates to the
// single point lo.
func gridSteps(lo, hi, step float64) int {
	if hi < lo {
		return -1
	}
	if step <= 0 {
		return 0
	}
	span := (hi - lo) / step
	return int(math.Floor(span + 1e-9*math.Max(1, span)))
}
