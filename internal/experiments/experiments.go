// Package experiments contains the runnable reproductions of the
// experiments in DESIGN.md's per-experiment index (E1-E12, E15, E18-E22
// plus ablations A1-A5). Each experiment is a pure function from
// parameters to a typed row of results; the root bench_test.go and
// cmd/seabench both drive these functions, so benchmark metrics and
// printed tables always agree.
//
// The paper is a vision paper with no evaluation tables; E1-E12 and the
// ablations quantify its claims C1-C10 (see DESIGN.md) on the simulated
// BDAS, and DESIGN.md's index states what each one reproduces. E18-E22
// gate what an instrument costs the serving path with one estimator
// (overhead.go). The serving system's end-to-end performance is
// measured by bench/, whose rows are kept in bench/trajectory/.
package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Env is a ready simulated BDAS with clustered data, shared by several
// experiments.
type Env struct {
	Cluster  *cluster.Cluster
	Engine   *engine.Engine
	Table    *cluster.Table
	Executor *exec.Executor
	Rows     []storage.Row
}

// NewEnv builds the standard environment: nodes data servers, 3-column
// Gaussian-mixture data (x, y spatial; z = 2x + 5 + noise), 2*nodes
// partitions.
func NewEnv(nRows, nodes int, seed int64) (*Env, error) {
	cl := cluster.New(nodes, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "data", []string{"x", "y", "z"}, 2*nodes)
	if err != nil {
		return nil, fmt.Errorf("experiments env: %w", err)
	}
	rows := workload.StandardRows(nRows, seed)
	if err := tbl.Load(rows); err != nil {
		return nil, fmt.Errorf("experiments env: %w", err)
	}
	ex, err := exec.New(eng, tbl)
	if err != nil {
		return nil, fmt.Errorf("experiments env: %w", err)
	}
	return &Env{Cluster: cl, Engine: eng, Table: tbl, Executor: ex, Rows: rows}, nil
}

// stream builds the standard two-region analyst query stream.
func stream(seed int64, agg query.Agg) *workload.QueryStream {
	qs := workload.NewQueryStream(workload.NewRNG(seed), workload.DefaultRegions(2), agg)
	if agg == query.Avg || agg == query.Sum {
		qs.Col = 2
	}
	if agg == query.Corr || agg == query.RegSlope {
		qs.Col, qs.Col2 = 0, 2
	}
	return qs
}

// E1Row is one row of the Fig.1-vs-Fig.2 contrast (C1 efficiency).
type E1Row struct {
	Rows            int
	BDASMeanLatency time.Duration
	SEAMeanLatency  time.Duration
	SpeedupX        float64
	BDASRowsRead    int64
	SEARowsRead     int64
	PredictionRate  float64
	BDASDollars     float64
	SEADollars      float64
}

// E1DatalessVsBDAS trains an agent on `training` queries and compares
// answering `eval` further queries through the agent (Fig. 2) against
// answering all of them through the traditional stack (Fig. 1).
func E1DatalessVsBDAS(nRows, nodes, training, eval int) (E1Row, error) {
	env, err := NewEnv(nRows, nodes, 1)
	if err != nil {
		return E1Row{}, err
	}
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = training
	agent, err := core.NewAgent(exec.MapReduceOracle{Ex: env.Executor}, cfg)
	if err != nil {
		return E1Row{}, err
	}
	qs := stream(2, query.Count)
	for i := 0; i < training; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			return E1Row{}, err
		}
	}
	// Pre-generate the evaluation queries so both paths see identical
	// workloads.
	queries := qs.Batch(eval)
	var bdas metrics.Counter
	for _, q := range queries {
		_, c, err := env.Executor.ExactMapReduce(q)
		if err != nil {
			return E1Row{}, err
		}
		bdas.Observe(c)
	}
	var seaC metrics.Counter
	pre := agent.Stats()
	for _, q := range queries {
		ans, err := agent.Answer(q)
		if err != nil {
			return E1Row{}, err
		}
		seaC.Observe(ans.Cost)
	}
	post := agent.Stats()
	prices := metrics.DefaultPrices()
	row := E1Row{
		Rows:            nRows,
		BDASMeanLatency: bdas.MeanTime(),
		SEAMeanLatency:  seaC.MeanTime(),
		BDASRowsRead:    bdas.Total().RowsRead,
		SEARowsRead:     seaC.Total().RowsRead,
		PredictionRate:  float64(post.Predicted-pre.Predicted) / float64(eval),
		BDASDollars:     prices.Dollars(bdas.Total()),
		SEADollars:      prices.Dollars(seaC.Total()),
	}
	if row.SEAMeanLatency > 0 {
		row.SpeedupX = float64(row.BDASMeanLatency) / float64(row.SEAMeanLatency)
	}
	return row, nil
}

// E2Row compares count accuracy and cost across SEA, AQP, and exact.
type E2Row struct {
	Training       int
	SampleFraction float64
	SEAMAPE        float64
	AQPMAPE        float64
	SEARowsPerQ    float64
	AQPRowsPerQ    float64
	ExactRowsPerQ  float64
	AQPSampleBytes int64
	PredictionRate float64
}

// E3Row reports data-less accuracy for AVG and regression-coefficient
// queries (C1, refs [28][29]).
type E3Row struct {
	AvgMAPE        float64
	SlopeMAE       float64
	CorrMAE        float64
	PredictionRate float64
}

// E3AvgRegression trains agents for AVG, CORR and REGSLOPE streams and
// measures prediction error on held-out queries.
func E3AvgRegression(nRows, training, eval int) (E3Row, error) {
	env, err := NewEnv(nRows, 8, 3)
	if err != nil {
		return E3Row{}, err
	}
	type spec struct {
		agg query.Agg
	}
	specs := []spec{{query.Avg}, {query.RegSlope}, {query.Corr}}
	var row E3Row
	var predTotal, evalTotal int
	for _, sp := range specs {
		cfg := core.DefaultConfig(2)
		cfg.TrainingQueries = training
		agent, err := core.NewAgent(exec.CohortOracle{Ex: env.Executor}, cfg)
		if err != nil {
			return E3Row{}, err
		}
		qs := stream(4, sp.agg)
		for i := 0; i < training; i++ {
			if _, err := agent.Answer(qs.Next()); err != nil {
				return E3Row{}, err
			}
		}
		var sumErr float64
		var n int
		for i := 0; i < eval; i++ {
			q := qs.Next()
			truth, _, err := env.Executor.ExactCohort(q)
			if err != nil {
				return E3Row{}, err
			}
			ans, err := agent.Answer(q)
			if err != nil {
				return E3Row{}, err
			}
			evalTotal++
			if !ans.Predicted {
				continue
			}
			predTotal++
			switch sp.agg {
			case query.Avg:
				if math.Abs(truth.Value) > 1 {
					sumErr += math.Abs(ans.Value-truth.Value) / math.Abs(truth.Value)
					n++
				}
			default:
				sumErr += math.Abs(ans.Value - truth.Value)
				n++
			}
		}
		mean := 0.0
		if n > 0 {
			mean = sumErr / float64(n)
		}
		switch sp.agg {
		case query.Avg:
			row.AvgMAPE = mean
		case query.RegSlope:
			row.SlopeMAE = mean
		case query.Corr:
			row.CorrMAE = mean
		}
	}
	if evalTotal > 0 {
		row.PredictionRate = float64(predTotal) / float64(evalTotal)
	}
	return row, nil
}

// E11Row reports model-maintenance behaviour under drift and updates.
type E11Row struct {
	PreDriftMAPE      float64
	PostDriftMAPE     float64 // right after the shift, before adaptation
	RecoveredMAPE     float64 // after the agent adapts
	PostUpdateExact   int     // forced exact answers right after update
	RecoveredPredRate float64
}

// E11Maintenance shifts the analysts' interest regions mid-stream and
// then mutates the base data, measuring accuracy before, during, and
// after the agent's adaptation (RT1.4).
func E11Maintenance(nRows int) (E11Row, error) {
	env, err := NewEnv(nRows, 8, 5)
	if err != nil {
		return E11Row{}, err
	}
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 300
	agent, err := core.NewAgent(exec.CohortOracle{Ex: env.Executor}, cfg)
	if err != nil {
		return E11Row{}, err
	}
	qs := stream(6, query.Count)
	for i := 0; i < 350; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			return E11Row{}, err
		}
	}
	measure := func(n int) (mape float64, predRate float64, err error) {
		var sum float64
		var cnt, pred int
		for i := 0; i < n; i++ {
			q := qs.Next()
			truth, _, err := env.Executor.ExactCohort(q)
			if err != nil {
				return 0, 0, err
			}
			ans, err := agent.Answer(q)
			if err != nil {
				return 0, 0, err
			}
			if ans.Predicted {
				pred++
				if truth.Value > 20 {
					sum += math.Abs(ans.Value-truth.Value) / truth.Value
					cnt++
				}
			}
		}
		if cnt > 0 {
			mape = sum / float64(cnt)
		}
		return mape, float64(pred) / float64(n), nil
	}
	var row E11Row
	if row.PreDriftMAPE, _, err = measure(100); err != nil {
		return row, err
	}
	// Interest drift: regions shift by 10 units.
	qs.Shift(10)
	if row.PostDriftMAPE, _, err = measure(50); err != nil {
		return row, err
	}
	// Let the agent adapt (fallbacks grow new quanta), then purge stale.
	for i := 0; i < 300; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			return row, err
		}
	}
	agent.PurgeStaleQuanta(400)
	if row.RecoveredMAPE, _, err = measure(100); err != nil {
		return row, err
	}
	// Base-data update: shift z, notify, count forced exact answers.
	if _, _, err := env.Table.UpdateWhere(
		func(storage.Row) bool { return true },
		func(r *storage.Row) { r.Vec[2] += 50 },
	); err != nil {
		return row, err
	}
	for i := 0; i < 20; i++ {
		ans, err := agent.Answer(qs.Next())
		if err != nil {
			return row, err
		}
		if !ans.Predicted {
			row.PostUpdateExact++
		}
	}
	if _, row.RecoveredPredRate, err = measure(100); err != nil {
		return row, err
	}
	return row, nil
}
