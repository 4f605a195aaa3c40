package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// testHarness bundles an agent over a small simulated BDAS.
type testHarness struct {
	agent *Agent
	ex    *exec.Executor
	qs    *workload.QueryStream
}

func newHarness(t *testing.T, nRows int, cfg Config) *testHarness {
	t.Helper()
	cl := cluster.New(4, cluster.DefaultConfig())
	eng := engine.New(cl)
	// Columns: x, y spatial (clustered); z = 2x + 5 + noise (dependent
	// attribute). Selections constrain only (x, y), so the spatial
	// clustering the query stream targets stays intact.
	tbl, err := cluster.NewTable(cl, "data", []string{"x", "y", "z"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(21)
	rows := workload.GaussianMixture(rng, nRows, 3, workload.DefaultMixture(3), 0)
	workload.CorrelatedColumns(rng, rows, 0, 2, 2, 5, 1)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(eng, tbl)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(exec.MapReduceOracle{Ex: ex}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.NewQueryStream(workload.NewRNG(22), workload.DefaultRegions(2), query.Count)
	return &testHarness{agent: agent, ex: ex, qs: qs}
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(nil, Config{}); err == nil {
		t.Error("want error for Dims = 0")
	}
	a, err := NewAgent(nil, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Without an oracle, the first (training) query must fail cleanly.
	q := query.Query{
		Select:    query.Selection{Center: []float64{1, 1}, Radius: 1},
		Aggregate: query.Count,
	}
	if _, err := a.Answer(q); !errors.Is(err, ErrNoOracle) {
		t.Errorf("err = %v, want ErrNoOracle", err)
	}
}

func TestAgentRejectsInvalidQuery(t *testing.T) {
	h := newHarness(t, 500, DefaultConfig(2))
	if _, err := h.agent.Answer(query.Query{Aggregate: query.Count}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestTrainingPhaseGoesToOracle(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 20
	h := newHarness(t, 2000, cfg)
	for i := 0; i < 20; i++ {
		ans, err := h.agent.Answer(h.qs.Next())
		if err != nil {
			t.Fatal(err)
		}
		if ans.Predicted {
			t.Fatalf("query %d predicted during training", i)
		}
		if ans.Cost.RowsRead == 0 {
			t.Fatalf("training query %d read no base data", i)
		}
	}
	st := h.agent.Stats()
	if st.Exact != 20 || st.Predicted != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Quanta == 0 {
		t.Error("no quanta formed during training")
	}
}

func TestAgentLearnsToPredictCounts(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 250
	h := newHarness(t, 8000, cfg)

	// Training phase.
	for i := 0; i < cfg.TrainingQueries; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	// Evaluation phase: measure prediction rate and accuracy.
	var predicted, total int
	var relErrSum float64
	for i := 0; i < 300; i++ {
		q := h.qs.Next()
		truth, _, err := h.ex.ExactCohort(q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := h.agent.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if ans.Predicted {
			predicted++
			if ans.Cost.RowsRead != 0 {
				t.Fatal("predicted answer touched base data")
			}
			if truth.Value > 20 {
				relErrSum += math.Abs(ans.Value-truth.Value) / truth.Value
			}
		}
	}
	if predicted < total/2 {
		t.Errorf("prediction rate %d/%d too low", predicted, total)
	}
	if predicted > 0 {
		meanRel := relErrSum / float64(predicted)
		if meanRel > 0.25 {
			t.Errorf("mean relative error %.3f too high", meanRel)
		}
	}
	// Data-less answers must be orders of magnitude cheaper.
	st := h.agent.Stats()
	if st.Predicted == 0 {
		t.Fatal("no predictions at all")
	}
	predCost := st.TotalCost.Add(metrics.Cost{}).Time - st.OracleCost.Time
	meanPred := predCost / time.Duration(st.Predicted)
	meanOracle := st.OracleCost.Time / time.Duration(st.Exact)
	if meanOracle < 100*meanPred {
		t.Errorf("oracle/predict cost ratio too small: %v vs %v", meanOracle, meanPred)
	}
}

func TestAgentPredictsAvgAndSlope(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 200
	h := newHarness(t, 8000, cfg)
	// Avg of z inside subspaces; z = 2x + 5 + noise, so avg(z) tracks 2*cx+5.
	h.qs.Aggregate = query.Avg
	h.qs.Col = 2
	for i := 0; i < cfg.TrainingQueries; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	var predicted int
	var absErr []float64
	for i := 0; i < 150; i++ {
		q := h.qs.Next()
		truth, _, err := h.ex.ExactCohort(q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := h.agent.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Predicted && truth.Support > 10 {
			predicted++
			absErr = append(absErr, math.Abs(ans.Value-truth.Value)/math.Max(1, math.Abs(truth.Value)))
		}
	}
	if predicted < 30 {
		t.Fatalf("AVG prediction rate too low: %d", predicted)
	}
	var s float64
	for _, e := range absErr {
		s += e
	}
	if mean := s / float64(len(absErr)); mean > 0.2 {
		t.Errorf("AVG mean relative error %.3f too high", mean)
	}
}

func TestAgentErrorEstimatesAccompanyPredictions(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 200
	h := newHarness(t, 8000, cfg)
	for i := 0; i < cfg.TrainingQueries; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		ans, err := h.agent.Answer(h.qs.Next())
		if err != nil {
			t.Fatal(err)
		}
		if ans.Predicted {
			if ans.EstError < 0 || math.IsInf(ans.EstError, 0) || math.IsNaN(ans.EstError) {
				t.Fatalf("predicted answer lacks finite error estimate: %v", ans.EstError)
			}
			if ans.EstError > cfg.FallbackThreshold {
				t.Fatalf("prediction with estimated error %v above threshold", ans.EstError)
			}
		}
	}
}

func TestDataChangeTriggersProbation(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 200
	h := newHarness(t, 8000, cfg)
	for i := 0; i < cfg.TrainingQueries+100; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	pre := h.agent.Stats()
	if pre.Predicted == 0 {
		t.Fatal("agent never predicted; test premise broken")
	}
	// Mutate the base data: all z values shift by +100.
	if _, _, err := h.ex.Table().UpdateWhere(
		func(storage.Row) bool { return true },
		func(r *storage.Row) { r.Vec[2] += 100 },
	); err != nil {
		t.Fatal(err)
	}
	// Version-based detection: next answers must fall back to exact.
	var exactAfter int
	for i := 0; i < cfg.ProbationSupport+2; i++ {
		ans, err := h.agent.Answer(h.qs.Next())
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Predicted {
			exactAfter++
		}
	}
	if exactAfter < cfg.ProbationSupport {
		t.Errorf("only %d exact answers after data change, want >= %d",
			exactAfter, cfg.ProbationSupport)
	}
}

func TestNotifyDataChangeSurgical(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 200
	h := newHarness(t, 8000, cfg)
	for i := 0; i < cfg.TrainingQueries+50; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	// Invalidate only a region far from both interest regions: behaviour
	// on the live regions must be unaffected.
	far := query.Selection{Los: []float64{-1000, -1000}, His: []float64{-900, -900}}
	h.agent.NotifyDataChange(&far)
	var predicted int
	for i := 0; i < 30; i++ {
		ans, err := h.agent.Answer(h.qs.Next())
		if err != nil {
			t.Fatal(err)
		}
		if ans.Predicted {
			predicted++
		}
	}
	if predicted == 0 {
		t.Error("surgical invalidation of a far region killed all predictions")
	}
}

func TestPurgeStaleQuanta(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 100
	h := newHarness(t, 3000, cfg)
	for i := 0; i < 150; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	before := h.agent.Quanta()
	// Nothing is stale yet at small ages.
	if removed := h.agent.PurgeStaleQuanta(1 << 40); removed != 0 {
		t.Errorf("purged %d quanta that are not stale", removed)
	}
	if h.agent.Quanta() != before {
		t.Error("quantum count changed without purging")
	}
}

func TestExportImportModel(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 150
	h := newHarness(t, 8000, cfg)
	for i := 0; i < cfg.TrainingQueries; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	// Export the first trained quantum's COUNT model...
	var weights []float64
	var quantum int
	for qi := 0; qi < h.agent.Quanta(); qi++ {
		if w := h.agent.ExportModel(query.Count, 0, 0, qi); w != nil {
			weights, quantum = w, qi
			break
		}
	}
	if weights == nil {
		t.Fatal("no exportable model found")
	}
	// ...into a fresh agent with no oracle: it must predict immediately.
	edge, err := NewAgent(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	centers := h.agent.QuantumCenters()
	newQ := edge.SeedQuantum(centers[quantum], 6)
	edge.ImportModel(query.Count, 0, 0, newQ, weights, 100, 0.05)
	q := query.Query{
		Select:    query.Selection{Center: centers[quantum], Radius: 6},
		Aggregate: query.Count,
	}
	ans, err := edge.Answer(q)
	if err != nil {
		t.Fatalf("edge agent with imported model failed: %v", err)
	}
	if !ans.Predicted {
		t.Error("imported model did not predict")
	}
	if ans.Value < 0 {
		t.Error("count prediction negative after clamping")
	}
}

func TestStatsPredictionRate(t *testing.T) {
	var s Stats
	if s.PredictionRate() != 0 {
		t.Error("empty stats rate != 0")
	}
	s.Queries = 10
	s.Predicted = 4
	if s.PredictionRate() != 0.4 {
		t.Errorf("rate = %v", s.PredictionRate())
	}
}

func TestClampPrediction(t *testing.T) {
	if clampPrediction(query.Count, -5) != 0 {
		t.Error("negative count not clamped")
	}
	if clampPrediction(query.Corr, 2) != 1 || clampPrediction(query.Corr, -2) != -1 {
		t.Error("correlation not clamped to [-1,1]")
	}
	if clampPrediction(query.Avg, -5) != -5 {
		t.Error("avg should pass through")
	}
}
