package explain

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/workload"
)

// trainedAgent returns an agent trained on COUNT queries over clustered
// data plus its oracle.
func trainedAgent(t *testing.T) (*core.Agent, core.Oracle, *workload.QueryStream) {
	t.Helper()
	cl := cluster.New(4, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "data", []string{"x", "y", "z"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(81)
	rows := workload.GaussianMixture(rng, 8000, 3, workload.DefaultMixture(3), 0)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(eng, tbl)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exec.CohortOracle{Ex: ex}
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 300
	agent, err := core.NewAgent(oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.NewQueryStream(workload.NewRNG(82), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 400; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	return agent, oracle, qs
}

// trustedQuery draws queries until one the agent can predict appears.
func trustedQuery(t *testing.T, agent *core.Agent, qs *workload.QueryStream) query.Query {
	t.Helper()
	for i := 0; i < 200; i++ {
		q := qs.Next()
		if _, _, ok := agent.PredictOnly(q); ok {
			return q
		}
	}
	t.Fatal("agent never trusted a query; explanation tests cannot run")
	return query.Query{}
}

func TestExplainProducesCurveAndSensitivity(t *testing.T) {
	agent, _, qs := trainedAgent(t)
	eng := New(agent)
	q := trustedQuery(t, agent, qs)
	ex, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Slopes) == 0 || len(ex.Slopes) != len(ex.Intercepts) {
		t.Fatalf("curve pieces: %d slopes, %d intercepts", len(ex.Slopes), len(ex.Intercepts))
	}
	if len(ex.Breakpoints) != len(ex.Slopes)-1 {
		t.Errorf("breakpoints %d for %d pieces", len(ex.Breakpoints), len(ex.Slopes))
	}
	if len(ex.Sensitivity) != 2 {
		t.Errorf("sensitivity dims = %d", len(ex.Sensitivity))
	}
	// COUNT grows with extent: the curve should be increasing overall.
	lo, hi := ex.ExtentRange[0], ex.ExtentRange[1]
	if ex.EvalExtent(hi) <= ex.EvalExtent(lo) {
		t.Errorf("count curve not increasing: f(%v)=%v, f(%v)=%v",
			lo, ex.EvalExtent(lo), hi, ex.EvalExtent(hi))
	}
}

func TestExplainUntrustedRegion(t *testing.T) {
	agent, _, _ := trainedAgent(t)
	eng := New(agent)
	// A region no analyst ever queried.
	q := query.Query{
		Select:    query.Selection{Center: []float64{-500, -500}, Radius: 3},
		Aggregate: query.Count,
	}
	if _, err := eng.Explain(q); !errors.Is(err, ErrUntrusted) {
		t.Errorf("err = %v, want ErrUntrusted", err)
	}
}

func TestExplainInvalidQuery(t *testing.T) {
	agent, _, _ := trainedAgent(t)
	eng := New(agent)
	if _, err := eng.Explain(query.Query{Aggregate: query.Count}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestFidelityAgainstOracle(t *testing.T) {
	agent, oracle, qs := trainedAgent(t)
	eng := New(agent)
	q := trustedQuery(t, agent, qs)
	ex, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, mape, err := Fidelity(ex, oracle, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.5 {
		t.Errorf("fidelity R2 = %v too low (mape %v)", r2, mape)
	}
}

func TestQueriesSaved(t *testing.T) {
	agent, oracle, qs := trainedAgent(t)
	eng := New(agent)
	q := trustedQuery(t, agent, qs)
	ex, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := QueriesSaved(ex, oracle, 12, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if saved < 6 {
		t.Errorf("explanation saved only %d/12 what-if queries", saved)
	}
}

func TestEvalExtentDegenerate(t *testing.T) {
	ex := &Explanation{Value: 42}
	if ex.EvalExtent(3) != 42 {
		t.Error("empty curve should return base value")
	}
}

func TestWithExtentPreservesForm(t *testing.T) {
	radius := query.Query{
		Select:    query.Selection{Center: []float64{1, 2}, Radius: 3},
		Aggregate: query.Count,
	}
	got := withExtent(radius, 5)
	if !got.Select.IsRadius() || got.Select.Radius != 5 {
		t.Errorf("radius form lost: %+v", got.Select)
	}
	rng := query.Query{
		Select:    query.Selection{Los: []float64{0, 0}, His: []float64{4, 4}},
		Aggregate: query.Count,
	}
	got = withExtent(rng, 1)
	if got.Select.IsRadius() {
		t.Error("range became radius")
	}
	if got.Select.Los[0] != 1 || got.Select.His[0] != 3 {
		t.Errorf("range resize wrong: %+v", got.Select)
	}
}
