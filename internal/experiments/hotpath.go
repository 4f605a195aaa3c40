package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/serve"
)

// E17Fixture is a trained single-node serving stack pinned to a query
// that takes the prediction fast path — the shared setup of the E18–E20
// overhead gates and of the zero-allocation benchmarks in bench_test.go.
type E17Fixture struct {
	Agent *core.Agent
	Pool  *serve.Pool
	Query query.Query
}

// NewE17Fixture trains one agent on the standard clustered environment
// and returns it pooled behind an enabled answer cache, together with a
// query the trained agent answers on the TryPredict fast path.
func NewE17Fixture(nRows, training int) (*E17Fixture, error) {
	env, err := NewEnv(nRows, 16, 1)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = training
	agent, err := core.NewAgent(exec.MapReduceOracle{Ex: env.Executor}, cfg)
	if err != nil {
		return nil, err
	}
	qs := stream(2, query.Count)
	for i := 0; i < training+training/2; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			return nil, err
		}
	}
	pool, err := serve.NewPool([]*core.Agent{agent}, nil)
	if err != nil {
		return nil, err
	}
	pool.EnableCache(4096)
	// Pin a query the warm agent predicts: the steady-state population
	// of the fast path.
	for i := 0; i < 2000; i++ {
		q := qs.Next()
		if _, ok := agent.TryPredict(q); ok {
			return &E17Fixture{Agent: agent, Pool: pool, Query: q}, nil
		}
	}
	return nil, fmt.Errorf("E17: trained agent never predicted a stream query")
}
