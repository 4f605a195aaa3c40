package sea_test

import (
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
	"repro/sea"
)

func newLoadedSystem(t *testing.T, nRows int) *sea.System {
	t.Helper()
	sys, err := sea.NewSystem(sea.SystemConfig{Nodes: 4, Columns: []string{"x", "y", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(21)
	rows := workload.GaussianMixture(rng, nRows, 3, workload.DefaultMixture(3), 0)
	workload.CorrelatedColumns(rng, rows, 0, 2, 2, 5, 1)
	if err := sys.Load(rows); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAgentConcurrentPublicAPI hammers one shared public sea.Agent from
// 32 goroutines: the re-exported API must be race-free end to end.
func TestAgentConcurrentPublicAPI(t *testing.T) {
	sys := newLoadedSystem(t, 3_000)
	agent, err := sys.NewAgent(sea.AgentConfig{Dims: 2, TrainingQueries: 150, UseMapReduceOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.NewQueryStream(workload.NewRNG(22), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 220; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			t.Fatal(err)
		}
	}

	const clients = 32
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			cs := workload.NewQueryStream(workload.NewRNG(300+int64(c)), workload.DefaultRegions(2), query.Count)
			for i := 0; i < 25; i++ {
				q := cs.Next()
				if _, err := agent.Answer(q); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if _, ok := agent.TryPredict(q); ok {
					_ = agent.Stats()
				}
			}
		}(c)
	}
	wg.Wait()

	st := agent.Stats()
	if want := int64(220 + clients*25); st.Queries < want {
		t.Errorf("stats.Queries = %d, want >= %d", st.Queries, want)
	}
}

// TestNewSchedulerServesSharedAgent drives the re-exported serving
// layer: a scheduler over one trained agent, many concurrent tenants.
func TestNewSchedulerServesSharedAgent(t *testing.T) {
	sys := newLoadedSystem(t, 3_000)
	agent, err := sys.NewAgent(sea.AgentConfig{Dims: 2, TrainingQueries: 150, UseMapReduceOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.NewQueryStream(workload.NewRNG(22), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 220; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			t.Fatal(err)
		}
	}

	sched, err := sea.NewScheduler([]*sea.Agent{agent}, sea.ServeOptions{Workers: 4, QueueDepth: 64, TenantInflight: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	var wg sync.WaitGroup
	wg.Add(8)
	for c := 0; c < 8; c++ {
		go func(c int) {
			defer wg.Done()
			cs := workload.NewQueryStream(workload.NewRNG(400+int64(c)), workload.DefaultRegions(2), query.Count)
			for i := 0; i < 20; i++ {
				if _, err := sched.Answer("tenant", cs.Next()); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if _, err := sea.NewScheduler(nil, sea.ServeOptions{}); err == nil {
		t.Error("NewScheduler with no agents must fail")
	}
	if _, err := sea.NewServer(nil, sea.ServeOptions{}); err == nil {
		t.Error("NewServer with no agents must fail")
	}
}

// TestNewSchedulerServesOneAgent: a member runs one agent, so the
// serving constructors refuse a second one instead of sharding over it.
func TestNewSchedulerServesOneAgent(t *testing.T) {
	sys := newLoadedSystem(t, 500)
	var agents []*sea.Agent
	for i := 0; i < 2; i++ {
		ag, err := sys.NewAgent(sea.AgentConfig{Dims: 2, TrainingQueries: 10, UseMapReduceOracle: true})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, ag)
	}
	if _, err := sea.NewScheduler(agents, sea.ServeOptions{}); err == nil {
		t.Error("NewScheduler with two agents must fail")
	}
	if _, err := sea.NewServer(agents, sea.ServeOptions{}); err == nil {
		t.Error("NewServer with two agents must fail")
	}
}
