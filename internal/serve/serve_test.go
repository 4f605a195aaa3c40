package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/workload"
)

// newTrainedAgent builds an agent over a small simulated BDAS with the
// standard 3-column clustered data and trains it past its prefix. Equal
// (dataSeed, streamSeed, nRows, training) produce bit-identical agents.
func newTrainedAgent(t *testing.T, nRows, training int, dataSeed, streamSeed int64) (*core.Agent, *exec.Executor) {
	t.Helper()
	cl := cluster.New(4, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "data", []string{"x", "y", "z"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(dataSeed)
	rows := workload.GaussianMixture(rng, nRows, 3, workload.DefaultMixture(3), 0)
	workload.CorrelatedColumns(rng, rows, 0, 2, 2, 5, 1)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(eng, tbl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = training
	agent, err := core.NewAgent(exec.MapReduceOracle{Ex: ex}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.NewQueryStream(workload.NewRNG(streamSeed), workload.DefaultRegions(2), query.Count)
	for i := 0; i < training+training/2; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	return agent, ex
}

// blockingOracle blocks every exact answer until released, counting
// calls — the deterministic stand-in for an expensive BDAS fallback.
type blockingOracle struct {
	mu      sync.Mutex
	n       int
	started chan struct{}
	release chan struct{}
}

func newBlockingOracle() *blockingOracle {
	return &blockingOracle{
		started: make(chan struct{}, 1024),
		release: make(chan struct{}),
	}
}

func (o *blockingOracle) Answer(q query.Query) (query.Result, metrics.Cost, error) {
	o.mu.Lock()
	o.n++
	o.mu.Unlock()
	o.started <- struct{}{}
	<-o.release
	return query.Result{Value: 42, Support: 1}, metrics.Cost{RowsRead: 1}, nil
}

func (o *blockingOracle) DataVersion() int64 { return 1 }

func (o *blockingOracle) calls() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

func blockedAgent(t *testing.T) (*core.Agent, *blockingOracle) {
	t.Helper()
	o := newBlockingOracle()
	agent, err := core.NewAgent(o, core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	return agent, o
}

func countAt(x, y float64) query.Query {
	return query.Query{
		Select:    query.Selection{Center: []float64{x, y}, Radius: 5},
		Aggregate: query.Count,
	}
}

func TestKeyCanonical(t *testing.T) {
	a := countAt(1, 2)
	b := countAt(1, 2)
	if Key(a) != Key(b) {
		t.Error("identical queries got different keys")
	}
	if Key(a) == Key(countAt(1, 3)) {
		t.Error("different queries share a key")
	}
	box := query.Query{Select: query.Selection{Los: []float64{1, 2}, His: []float64{3, 4}}, Aggregate: query.Count}
	if Key(a) == Key(box) {
		t.Error("radius and box selections share a key")
	}
	avg := query.Query{Select: a.Select, Aggregate: query.Avg, Col: 2}
	if Key(a) == Key(avg) {
		t.Error("different aggregates share a key")
	}
}

func TestSchedulerQueueFullAndTenantThrottle(t *testing.T) {
	agent, oracle := blockedAgent(t)
	pool := NewPool(agent, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 1, QueueDepth: 1, TenantInflight: 2})

	results := make(chan error, 4)
	submit := func(tenant string, q query.Query) {
		go func() {
			_, err := sched.Answer(tenant, q)
			results <- err
		}()
	}

	// Call 1 takes the single slot and blocks in the oracle.
	submit("a", countAt(1, 1))
	<-oracle.started

	// Call 2 waits for the slot.
	submit("a", countAt(2, 2))
	waitFor(t, func() bool { return sched.TenantInflight("a") == 2 })

	// Tenant a is now at its in-flight cap: reject immediately.
	if _, err := sched.Answer("a", countAt(3, 3)); err != ErrTenantThrottled {
		t.Errorf("tenant over cap: err = %v, want ErrTenantThrottled", err)
	}
	// Another tenant passes the cap check, but the slot is taken and
	// the one waiting place too: reject immediately.
	if _, err := sched.Answer("b", countAt(4, 4)); err != ErrQueueFull {
		t.Errorf("queue full: err = %v, want ErrQueueFull", err)
	}

	close(oracle.release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("blocked job failed: %v", err)
		}
	}
	sched.Close()
	if _, err := sched.Answer("a", countAt(5, 5)); err != ErrClosed {
		t.Errorf("after Close: err = %v, want ErrClosed", err)
	}

	snap := pool.Recorder().Snapshot()
	if snap.Rejected != 2 {
		t.Errorf("rejected = %d, want 2", snap.Rejected)
	}
}

func TestPoolDedupsIdenticalInflightFallbacks(t *testing.T) {
	agent, oracle := blockedAgent(t)
	pool := NewPool(agent, nil)

	const clients = 10
	q := countAt(7, 7)
	var wg sync.WaitGroup
	wg.Add(clients)
	values := make([]float64, clients)
	serve := func(c int) {
		defer wg.Done()
		ans, err := pool.Answer(q)
		if err != nil {
			t.Errorf("client %d: %v", c, err)
			return
		}
		values[c] = ans.Value
	}
	// Leader first: once it blocks inside the oracle its flight is
	// registered, so every follower joins it instead of probing the
	// (write-locked) agent.
	go serve(0)
	<-oracle.started
	for c := 1; c < clients; c++ {
		go serve(c)
	}
	waitFor(t, func() bool { return pool.sf.waiting(Key(q)) == clients-1 })
	close(oracle.release)
	wg.Wait()

	if got := oracle.calls(); got != 1 {
		t.Errorf("oracle calls = %d, want 1 (single-flight)", got)
	}
	snap := pool.Recorder().Snapshot()
	if snap.Deduped != clients-1 {
		t.Errorf("deduped = %d, want %d", snap.Deduped, clients-1)
	}
	// Only the leader's oracle execution counts as a fallback; waiters
	// count toward Queries via the dedup category.
	if snap.Fallbacks != 1 || snap.Queries != clients {
		t.Errorf("fallbacks = %d queries = %d, want 1 and %d", snap.Fallbacks, snap.Queries, clients)
	}
	for c, v := range values {
		if v != 42 {
			t.Errorf("client %d got %v, want shared exact answer 42", c, v)
		}
	}
}

// TestConcurrentServing32Clients is the acceptance scenario: >= 32
// concurrent clients hammer one shared trained agent through the
// scheduler, race-free, with every query answered.
func TestConcurrentServing32Clients(t *testing.T) {
	agent, _ := newTrainedAgent(t, 4_000, 200, 21, 22)
	pool := NewPool(agent, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 8, QueueDepth: 128, TenantInflight: -1})
	defer sched.Close()

	const (
		clients   = 32
		perClient = 40
	)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			cs := workload.NewQueryStream(workload.NewRNG(900+int64(c)), workload.DefaultRegions(2), query.Count)
			for i := 0; i < perClient; i++ {
				ans, err := sched.Answer("tenant", cs.Next())
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if math.IsNaN(ans.Value) || ans.Value < 0 {
					t.Errorf("client %d: bad COUNT %v", c, ans.Value)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	snap := pool.Recorder().Snapshot()
	if snap.Queries != clients*perClient {
		t.Errorf("served %d queries, want %d", snap.Queries, clients*perClient)
	}
	if snap.Predicted == 0 {
		t.Error("expected model predictions under concurrent serving")
	}
	if snap.P50 <= 0 || snap.P99 < snap.P50 {
		t.Errorf("implausible latency percentiles: p50=%v p99=%v", snap.P50, snap.P99)
	}
	if snap.QPS <= 0 {
		t.Errorf("QPS = %v, want > 0", snap.QPS)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
