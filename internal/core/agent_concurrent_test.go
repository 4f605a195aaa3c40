package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestConcurrentAnswerHammer drives 32 concurrent clients through one
// shared agent with mixed work: model predictions, oracle fallbacks
// (out-of-coverage queries), read-only probes, and concurrent
// NotifyDataChange invalidations. Run with -race; it also checks the
// stats counters never drop an answered query.
func TestConcurrentAnswerHammer(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 200
	h := newHarness(t, 4_000, cfg)

	// Warm up single-threaded past the training prefix.
	const warm = 300
	for i := 0; i < warm; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}

	const (
		clients   = 32
		perClient = 60
	)
	var wg sync.WaitGroup
	wg.Add(clients)
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			cs := workload.NewQueryStream(workload.NewRNG(500+int64(c)), workload.DefaultRegions(2), query.Count)
			if c%3 == 1 {
				cs = workload.NewQueryStream(workload.NewRNG(500+int64(c)), workload.DefaultRegions(2), query.Avg)
				cs.Col = 2
			}
			for i := 0; i < perClient; i++ {
				q := cs.Next()
				if c%7 == 3 && i%20 == 10 {
					// Surgical invalidation racing the answer paths.
					sel := q.Select
					h.agent.NotifyDataChange(&sel)
				}
				ans, err := h.agent.Answer(q)
				if err != nil {
					errCh <- err
					return
				}
				if math.IsNaN(ans.Value) || math.IsInf(ans.Value, 0) {
					t.Errorf("client %d: non-finite answer %v", c, ans.Value)
					return
				}
				// Interleave the read-only surfaces.
				h.agent.PredictOnly(q)
				_ = h.agent.Stats()
				_ = h.agent.Quanta()
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := h.agent.Stats()
	want := int64(warm + clients*perClient)
	if st.Queries != want {
		t.Errorf("stats.Queries = %d, want %d (no answer may be dropped)", st.Queries, want)
	}
	if st.Predicted+st.Exact != st.Queries {
		t.Errorf("predicted %d + exact %d != queries %d", st.Predicted, st.Exact, st.Queries)
	}
	if st.Predicted == 0 {
		t.Error("expected some data-less predictions under concurrency")
	}
}

// TestTryPredictMatchesAnswer checks the fast path returns exactly what
// Answer's predicted branch would: same value, estimated error and
// quantum, and that it refuses during training.
func TestTryPredictMatchesAnswer(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 150
	h := newHarness(t, 4_000, cfg)

	q0 := h.qs.Next()
	if _, ok := h.agent.TryPredict(q0); ok {
		t.Fatal("TryPredict succeeded before any training")
	}

	for i := 0; i < 260; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}

	// Find a query the fast path serves, then check Answer agrees.
	var matched bool
	for i := 0; i < 200; i++ {
		q := h.qs.Next()
		fast, ok := h.agent.TryPredict(q)
		if !ok {
			continue
		}
		full, err := h.agent.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Predicted {
			t.Fatalf("Answer fell back where TryPredict predicted (query %d)", i)
		}
		if full.Value != fast.Value || full.EstError != fast.EstError || full.Quantum != fast.Quantum {
			t.Fatalf("fast path diverged: TryPredict=%+v Answer=%+v", fast, full)
		}
		matched = true
		break
	}
	if !matched {
		t.Fatal("no trustworthy query found after training")
	}

	st := h.agent.Stats()
	if st.Queries == 0 || st.Predicted == 0 {
		t.Errorf("stats not advanced by fast path: %+v", st)
	}
}

// TestTryPredictRefusesAfterDataChange checks the fast path yields to
// the slow path when the base data version moves, so invalidation is
// never skipped.
func TestTryPredictRefusesAfterDataChange(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TrainingQueries = 150
	h := newHarness(t, 4_000, cfg)
	for i := 0; i < 260; i++ {
		if _, err := h.agent.Answer(h.qs.Next()); err != nil {
			t.Fatal(err)
		}
	}
	var q query.Query
	found := false
	for i := 0; i < 200; i++ {
		q = h.qs.Next()
		if _, ok := h.agent.TryPredict(q); ok {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no predictable query found")
	}
	// Mutate base data: version moves, fast path must refuse until the
	// slow path has re-observed the new version.
	if _, _, err := h.ex.Table().UpdateWhere(
		func(storage.Row) bool { return true },
		func(r *storage.Row) { r.Vec[2] += 1 },
	); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.agent.TryPredict(q); ok {
		t.Error("TryPredict served a prediction across a data-version change")
	}
}

// gatedOracle holds every Answer call made while it is armed until
// release is closed, announcing each on entered.
type gatedOracle struct {
	*liveOracle
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (o *gatedOracle) Answer(q query.Query) (query.Result, metrics.Cost, error) {
	if o.armed.Load() {
		o.entered <- struct{}{}
		<-o.release
	}
	return o.liveOracle.Answer(q)
}

// TestExactProbeLeavesPredictionsRunning: a shadow-audit probe waiting
// on its oracle call holds no agent lock, so TryPredict returns.
func TestExactProbeLeavesPredictionsRunning(t *testing.T) {
	o := &gatedOracle{liveOracle: newLiveOracle(workload.StandardRows(4000, 1)),
		entered: make(chan struct{}), release: make(chan struct{})}
	ag, err := NewAgent(o, liveConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	q := trainCount(t, ag, 320, 7).Next()
	o.armed.Store(true)
	probed := make(chan error, 1)
	go func() {
		_, err := ag.ExactProbe(q)
		probed <- err
	}()
	<-o.entered
	predicted := make(chan struct{})
	go func() {
		ag.TryPredict(q)
		close(predicted)
	}()
	select {
	case <-predicted:
		close(o.release)
	case <-time.After(5 * time.Second):
		close(o.release)
		t.Fatal("TryPredict blocked behind a probe's oracle call")
	}
	if err := <-probed; err != nil {
		t.Fatal(err)
	}
}
