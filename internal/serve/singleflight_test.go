package serve

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/query"
)

// faultyOracle blocks every exact answer until released and can be
// switched between succeeding, failing and panicking — the deterministic
// stand-in for a flaky BDAS fallback.
type faultyOracle struct {
	mu      sync.Mutex
	n       int
	mode    string // "ok" | "fail" | "panic"
	started chan struct{}
	release chan struct{}
}

var errOracleDown = errors.New("oracle down")

func newFaultyOracle(mode string) *faultyOracle {
	return &faultyOracle{
		mode:    mode,
		started: make(chan struct{}, 1024),
		release: make(chan struct{}),
	}
}

func (o *faultyOracle) Answer(q query.Query) (query.Result, metrics.Cost, error) {
	o.mu.Lock()
	o.n++
	mode := o.mode
	o.mu.Unlock()
	o.started <- struct{}{}
	<-o.release
	switch mode {
	case "fail":
		return query.Result{}, metrics.Cost{}, errOracleDown
	case "panic":
		panic("oracle exploded")
	}
	return query.Result{Value: 42, Support: 1}, metrics.Cost{RowsRead: 1}, nil
}

func (o *faultyOracle) DataVersion() int64 { return 1 }

func (o *faultyOracle) calls() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

func (o *faultyOracle) setMode(m string) {
	o.mu.Lock()
	o.mode = m
	o.mu.Unlock()
}

// TestSingleflightFailurePropagatesToAllWaiters is the regression test
// for error propagation through the single-flight group: when the shared
// in-flight fallback fails, the leader AND every parked caller must each
// receive the error, and the failure must not be cached — the next query
// with the same key starts a fresh oracle call.
func TestSingleflightFailurePropagatesToAllWaiters(t *testing.T) {
	oracle := newFaultyOracle("fail")
	agent, err := core.NewAgent(oracle, core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(agent, nil)

	const clients = 8
	q := countAt(5, 5)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	serve := func(c int) {
		defer wg.Done()
		_, errs[c] = pool.Answer(q)
	}
	// Leader first: once it blocks inside the oracle its flight is
	// registered, so every follower parks behind it.
	go serve(0)
	<-oracle.started
	for c := 1; c < clients; c++ {
		go serve(c)
	}
	waitFor(t, func() bool { return pool.sf.waiting(Key(q)) == clients-1 })
	close(oracle.release)
	wg.Wait()

	for c, err := range errs {
		if !errors.Is(err, errOracleDown) {
			t.Errorf("client %d: err = %v, want the shared oracle error", c, err)
		}
	}
	if got := oracle.calls(); got != 1 {
		t.Errorf("oracle calls = %d, want 1 (failure shared, not retried per caller)", got)
	}
	snap := pool.Recorder().Snapshot()
	if snap.Errors != clients {
		t.Errorf("recorded errors = %d, want %d (one per caller)", snap.Errors, clients)
	}

	// The failed flight must be gone: a retry with the same key reaches
	// the (now healthy) oracle instead of a cached error or a dead flight.
	oracle.setMode("ok")
	done := make(chan struct{})
	var ans core.Answer
	var retryErr error
	go func() {
		defer close(done)
		ans, retryErr = pool.Answer(q)
	}()
	<-oracle.started // release is already closed, so the call completes
	<-done
	if retryErr != nil {
		t.Fatalf("retry after failure: %v (error was cached for the key)", retryErr)
	}
	if ans.Value != 42 {
		t.Errorf("retry answer = %v, want 42", ans.Value)
	}
	if got := oracle.calls(); got != 2 {
		t.Errorf("oracle calls after retry = %d, want 2", got)
	}
}

// TestSingleflightPanicDoesNotStrandWaiters covers the deadlock half of
// the bug: a panicking fallback used to leave its flight registered
// forever, so every later identical query parked behind a flight that
// could never complete. Now the panic is converted to ErrFallbackPanic,
// delivered to everyone, and the key is released.
func TestSingleflightPanicDoesNotStrandWaiters(t *testing.T) {
	oracle := newFaultyOracle("panic")
	agent, err := core.NewAgent(oracle, core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(agent, nil)

	const clients = 4
	q := countAt(9, 3)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	go func() { defer wg.Done(); _, errs[0] = pool.Answer(q) }()
	<-oracle.started
	for c := 1; c < clients; c++ {
		go func(c int) { defer wg.Done(); _, errs[c] = pool.Answer(q) }(c)
	}
	waitFor(t, func() bool { return pool.sf.waiting(Key(q)) == clients-1 })
	close(oracle.release)
	wg.Wait()

	for c, err := range errs {
		if !errors.Is(err, ErrFallbackPanic) {
			t.Errorf("client %d: err = %v, want ErrFallbackPanic", c, err)
		}
	}

	// Same key again: must start a fresh flight, not hang on the dead one.
	oracle.setMode("ok")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := pool.Answer(q); err != nil {
			t.Errorf("retry after panic: %v", err)
		}
	}()
	<-oracle.started
	<-done
}
