package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
)

// queueDepthSeries reads the sched_queue_depth series of pool's
// registry (-1 when it is not registered).
func queueDepthSeries(pool *Pool) float64 {
	for _, s := range pool.Recorder().Series() {
		if s.Name == "sched_queue_depth" {
			return s.Read()
		}
	}
	return -1
}

// TestSchedulerDoBoundsRunningCalls hammers the gate from 32 goroutines:
// no more than Workers functions ever run at once, and with room for
// every caller to wait none is rejected.
func TestSchedulerDoBoundsRunningCalls(t *testing.T) {
	agent, _ := blockedAgent(t)
	pool := NewPool(agent, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 2, QueueDepth: 64, TenantInflight: -1})
	defer sched.Close()

	const callers, each = 32, 20
	var running, high atomic.Int64
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, err := sched.Do("hammer", func() (any, error) {
					n := running.Add(1)
					for {
						h := high.Load()
						if n <= h || high.CompareAndSwap(h, n) {
							break
						}
					}
					time.Sleep(20 * time.Microsecond)
					running.Add(-1)
					return nil, nil
				})
				if err != nil {
					t.Errorf("call rejected: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if h := high.Load(); h > 2 {
		t.Errorf("%d calls ran at once, want at most Workers = 2", h)
	}
	if rej := pool.Recorder().Snapshot().Rejected; rej != 0 {
		t.Errorf("rejected = %d, want 0", rej)
	}
}

// TestSchedulerQueueDepthCountsWaitingCallers holds both slots with
// oracle-blocked calls: the callers behind them show in QueueDepth and
// in the sched_queue_depth series, and leave both once they run.
func TestSchedulerQueueDepthCountsWaitingCallers(t *testing.T) {
	agent, oracle := blockedAgent(t)
	pool := NewPool(agent, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 2, QueueDepth: 8, TenantInflight: -1})
	defer sched.Close()

	const waiting = 3
	errs := make(chan error, 2+waiting)
	submit := func(q query.Query) {
		go func() {
			_, err := sched.Answer("t", q)
			errs <- err
		}()
	}
	submit(countAt(1, 1))
	submit(countAt(2, 2))
	<-oracle.started
	<-oracle.started
	if d := sched.QueueDepth(); d != 0 {
		t.Errorf("queue depth with only running calls = %d, want 0", d)
	}
	for i := 0; i < waiting; i++ {
		submit(countAt(float64(10+i), 10))
	}
	waitFor(t, func() bool { return sched.QueueDepth() == waiting })
	if got := queueDepthSeries(pool); got != waiting {
		t.Errorf("sched_queue_depth = %v, want %d", got, waiting)
	}
	close(oracle.release)
	for i := 0; i < 2+waiting; i++ {
		if err := <-errs; err != nil {
			t.Errorf("call failed: %v", err)
		}
	}
	if d := sched.QueueDepth(); d != 0 {
		t.Errorf("queue depth after the calls finished = %d, want 0", d)
	}
	if got := queueDepthSeries(pool); got != 0 {
		t.Errorf("sched_queue_depth after the calls finished = %v, want 0", got)
	}
}

// TestSchedulerCloseWaitsForAdmittedCalls: Close refuses new calls at
// once but returns only after the running call and the one waiting
// behind it have finished.
func TestSchedulerCloseWaitsForAdmittedCalls(t *testing.T) {
	agent, oracle := blockedAgent(t)
	pool := NewPool(agent, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 1, QueueDepth: 4, TenantInflight: -1})

	errs := make(chan error, 2)
	for _, q := range []query.Query{countAt(1, 1), countAt(2, 2)} {
		go func() {
			_, err := sched.Answer("t", q)
			errs <- err
		}()
	}
	<-oracle.started
	waitFor(t, func() bool { return sched.QueueDepth() == 1 })

	closed := make(chan struct{})
	go func() {
		sched.Close()
		close(closed)
	}()
	waitFor(t, func() bool {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		return sched.closed
	})
	if _, err := sched.Do("late", func() (any, error) { return nil, nil }); err != ErrClosed {
		t.Errorf("call while closing: err = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while admitted calls were still running or waiting")
	case <-time.After(20 * time.Millisecond):
	}
	close(oracle.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted call failed: %v", err)
		}
	}
	<-closed
	if _, err := sched.Answer("t", countAt(3, 3)); err != ErrClosed {
		t.Errorf("after Close: err = %v, want ErrClosed", err)
	}
}

// TestNewSchedulerStartsNoGoroutine: calls run on their callers'
// goroutines, so building a gate starts none.
func TestNewSchedulerStartsNoGoroutine(t *testing.T) {
	agent, _ := blockedAgent(t)
	pool := NewPool(agent, nil)
	before := runtime.NumGoroutine()
	sched := NewScheduler(pool, SchedulerConfig{Workers: 8})
	after := runtime.NumGoroutine()
	sched.Close()
	if after > before {
		t.Errorf("NewScheduler started %d goroutines, want 0", after-before)
	}
}
