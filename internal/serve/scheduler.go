package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/trace"
)

// Admission-control errors. Callers (and the HTTP layer) treat these as
// retryable overload, not query failures.
var (
	// ErrQueueFull is returned when every slot is taken and QueueDepth
	// calls already wait for one.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrTenantThrottled is returned when one tenant already has its
	// maximum number of queries in flight.
	ErrTenantThrottled = errors.New("serve: tenant throttled")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("serve: scheduler closed")
)

// SchedulerConfig sizes the scheduler. Zero values take defaults.
type SchedulerConfig struct {
	// Workers is the number of calls that run at once (default 8).
	Workers int
	// QueueDepth bounds the calls waiting for a running slot (default
	// 256).
	QueueDepth int
	// TenantInflight caps one tenant's waiting+running calls; further
	// submissions are rejected with ErrTenantThrottled (default 64,
	// negative = unlimited).
	TenantInflight int
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TenantInflight == 0 {
		c.TenantInflight = 64
	}
	return c
}

// Scheduler is the admission gate in front of a Pool. Each call runs on
// its caller's goroutine (net/http already gives every request its
// own): at most Workers calls run at once, at most QueueDepth more wait
// for a slot, and per-tenant admission control keeps any one tenant
// from occupying the whole gate. Overload fails fast so callers can
// shed or retry elsewhere.
type Scheduler struct {
	pool *Pool
	cfg  SchedulerConfig
	// slots is the running semaphore: one token per running call.
	slots chan struct{}
	// waiting counts the admitted calls blocked on slots.
	waiting atomic.Int64
	// calls tracks every admitted call, so Close can wait them out.
	calls sync.WaitGroup

	mu       sync.Mutex
	admitted int // waiting + running calls
	tenant   map[string]int
	closed   bool
}

// NewScheduler builds a scheduler over pool. It starts no goroutine.
func NewScheduler(pool *Pool, cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		pool:   pool,
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.Workers),
		tenant: make(map[string]int),
	}
	// A second scheduler over the same pool keeps the first one's series:
	// the registry holds one per name.
	pool.rec.Register(metrics.Series{Name: "sched_queue_depth",
		Help: "Calls waiting for a scheduler slot.",
		Read: func() float64 { return float64(s.QueueDepth()) }})
	return s
}

// acquire admits one call for tenant and blocks until it holds a
// running slot, or rejects it: ErrClosed after Close, ErrTenantThrottled
// at the tenant's cap, ErrQueueFull when Workers calls run and
// QueueDepth more wait. Rejections are recorded globally and per tenant
// class, so one noisy tenant's throttling shows as its own series. An
// admitted caller must call release with the returned tenant series.
func (s *Scheduler) acquire(tenant string) (*metrics.TenantStats, error) {
	class := metrics.ClassOf(tenant)
	s.mu.Lock()
	var err error
	switch {
	case s.closed:
		s.mu.Unlock()
		return nil, ErrClosed
	case s.cfg.TenantInflight > 0 && s.tenant[tenant] >= s.cfg.TenantInflight:
		err = ErrTenantThrottled
	case s.admitted >= s.cfg.Workers+s.cfg.QueueDepth:
		err = ErrQueueFull
	}
	if err != nil {
		s.mu.Unlock()
		s.pool.rec.Reject()
		s.pool.rec.TenantReject(class)
		return nil, err
	}
	s.admitted++
	s.tenant[tenant]++
	// Added under mu, so Close (which flips closed under mu first)
	// never waits on a call it did not see admitted.
	s.calls.Add(1)
	s.mu.Unlock()
	ts := s.pool.rec.Tenant(class)
	ts.Inflight.Add(1)
	select {
	case s.slots <- struct{}{}:
	default:
		s.waiting.Add(1)
		s.slots <- struct{}{}
		s.waiting.Add(-1)
	}
	return ts, nil
}

// release ends an admitted call that arrived at start.
func (s *Scheduler) release(tenant string, ts *metrics.TenantStats, start time.Time) {
	<-s.slots
	ts.Inflight.Add(-1)
	ts.Observe(time.Since(start))
	s.mu.Lock()
	s.admitted--
	if s.tenant[tenant]--; s.tenant[tenant] <= 0 {
		delete(s.tenant, tenant)
	}
	s.mu.Unlock()
	s.calls.Done()
}

// Answer serves q on behalf of tenant on the calling goroutine, under
// the gate's limits. It returns ErrTenantThrottled or ErrQueueFull
// immediately under overload.
func (s *Scheduler) Answer(tenant string, q query.Query) (core.Answer, error) {
	return s.AnswerTraced(tenant, q, nil)
}

// AnswerTraced is Answer under a caller-provided trace: the wait for a
// slot gets its own span, from arrival until the slot is taken, and the
// pool threads the rest of the tree. ?trace=1 front-ends use this with
// a forced trace; a nil trace leaves the pool free to make its own
// background sampling decision.
func (s *Scheduler) AnswerTraced(tenant string, q query.Query, tr *trace.Trace) (core.Answer, error) {
	start := time.Now()
	ts, err := s.acquire(tenant)
	if err != nil {
		return core.Answer{}, err
	}
	defer s.release(tenant, ts, start)
	if tr == nil {
		return s.pool.Answer(q)
	}
	tr.Root().ChildAt("sched_wait", start).End()
	return s.pool.AnswerTraced(q, tr)
}

// Do runs fn on the calling goroutine under the same gate as Answer.
// The serving front-end routes every non-trivial operation (queries,
// explanations) through the gate so no endpoint can bypass overload
// protection.
func (s *Scheduler) Do(tenant string, fn func() (any, error)) (any, error) {
	start := time.Now()
	ts, err := s.acquire(tenant)
	if err != nil {
		return nil, err
	}
	defer s.release(tenant, ts, start)
	return fn()
}

// TenantInflight reports tenant's current waiting+running count.
func (s *Scheduler) TenantInflight(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenant[tenant]
}

// Pool returns the underlying agent pool.
func (s *Scheduler) Pool() *Pool { return s.pool }

// QueueDepth returns the number of admitted calls waiting for a slot.
func (s *Scheduler) QueueDepth() int { return int(s.waiting.Load()) }

// Close refuses new calls (they return ErrClosed) and returns once
// every admitted call, running or waiting, has finished.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.calls.Wait()
}
