package serve

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/trace"
)

// Admission-control errors. Callers (and the HTTP layer) treat these as
// retryable overload, not query failures.
var (
	// ErrQueueFull is returned when the shared queue is at capacity.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrTenantThrottled is returned when one tenant already has its
	// maximum number of queries in flight.
	ErrTenantThrottled = errors.New("serve: tenant throttled")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("serve: scheduler closed")
)

// SchedulerConfig sizes the scheduler. Zero values take defaults.
type SchedulerConfig struct {
	// Workers is the number of worker goroutines draining the queue
	// (default 8).
	Workers int
	// QueueDepth bounds the shared pending-job queue (default 256).
	QueueDepth int
	// TenantInflight caps one tenant's queued+running queries; further
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

type job struct {
	run  func() (any, error)
	done chan jobResult
}

type jobResult struct {
	v   any
	err error
}

// Scheduler runs queries through a Pool under bounded concurrency: a
// fixed worker pool drains a bounded queue, and per-tenant admission
// control keeps any one tenant from occupying the whole system.
// Overload fails fast so callers can shed or retry elsewhere.
type Scheduler struct {
	pool *Pool
	cfg  SchedulerConfig
	jobs chan *job
	wg   sync.WaitGroup

	mu     sync.Mutex
	tenant map[string]int
	closed bool
}

// NewScheduler builds and starts a scheduler over pool.
func NewScheduler(pool *Pool, cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		pool:   pool,
		cfg:    cfg,
		jobs:   make(chan *job, cfg.QueueDepth),
		tenant: make(map[string]int),
	}
	// A second scheduler over the same pool keeps the first one's series:
	// the registry holds one per name.
	pool.rec.Register(metrics.Series{Name: "sched_queue_depth",
		Help: "Jobs waiting in the shared scheduler queue.",
		Read: func() float64 { return float64(len(s.jobs)) }})
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		v, err := j.run()
		j.done <- jobResult{v: v, err: err}
	}
}

// Answer submits q on behalf of tenant and waits for the result.
// It returns ErrTenantThrottled or ErrQueueFull immediately under
// overload.
func (s *Scheduler) Answer(tenant string, q query.Query) (core.Answer, error) {
	v, err := s.Do(tenant, func() (any, error) { return s.pool.Answer(q) })
	if err != nil {
		return core.Answer{}, err
	}
	return v.(core.Answer), nil
}

// Do runs fn on the worker pool under the same admission control as
// Answer: the tenant's in-flight cap and the bounded queue apply, and
// rejections are recorded — globally and per tenant class, so one
// noisy tenant's throttling is visible in the metrics as its own
// series. The serving front-end routes every non-trivial operation
// (queries, explanations) through here so no endpoint can bypass
// overload protection.
func (s *Scheduler) Do(tenant string, fn func() (any, error)) (any, error) {
	start := time.Now()
	class := metrics.ClassOf(tenant)
	j := &job{run: fn, done: make(chan jobResult, 1)}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.cfg.TenantInflight > 0 && s.tenant[tenant] >= s.cfg.TenantInflight {
		s.mu.Unlock()
		s.pool.rec.Reject()
		s.pool.rec.TenantReject(class)
		return nil, ErrTenantThrottled
	}
	// The non-blocking enqueue happens under mu so Close cannot close
	// the channel between the closed check and the send.
	select {
	case s.jobs <- j:
	default:
		s.mu.Unlock()
		s.pool.rec.Reject()
		s.pool.rec.TenantReject(class)
		return nil, ErrQueueFull
	}
	s.tenant[tenant]++
	s.mu.Unlock()
	ts := s.pool.rec.Tenant(class)
	ts.Inflight.Add(1)

	r := <-j.done

	ts.Inflight.Add(-1)
	ts.Queries.Add(1)
	ts.Lat.RecordDur(time.Since(start))
	s.mu.Lock()
	if s.tenant[tenant]--; s.tenant[tenant] <= 0 {
		delete(s.tenant, tenant)
	}
	s.mu.Unlock()
	return r.v, r.err
}

// AnswerTraced submits q under a caller-provided (possibly nil) trace:
// the queue wait gets its own span, measured from submission to the
// moment a worker picks the job up, and the pool threads the rest of
// the tree. ?trace=1 front-ends use this with a forced trace.
func (s *Scheduler) AnswerTraced(tenant string, q query.Query, tr *trace.Trace) (core.Answer, error) {
	enq := time.Now()
	v, err := s.Do(tenant, func() (any, error) {
		if tr != nil {
			tr.Root().ChildAt("sched_wait", enq).End()
		}
		return s.pool.AnswerTraced(q, tr)
	})
	if err != nil {
		return core.Answer{}, err
	}
	return v.(core.Answer), nil
}

// TenantInflight reports tenant's current queued+running count.
func (s *Scheduler) TenantInflight(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenant[tenant]
}

// Pool returns the underlying agent pool.
func (s *Scheduler) Pool() *Pool { return s.pool }

// QueueDepth returns the number of jobs currently queued (admitted but
// not yet picked up by a worker).
func (s *Scheduler) QueueDepth() int { return len(s.jobs) }

// Close drains the queue and stops the workers. In-flight queries
// complete; subsequent Answer calls return ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.wg.Wait()
}
