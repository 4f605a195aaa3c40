package sea

// This file re-exports the concurrent serving layer (internal/serve):
// a bounded-concurrency scheduler with per-tenant admission control and
// an HTTP/JSON front-end over a pool of thread-safe agents. The
// underlying core.Agent is safe for concurrent use, so a single Agent
// may also be shared across goroutines directly; the serving layer adds
// overload protection, single-flight dedup of identical in-flight
// oracle fallbacks, and throughput/latency instrumentation.
//
// See cmd/seaserve for the runnable server binary and DESIGN.md for the
// serving architecture.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// Server is the HTTP/JSON serving front-end (see serve.Server).
type Server = serve.Server

// Scheduler bounds serving concurrency (see serve.Scheduler).
type Scheduler = serve.Scheduler

// Pool multiplexes queries over thread-safe agents (see serve.Pool).
type Pool = serve.Pool

// ServeSnapshot is the serving-layer health view (QPS, p50/p99,
// fallback rate).
type ServeSnapshot = metrics.ServeSnapshot

// Admission-control errors re-exported for callers that shed load.
var (
	ErrQueueFull       = serve.ErrQueueFull
	ErrTenantThrottled = serve.ErrTenantThrottled
)

// ServeOptions sizes the serving layer. Zero values take defaults
// (8 workers, queue depth 256, 64 in-flight queries per tenant).
type ServeOptions struct {
	// Workers is the worker-goroutine count.
	Workers int
	// QueueDepth bounds the shared pending queue.
	QueueDepth int
	// TenantInflight caps one tenant's concurrent queries (negative =
	// unlimited).
	TenantInflight int
	// AnswerCache, when positive, enables a bounded versioned answer
	// cache of roughly that many entries: repeated queries are served
	// without touching the agents, and any data-version advance
	// invalidates affected entries.
	AnswerCache int
	// TraceSample is the background trace-sampling fraction: roughly
	// this share of queries records a full span tree into the trace
	// ring (GET /v1/debug/trace/<id>). 0 disables background sampling;
	// ?trace=1 requests are always traced regardless.
	TraceSample float64
	// TraceRing bounds the retained finished traces (0 takes
	// trace.DefaultRing).
	TraceRing int
	// SlowQuery, when positive, logs every query slower than this into
	// the slow-query ring (GET /v1/debug/slow).
	SlowQuery time.Duration
	// AuditSample is the shadow-audit fraction: roughly this share of
	// model-served answers is re-evaluated exactly in the background,
	// recording predicted-vs-truth relative error into the accuracy
	// audit histograms on /v1/metrics. 0 disables shadow auditing.
	AuditSample float64
}

// TryPredict attempts the read-mostly fast path: answer q from a
// learned model without touching the oracle. ok is false when the agent
// would need the expensive exact path.
func (a *Agent) TryPredict(q Query) (Answer, bool) { return a.inner.TryPredict(q) }

// NewScheduler builds a bounded-concurrency scheduler over the given
// agents (typically one; more shard the query space by affinity hash).
func NewScheduler(agents []*Agent, opt ServeOptions) (*Scheduler, error) {
	if len(agents) == 0 {
		return nil, fmt.Errorf("sea: NewScheduler needs at least one agent")
	}
	cores := make([]*core.Agent, len(agents))
	for i, a := range agents {
		cores[i] = a.inner
	}
	pool, err := serve.NewPool(cores, nil)
	if err != nil {
		return nil, fmt.Errorf("sea: %w", err)
	}
	if opt.AnswerCache > 0 {
		pool.EnableCache(opt.AnswerCache)
	}
	sched := serve.NewScheduler(pool, serve.SchedulerConfig{
		Workers:        opt.Workers,
		QueueDepth:     opt.QueueDepth,
		TenantInflight: opt.TenantInflight,
	})
	// The plane always carries a tracer (even at sampling rate 0), so
	// forced ?trace=1 traces and the debug endpoints work out of the box.
	serve.NewPlane(pool, serve.PlaneConfig{
		Node:        "local",
		TraceSample: opt.TraceSample,
		TraceRing:   opt.TraceRing,
		SlowQuery:   opt.SlowQuery,
		AuditSample: opt.AuditSample,
	})
	return sched, nil
}

// NewServer builds the HTTP/JSON front-end over the given agents. The
// first agent's explanation engine backs /v1/explain.
func NewServer(agents []*Agent, opt ServeOptions) (*Server, error) {
	sched, err := NewScheduler(agents, opt)
	if err != nil {
		return nil, err
	}
	return serve.NewServer(sched, agents[0].explain), nil
}
