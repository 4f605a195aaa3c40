package sea

// This file re-exports the concurrent serving layer (internal/serve):
// an admission gate with per-tenant limits and an HTTP/JSON front-end
// over one thread-safe agent. The underlying core.Agent is safe for
// concurrent use, so an Agent may also be shared across goroutines
// directly; the serving layer adds overload protection, single-flight
// dedup of identical in-flight oracle fallbacks, and throughput/latency
// instrumentation.
//
// See cmd/seaserve for the runnable server binary and DESIGN.md for the
// serving architecture.

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// Server is the HTTP/JSON serving front-end (see serve.Server).
type Server = serve.Server

// Scheduler is the serving layer's admission gate (see serve.Scheduler).
type Scheduler = serve.Scheduler

// Pool answers queries from one thread-safe agent (see serve.Pool).
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
// (8 calls at once, 256 waiting, 64 in-flight queries per tenant).
type ServeOptions struct {
	// Workers is the number of calls that run at once.
	Workers int
	// QueueDepth bounds the calls waiting for a running slot.
	QueueDepth int
	// TenantInflight caps one tenant's concurrent queries (negative =
	// unlimited).
	TenantInflight int
	// AnswerCache, when positive, enables a bounded versioned answer
	// cache of roughly that many entries: repeated queries are served
	// without touching the agent, and any data-version advance
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

// NewScheduler builds the admission gate over one agent. agents must
// hold exactly that agent: the slice stays only because the benchmark
// harness passes one (bench/trace.go:357, through NewServer).
func NewScheduler(agents []*Agent, opt ServeOptions) (*Scheduler, error) {
	if len(agents) != 1 {
		return nil, fmt.Errorf("sea: NewScheduler serves one agent, got %d", len(agents))
	}
	pool := serve.NewPool(agents[0].inner, nil)
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

// NewServer builds the HTTP/JSON front-end over one agent, whose
// explanation engine backs /v1/explain. Like NewScheduler it takes a
// one-element slice.
func NewServer(agents []*Agent, opt ServeOptions) (*Server, error) {
	sched, err := NewScheduler(agents, opt)
	if err != nil {
		return nil, err
	}
	return serve.NewServer(sched, agents[0].explain), nil
}
