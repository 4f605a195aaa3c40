// Package serve is the concurrent query-serving layer: it serves many
// clients from one thread-safe SEA agent (internal/core), the one agent
// a member runs in front of its data (the paper's Fig. 3), so the
// reproduction can serve analyst traffic instead of single-goroutine
// simulations.
//
// The layer has three pieces, stacked:
//
//   - Pool answers queries from its agent through a versioned answer
//     cache and single-flight deduplication: when several clients ask
//     the same question and the answer needs the expensive exact-oracle
//     fallback, only one fallback runs and everyone shares its result.
//     Cheap model predictions bypass the dedup entirely via
//     core.Agent's read-mostly TryPredict fast path.
//
//   - Scheduler is an admission gate: every call runs on its caller's
//     goroutine, at most Workers calls run at once, at most QueueDepth
//     more wait for a slot, and per-tenant admission control caps how
//     much of the gate one tenant can occupy. Overload is rejected
//     immediately (ErrQueueFull, ErrTenantThrottled) instead of
//     queueing without bound.
//
//   - Server exposes the agent API (count/sum/avg/var/corr/slope,
//     explanations, stats) over HTTP/JSON for library callers
//     (sea.NewServer). cmd/seaserve serves through internal/dist's
//     cluster member instead, which mounts the same inspection routes
//     (MountInspect) beside its own /v1/query.
//
// Throughput and latency are instrumented through
// metrics.ServeRecorder: QPS, p50/p90/p99 latency, fallback and
// rejection rates, all surfaced on the stats endpoint. Plane wires the
// rest of a front-end's instruments (tracing, audit, SLO, runtime,
// flight recorder) and their routes, for this Server and for cluster
// members alike.
package serve

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/trace"
)

// Key canonicalises a query for routing, caching and single-flight
// deduplication: two queries with the same key are the same question.
// Columns the aggregate never reads are canonicalised away — COUNT uses
// neither Col nor Col2, SUM/AVG/VAR ignore Col2 — so equivalent queries
// share one cache/single-flight/routing identity instead of splitting
// on junk column values.
func Key(q query.Query) string {
	return string(AppendKey(nil, q))
}

// KeyHash is the 32-bit FNV-1a hash of q's canonical key: what the
// answer cache shards by and what a cluster ring places queries by. The
// key is built in a stack buffer, so the hash allocates nothing.
func KeyHash(q query.Query) uint32 {
	var buf [128]byte
	return fnv32Bytes(AppendKey(buf[:0], q))
}

// AppendKey appends q's canonical key bytes to dst and returns it —
// the allocation-free variant the Pool hot path uses with a pooled
// scratch buffer. Key(q) == string(AppendKey(nil, q)) always.
func AppendKey(dst []byte, q query.Query) []byte {
	dst = append(dst, q.Aggregate.String()...)
	dst = append(dst, '|')
	col, col2 := keyCols(q)
	dst = strconv.AppendInt(dst, int64(col), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(col2), 10)
	dst = append(dst, '|')
	if q.Select.IsRadius() {
		dst = append(dst, 'r')
		for _, v := range q.Select.Center {
			dst = appendFloatKey(dst, v)
			dst = append(dst, ',')
		}
		dst = appendFloatKey(dst, q.Select.Radius)
	} else {
		dst = append(dst, 'b')
		for _, v := range q.Select.Los {
			dst = appendFloatKey(dst, v)
			dst = append(dst, ',')
		}
		dst = append(dst, ';')
		for _, v := range q.Select.His {
			dst = appendFloatKey(dst, v)
			dst = append(dst, ',')
		}
	}
	return dst
}

// appendFloatKey encodes one selection coordinate as its raw IEEE-754
// bit pattern in hex. The key only needs injectivity, not readability,
// and bit encoding costs a fraction of shortest-representation float
// formatting while inducing the same equality classes (shortest-repr
// formatting round-trips bits exactly).
func appendFloatKey(dst []byte, v float64) []byte {
	return strconv.AppendUint(dst, math.Float64bits(v), 16)
}

// keyCols returns the aggregate's effective column identity, zeroing
// the columns it never reads (mirrors core's model-key normalisation).
func keyCols(q query.Query) (int, int) {
	switch q.Aggregate {
	case query.Count:
		return 0, 0
	case query.Sum, query.Avg, query.Var:
		return q.Col, 0
	default:
		return q.Col, q.Col2
	}
}

// Pool answers queries from one thread-safe agent.
type Pool struct {
	agent *core.Agent
	sf    group
	rec   *metrics.ServeRecorder
	// cache, when enabled, is the first hot-path tier: answers keyed by
	// canonical query key and stamped with the agent's data version are
	// returned without touching the agent at all.
	cache *AnswerCache
	// verFn overrides the agent's cache-version source. Distributed
	// nodes install one that also folds in cluster-visible write
	// signals (forwarded ingest) the agent's own oracle version cannot
	// see.
	verFn func() int64
	// keys pools the canonical-key scratch buffers so the steady-state
	// cache-hit and prediction paths build keys without allocating.
	keys sync.Pool

	// tracer, when attached, samples query traces and keeps the
	// slow-query log. Nil (and disabled) cost the hot path only nil
	// checks and one atomic load.
	tracer *trace.Tracer

	// log, when attached, receives trace-correlated structured lines
	// for slow queries. Nil is silent; the hot path only consults it
	// behind the slow-query threshold check, so normal-speed queries
	// never touch it.
	log *obs.Logger

	// flight, when attached, receives per-path exemplars (the slowest
	// traced query per sampling window) from finishQuery. Consulted
	// only on the traced path, so untraced queries never touch it.
	flight *flight.Recorder

	// plane is the observability plane NewPlane wired onto the pool;
	// NewServer mounts its routes.
	plane *Plane

	// Shadow-audit sampler: one in auditEvery model-served answers is
	// re-evaluated exactly in the background and its realised error
	// recorded. auditSem bounds concurrent probes (overflow samples are
	// dropped, not queued — the audit must never add serving pressure).
	auditEvery atomic.Int64
	auditCtr   atomic.Int64
	auditSem   chan struct{}
	auditWG    sync.WaitGroup
}

// keyBuf is the pooled canonical-key scratch buffer.
type keyBuf struct{ b []byte }

func (p *Pool) getKeyBuf() *keyBuf {
	if kb, ok := p.keys.Get().(*keyBuf); ok {
		return kb
	}
	return &keyBuf{b: make([]byte, 0, 128)}
}

// NewPool builds a pool over ag, instrumented through rec (which may be
// shared with a Scheduler/Server; nil allocates one).
func NewPool(ag *core.Agent, rec *metrics.ServeRecorder) *Pool {
	if rec == nil {
		rec = metrics.NewServeRecorder()
	}
	// Continuous accuracy audit, free half: every exact fallback whose
	// model had enough support to answer records predicted-vs-truth
	// error (the truth is already computed, so this costs nothing
	// extra). Keyed by aggregate.
	ag.SetAuditor(func(agg query.Agg, pred, truth float64) {
		rec.RecordAudit(agg.String(), "fallback", core.NormError(agg, pred, truth))
	})
	return &Pool{agent: ag, rec: rec}
}

// Recorder returns the pool's serving-metrics recorder.
func (p *Pool) Recorder() *metrics.ServeRecorder { return p.rec }

// EnableTracing attaches a tracer: the pool samples per its rate,
// callers may force traces (?trace=1), and queries over the tracer's
// slow threshold land in its slow-query log. Attach at wiring time.
func (p *Pool) EnableTracing(t *trace.Tracer) { p.tracer = t }

// SetLogger attaches a structured logger for slow-query lines (nil
// detaches). Attach at wiring time.
func (p *Pool) SetLogger(l *obs.Logger) { p.log = l }

// EnableFlight attaches (or with nil detaches) a flight recorder to
// the per-query exemplar hook. Wire before serving traffic, like
// EnableTracing.
func (p *Pool) EnableFlight(fr *flight.Recorder) { p.flight = fr }

// Tracer returns the attached tracer (nil when tracing is off).
func (p *Pool) Tracer() *trace.Tracer { return p.tracer }

// EnableShadowAudit turns on the shadow-audit sampler: one in every
// model-served answers is re-evaluated on the exact oracle in the
// background (bounded by maxInflight concurrent probes; excess samples
// are dropped) and its realised relative error recorded under source
// "shadow". every <= 0 disables.
func (p *Pool) EnableShadowAudit(every int64, maxInflight int) {
	if every <= 0 {
		p.auditEvery.Store(0)
		return
	}
	if maxInflight <= 0 {
		maxInflight = 4
	}
	if p.auditSem == nil {
		p.auditSem = make(chan struct{}, maxInflight)
	}
	p.auditEvery.Store(every)
}

// DrainAudits blocks until every in-flight shadow probe has finished
// (experiments use it before reading the audit histograms).
func (p *Pool) DrainAudits() { p.auditWG.Wait() }

// maybeShadowAudit samples the model-served answer stream: when the
// counter fires, ground truth for q is computed on a background
// goroutine via the agent's ExactProbe and the realised error
// recorded. Disabled cost: one atomic load per model answer.
func (p *Pool) maybeShadowAudit(q query.Query, ans core.Answer) {
	every := p.auditEvery.Load()
	if every <= 0 {
		return
	}
	if p.auditCtr.Add(1)%every != 0 {
		return
	}
	select {
	case p.auditSem <- struct{}{}:
	default:
		return
	}
	p.auditWG.Add(1)
	go func() {
		defer func() { <-p.auditSem; p.auditWG.Done() }()
		truth, err := p.agent.ExactProbe(q)
		if err != nil {
			return
		}
		p.rec.RecordAudit(q.Aggregate.String(), "shadow",
			core.NormError(q.Aggregate, ans.Value, truth))
	}()
}

// pathOf classifies which tier produced ans (the cache tier is
// classified by its caller — a hit never reaches the agent).
func pathOf(ans core.Answer) metrics.Path {
	if ans.Predicted {
		return metrics.PathModel
	}
	if ans.Cost.NodesTouched > 1 {
		return metrics.PathExactScatter
	}
	return metrics.PathExactLocal
}

// EnableCache attaches a bounded, sharded LRU answer cache of roughly
// capacity entries to the pool (capacity <= 0 detaches it). Wire it up
// before serving traffic; it is not safe to toggle concurrently with
// Answer.
func (p *Pool) EnableCache(capacity int) {
	if capacity <= 0 {
		p.cache = nil
		return
	}
	p.cache = NewAnswerCache(capacity)
}

// Cache returns the pool's answer cache (nil when disabled).
func (p *Pool) Cache() *AnswerCache { return p.cache }

// SetCacheVersion overrides the cache's version source (nil restores
// the default, the agent's CacheVersion). The function must be cheap,
// lock-light and monotone: every data change the caller can observe
// must change its value. Configure before serving.
func (p *Pool) SetCacheVersion(fn func() int64) { p.verFn = fn }

// cacheVersion reads the cache entries' freshness stamp.
func (p *Pool) cacheVersion() int64 {
	if p.verFn != nil {
		return p.verFn()
	}
	return p.agent.CacheVersion()
}

// FlushCache drops every cached answer. Maintenance paths that change
// predictions without changing the data version (background model
// rebuilds, explicit invalidations) call this.
func (p *Pool) FlushCache() {
	if p.cache != nil {
		p.cache.Flush()
	}
}

// Agent returns the pool's agent.
func (p *Pool) Agent() *core.Agent { return p.agent }

// Agents returns the pool's one agent as a one-element slice. It is
// kept only for the benchmark harness (bench/trace.go:599 and :720 read
// Agents()[0]); code in this module calls Agent.
func (p *Pool) Agents() []*core.Agent { return []*core.Agent{p.agent} }

// Answer serves one query through the tiered hot path: a versioned
// cache hit (cheapest — no agent touched), then the read-locked model
// fast path, then a single-flight deduplicated oracle fallback. The
// cache-hit and steady-state prediction tiers run without heap
// allocations. When a tracer is attached, Answer also makes the
// per-query sampling decision.
func (p *Pool) Answer(q query.Query) (core.Answer, error) {
	return p.AnswerTraced(q, p.tracer.Sample("query"))
}

// AnswerTraced is Answer under a caller-provided trace (nil = untraced;
// ?trace=1 front-ends pass a forced trace). The trace is finished —
// root span ended, published in the tracer's ring — before returning,
// but stays readable for inline serialisation.
func (p *Pool) AnswerTraced(q query.Query, tr *trace.Trace) (core.Answer, error) {
	start := time.Now()
	sp := tr.Root()
	kb := p.getKeyBuf()
	kb.b = AppendKey(kb.b[:0], q)
	h := fnv32Bytes(kb.b)
	// ver is read before the answer is computed, and stamps whatever
	// gets cached below: a write racing the computation can only make
	// the entry expire early, never serve past its data version.
	var ver int64
	if p.cache != nil {
		ver = p.cacheVersion()
		csp := sp.Child("cache_lookup")
		ans, ok := p.cache.lookup(kb.b, h, ver)
		csp.End()
		if ok {
			csp.SetAttr("hit", "true")
			p.keys.Put(kb)
			lat := time.Since(start)
			p.rec.ObservePath(lat, metrics.PathCache)
			p.finishQuery(tr, q, metrics.PathCache, lat)
			return ans, nil
		}
		csp.SetAttr("hit", "false")
	}
	// An identical fallback already in flight? Park behind it without
	// touching the agent at all: sharing the in-flight oracle execution
	// beats re-running it, however cheap the probe would be.
	if c := p.sf.joinBytes(kb.b); c != nil {
		p.keys.Put(kb)
		ssp := sp.Child("singleflight_wait")
		c.wg.Wait()
		ssp.End()
		if c.err != nil {
			p.rec.Error()
			p.finishQuery(tr, q, metrics.PathExactLocal, time.Since(start))
			return core.Answer{}, c.err
		}
		lat := time.Since(start)
		path := pathOf(c.ans)
		p.rec.DedupPath(lat, path)
		sp.SetAttr("deduped", "true")
		p.finishQuery(tr, q, path, lat)
		return c.ans, nil
	}
	psp := sp.Child("try_predict")
	ans, ok := p.agent.TryPredict(q)
	psp.End()
	if ok {
		if p.cache != nil {
			p.cache.put(string(kb.b), h, ver, ans)
		}
		p.keys.Put(kb)
		lat := time.Since(start)
		p.rec.ObservePath(lat, metrics.PathModel)
		p.finishQuery(tr, q, metrics.PathModel, lat)
		p.maybeShadowAudit(q, ans)
		return ans, nil
	}
	// Expensive path: identical in-flight fallbacks collapse to one
	// oracle execution whose result every waiter shares.
	key := string(kb.b)
	p.keys.Put(kb)
	fsp := sp.Child("agent_answer")
	ans, shared, err := p.sf.do(key, func() (core.Answer, error) {
		return p.agent.AnswerSpan(q, fsp)
	})
	fsp.End()
	if err != nil {
		p.rec.Error()
		p.finishQuery(tr, q, metrics.PathExactLocal, time.Since(start))
		return core.Answer{}, err
	}
	lat := time.Since(start)
	path := pathOf(ans)
	if ans.Degraded {
		// A degraded answer reflects which holders were reachable this
		// instant, not the data: caching it would keep serving the
		// outage after the cluster heals.
		p.rec.DegradedAnswer()
	}
	if shared {
		p.rec.DedupPath(lat, path)
		sp.SetAttr("deduped", "true")
	} else {
		if p.cache != nil && !ans.Degraded {
			p.cache.put(key, h, ver, ans)
		}
		p.rec.ObservePath(lat, path)
		if path == metrics.PathModel {
			p.maybeShadowAudit(q, ans)
		}
	}
	p.finishQuery(tr, q, path, lat)
	return ans, nil
}

// finishQuery closes out per-query observability: the trace (path
// attribute, root-span end, ring publication) and the slow-query log.
// Untraced fast-path cost: one nil check plus one atomic threshold
// load.
func (p *Pool) finishQuery(tr *trace.Trace, q query.Query, path metrics.Path, lat time.Duration) {
	if tr != nil {
		tr.Root().SetAttr("path", path.String())
		p.tracer.Finish(tr)
		// Exemplar linkage: the flight recorder keeps the slowest traced
		// query per path per sampling window, so a latency spike in
		// /v1/history points straight at /v1/debug/trace/<id>.
		p.flight.NoteTraced(path, lat, tr.ID())
	}
	if p.tracer.Slow(lat) {
		p.tracer.NoteSlow(tr.ID(), Key(q), path.String(), lat)
		// Allow gates BEFORE the arguments are evaluated: a rate-limited
		// slow-query storm costs one atomic load per query, not key
		// formatting and boxing for a line that would be dropped anyway.
		if p.log.Allow(obs.LevelWarn) {
			p.log.Warn("slow query",
				"trace_id", tr.ID(), "key", Key(q), "path", path.String(), "lat", lat)
		}
	}
}

// fnv32 is the 32-bit FNV-1a hash (inline to avoid an import for four
// lines). fnv32(s) == fnv32Bytes([]byte(s)), so a cache entry lands in
// the same shard whether its key was built as a string or in a scratch
// buffer.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// fnv32Bytes is fnv32 over a byte slice.
func fnv32Bytes(b []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}
