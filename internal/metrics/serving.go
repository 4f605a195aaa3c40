package metrics

import (
	"iter"
	"sync/atomic"
	"time"
)

// Path classifies which tier of the serving stack produced an answer.
// Every answered query lands in exactly one path's latency histogram.
type Path uint8

const (
	// PathCache: served straight from the versioned answer cache.
	PathCache Path = iota
	// PathModel: served by a learned model's prediction.
	PathModel
	// PathExactLocal: exact oracle fallback served from local data.
	PathExactLocal
	// PathExactScatter: exact fallback that scatter-gathered partials
	// from more than one cluster member.
	PathExactScatter
	// NumPaths bounds the enum.
	NumPaths
)

// String returns the exposition label for the path.
func (p Path) String() string {
	switch p {
	case PathCache:
		return "cache"
	case PathModel:
		return "model"
	case PathExactLocal:
		return "exact_local"
	case PathExactScatter:
		return "exact_scatter"
	}
	return "unknown"
}

// ClassOf maps a tenant id to its tenant class for per-class metrics:
// a trailing "-<digits>" instance suffix is stripped ("client-17" ->
// "client"), anything else is its own class, "" becomes "default".
func ClassOf(tenant string) string {
	if tenant == "" {
		return "default"
	}
	for i := len(tenant) - 1; i > 0; i-- {
		c := tenant[i]
		if c >= '0' && c <= '9' {
			continue
		}
		if c == '-' && i < len(tenant)-1 {
			return tenant[:i]
		}
		break
	}
	return tenant
}

// maxTenantClasses bounds the per-class table; overflow classes collapse
// into "other" so a tenant-id cardinality bug cannot grow metrics
// memory without bound.
const maxTenantClasses = 64

// PathStats summarises one answer path's latency distribution.
type PathStats struct {
	Count int64         `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// TenantStats holds one tenant class's live counters. Fields are
// atomics so the scheduler updates them without a lock.
type TenantStats struct {
	Queries  atomic.Int64
	Rejected atomic.Int64
	Inflight atomic.Int64
	Lat      Histogram
}

// Observe records one completed query (queue wait + execution).
func (ts *TenantStats) Observe(lat time.Duration) {
	ts.Queries.Add(1)
	ts.Lat.RecordDur(lat)
}

// TenantSnap is the snapshot form of TenantStats.
type TenantSnap struct {
	Queries  int64         `json:"queries"`
	Rejected int64         `json:"rejected"`
	Inflight int64         `json:"inflight"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`
}

// ServeSnapshot is a point-in-time view of serving-layer health: the
// throughput/latency/fallback numbers the serving subsystem exposes over
// its stats endpoint. Unlike Cost (virtual simulator units), these are
// wall-clock measurements of the real process.
type ServeSnapshot struct {
	// Queries is the number of answered queries
	// (predicted + fallbacks + deduped).
	Queries int64 `json:"queries"`
	// Predicted is how many were answered from learned models.
	Predicted int64 `json:"predicted"`
	// Fallbacks is how many executed the expensive exact-oracle path
	// themselves (one per actual oracle run).
	Fallbacks int64 `json:"fallbacks"`
	// Deduped is how many were answered by sharing another identical
	// in-flight fallback's result (single-flight hits): they count
	// toward Queries but not Fallbacks, so FallbackRate tracks real
	// oracle executions.
	Deduped int64 `json:"deduped"`
	// CacheHits is how many were served straight from the versioned
	// answer cache without touching an agent. They count toward
	// Queries but toward neither Predicted nor Fallbacks.
	CacheHits int64 `json:"cache_hits"`
	// Rejected is how many submissions admission control turned away.
	Rejected int64 `json:"rejected"`
	// Errors is how many queries failed.
	Errors int64 `json:"errors"`
	// IngestBatches/IngestRows count row batches applied through the
	// live data plane's write path.
	IngestBatches int64 `json:"ingest_batches"`
	IngestRows    int64 `json:"ingest_rows"`
	// DriftInvalidations counts quanta whose models were invalidated by
	// the ingest drift budget (incremental maintenance events).
	DriftInvalidations int64 `json:"drift_invalidations"`
	// Rebuilds counts completed background re-quantisations.
	Rebuilds int64 `json:"rebuilds"`
	// RPCRetries/Hedges/DegradedAnswers count the resilience layer's
	// interventions: retried inter-node RPC attempts, hedged scatter
	// sends, and queries answered with partial partition coverage.
	RPCRetries      int64 `json:"rpc_retries"`
	Hedges          int64 `json:"hedges"`
	DegradedAnswers int64 `json:"degraded_answers"`
	// QPS is Queries divided by the uptime.
	QPS float64 `json:"qps"`
	// FallbackRate is Fallbacks / Queries.
	FallbackRate float64 `json:"fallback_rate"`
	// P50/P90/P99 are latency percentiles estimated from the merged
	// all-paths histogram (log-linear buckets, <=6.25% bucket width,
	// interpolated); Max is the exact observed maximum.
	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
	// Uptime is how long the recorder has been running.
	Uptime time.Duration `json:"uptime_ns"`
	// Paths breaks the latency distribution down by answer path.
	Paths map[string]PathStats `json:"paths,omitempty"`
	// Tenants breaks admission and latency down by tenant class.
	Tenants map[string]TenantSnap `json:"tenants,omitempty"`
	// Audit summarises the accuracy-audit error histograms.
	Audit []AuditSnap `json:"audit,omitempty"`
}

// ServeRecorder accumulates serving-layer measurements. It is safe for
// concurrent use: every worker in the serving pool observes into one
// shared recorder. Counters are lock-free atomics and latencies land in
// mergeable histograms, so the hot path never takes a lock. Its
// registry lists every measurement: /v1/metrics writes it and the
// flight recorder samples its scalar series.
type ServeRecorder struct {
	start time.Time

	queries   atomic.Int64
	predicted atomic.Int64
	fallbacks atomic.Int64
	deduped   atomic.Int64
	cacheHits atomic.Int64
	rejected  atomic.Int64
	errors    atomic.Int64

	ingestBatches atomic.Int64
	ingestRows    atomic.Int64
	driftInval    atomic.Int64
	rebuilds      atomic.Int64

	rpcRetries atomic.Int64
	hedges     atomic.Int64
	degraded   atomic.Int64

	paths   [NumPaths]Histogram
	classes cellTable[string, TenantStats]

	// audit holds the accuracy audit's predicted-vs-truth relative
	// errors per (aggregate, source): the paper's accuracy claim as a
	// continuously monitored signal.
	audit        cellTable[auditKey, Histogram]
	auditSamples atomic.Int64

	slo atomic.Pointer[SLOEngine]

	reg registry
}

// auditKey identifies one audit cell: which aggregate, and which
// sampling source filled it ("fallback": the truth was computed anyway;
// "shadow": a forced exact probe).
type auditKey struct{ agg, source string }

// NewServeRecorder builds a recorder whose registry holds its own
// counters, the lifetime rates derived from them and the labelled
// families over its histograms and tenant classes.
func NewServeRecorder() *ServeRecorder {
	r := &ServeRecorder{start: time.Now()}
	r.classes.max = maxTenantClasses
	r.classes.overflow = "other"
	r.classes.values = func(class string) []string { return []string{class} }
	r.audit.values = func(k auditKey) []string { return []string{k.agg, k.source} }

	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
		watch      bool
	}{
		{"queries", "Answered queries (predicted + fallbacks + deduped).", &r.queries, true},
		{"predicted", "Queries answered data-lessly from learned models.", &r.predicted, false},
		{"fallbacks", "Queries that executed the exact oracle path.", &r.fallbacks, false},
		{"deduped", "Queries served by sharing an identical in-flight fallback.", &r.deduped, false},
		{"cache_hits", "Queries served from the versioned answer cache.", &r.cacheHits, false},
		{"rejected", "Submissions turned away by admission control.", &r.rejected, true},
		{"errors", "Failed queries.", &r.errors, true},
		{"ingest_batches", "Row batches applied through the live write path.", &r.ingestBatches, false},
		{"ingest_rows", "Rows applied through the live write path.", &r.ingestRows, false},
		{"drift_invalidations", "Quanta invalidated by the ingest drift budget.", &r.driftInval, false},
		{"rebuilds", "Completed background model re-quantisations.", &r.rebuilds, false},
		{"rpc_retries", "Retried inter-node RPC attempts.", &r.rpcRetries, true},
		{"hedges", "Hedged scatter RPCs fired against a second holder.", &r.hedges, true},
		{"degraded_answers", "Queries answered with partial partition coverage.", &r.degraded, true},
		{"audit_samples", "Model answers audited against an exact evaluation.", &r.auditSamples, false},
	} {
		v := c.v
		r.Register(Series{Name: c.name, Help: c.help, Kind: KindCounter, Watch: c.watch,
			Read: func() float64 { return float64(v.Load()) }})
	}
	r.Register(Series{Name: "qps", Help: "Lifetime queries per second.", Read: func() float64 {
		return rate(r.queries.Load(), time.Since(r.start).Seconds())
	}})
	r.Register(Series{Name: "fallback_rate", Help: "Fraction of queries that ran the exact path.", Read: func() float64 {
		return rate(r.fallbacks.Load(), float64(r.queries.Load()))
	}})
	r.Register(Series{Name: "uptime_seconds", Help: "Recorder uptime.", Read: func() float64 {
		return time.Since(r.start).Seconds()
	}})

	r.RegisterFamily(Family{Name: "sea_latency_seconds",
		Help:   "Query latency quantiles from the merged answer-path histograms.",
		Labels: []string{"quantile"},
		Cells: func(yield func(Cell) bool) {
			_, all := r.pathSnapshots()
			_ = yield(Cell{Values: []string{"0.5"}, Value: quantileSeconds(all, 0.50)}) &&
				yield(Cell{Values: []string{"0.9"}, Value: quantileSeconds(all, 0.90)}) &&
				yield(Cell{Values: []string{"0.99"}, Value: quantileSeconds(all, 0.99)}) &&
				yield(Cell{Values: []string{"1"}, Value: time.Duration(all.Max).Seconds()})
		}})
	r.RegisterFamily(Family{Name: "sea_path_latency_seconds", Help: "Query latency by answer path.",
		Kind: KindHistogram, Labels: []string{"path"}, Buckets: latencyBuckets,
		Cells: func(yield func(Cell) bool) {
			for p := range NumPaths {
				if !yield(Cell{Values: []string{p.String()}, Hist: r.paths[p].Snapshot()}) {
					return
				}
			}
		}})
	for _, f := range []struct {
		name, help string
		kind       Kind
		read       func(*TenantStats) Cell
	}{
		{"sea_tenant_queries_total", "Completed queries by tenant class.", KindCounter,
			func(ts *TenantStats) Cell { return Cell{Value: float64(ts.Queries.Load())} }},
		{"sea_tenant_rejected_total", "Admission rejections by tenant class.", KindCounter,
			func(ts *TenantStats) Cell { return Cell{Value: float64(ts.Rejected.Load())} }},
		{"sea_tenant_inflight", "Queued plus running queries by tenant class.", KindGauge,
			func(ts *TenantStats) Cell { return Cell{Value: float64(ts.Inflight.Load())} }},
		{"sea_tenant_latency_seconds", "Query latency (queue wait + execution) by tenant class.", KindHistogram,
			func(ts *TenantStats) Cell { return Cell{Hist: ts.Lat.Snapshot()} }},
	} {
		r.RegisterFamily(Family{Name: f.name, Help: f.help, Kind: f.kind, Labels: []string{"class"},
			Buckets: latencyBuckets, Cells: cellsOf(&r.classes, f.read)})
	}
	r.RegisterFamily(Family{Name: "sea_audit_error",
		Help: "Predicted-vs-truth relative error of audited model answers.",
		Kind: KindHistogram, Labels: []string{"agg", "source"}, Buckets: errorBuckets,
		Cells: cellsOf(&r.audit, func(h *Histogram) Cell { return Cell{Hist: h.Snapshot()} })})
	return r
}

// rate is n/d, or 0 when d is not positive.
func rate(n int64, d float64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d
}

// ObservePath records one answered query under the path that served
// it. Cache hits count toward CacheHits, model answers toward
// Predicted, exact paths toward Fallbacks.
func (r *ServeRecorder) ObservePath(lat time.Duration, p Path) {
	r.queries.Add(1)
	switch p {
	case PathCache:
		r.cacheHits.Add(1)
	case PathModel:
		r.predicted.Add(1)
	default:
		r.fallbacks.Add(1)
	}
	r.paths[p].RecordDur(lat)
}

// DedupPath records a query answered by sharing an identical in-flight
// fallback's result: it counts toward Queries and the shared answer's
// path histogram (the recorded latency is the waiter's, i.e. how long
// it parked) but not Fallbacks — only the one shared oracle execution
// does.
func (r *ServeRecorder) DedupPath(lat time.Duration, p Path) {
	r.queries.Add(1)
	r.deduped.Add(1)
	r.paths[p].RecordDur(lat)
}

// Reject records an admission-control rejection.
func (r *ServeRecorder) Reject() {
	r.rejected.Add(1)
}

// Error records a failed query.
func (r *ServeRecorder) Error() {
	r.errors.Add(1)
}

// IngestBatch records one applied row batch from the live write path.
func (r *ServeRecorder) IngestBatch(rows int) {
	r.ingestBatches.Add(1)
	r.ingestRows.Add(int64(rows))
}

// DriftInvalidate records n drift-budget model invalidation events.
func (r *ServeRecorder) DriftInvalidate(n int) {
	if n <= 0 {
		return
	}
	r.driftInval.Add(int64(n))
}

// Rebuild records one completed background re-quantisation.
func (r *ServeRecorder) Rebuild() {
	r.rebuilds.Add(1)
}

// RPCRetry records one retried inter-node RPC attempt (the retry, not
// the original send).
func (r *ServeRecorder) RPCRetry() {
	r.rpcRetries.Add(1)
}

// Hedge records one hedged scatter RPC fired against a second holder.
func (r *ServeRecorder) Hedge() {
	r.hedges.Add(1)
}

// DegradedAnswer records one query answered with partial partition
// coverage instead of an error.
func (r *ServeRecorder) DegradedAnswer() {
	r.degraded.Add(1)
}

// Tenant returns (creating on first use) the stats cell for a tenant
// class. The class table is bounded: past maxTenantClasses new classes
// collapse into "other".
func (r *ServeRecorder) Tenant(class string) *TenantStats { return r.classes.get(class) }

// TenantReject records an admission rejection attributed to a tenant
// class (on top of the global Reject the caller also records).
func (r *ServeRecorder) TenantReject(class string) {
	r.Tenant(class).Rejected.Add(1)
}

// tenants yields every tenant class and its cell, in class order.
func (r *ServeRecorder) tenants() iter.Seq2[string, *TenantStats] { return r.classes.all() }

// RecordAudit adds one audited model answer's predicted-vs-truth
// relative error to the (agg, source) cell.
func (r *ServeRecorder) RecordAudit(agg, source string, rel float64) {
	r.audit.get(auditKey{agg, source}).RecordErr(rel)
	r.auditSamples.Add(1)
}

// AuditMAPE returns the mean relative error and sample count across the
// audit cells whose source matches ("" = all).
func (r *ServeRecorder) AuditMAPE(source string) (float64, int64) {
	var sum float64
	var n int64
	for k, h := range r.audit.all() {
		if source != "" && k.source != source {
			continue
		}
		hs := h.Snapshot()
		sum += float64(hs.Sum) / ErrScale
		n += hs.Count
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// SetSLO attaches an SLO engine and registers its burn-rate and state
// families.
func (r *ServeRecorder) SetSLO(e *SLOEngine) {
	r.slo.Store(e)
	for _, f := range sloFamilies(r) {
		r.RegisterFamily(f)
	}
}

// SLO returns the attached engine (nil when none is wired).
func (r *ServeRecorder) SLO() *SLOEngine { return r.slo.Load() }

// PathHist returns the latency histogram for one answer path.
func (r *ServeRecorder) PathHist(p Path) *Histogram { return &r.paths[p] }

// CacheHitRate returns the lifetime cache-hit fraction of answered
// queries (0 when none have completed). Two atomic loads, no locks.
func (r *ServeRecorder) CacheHitRate() float64 {
	return rate(r.cacheHits.Load(), float64(r.queries.Load()))
}

// pathSnapshots snapshots every answer path and their merge.
func (r *ServeRecorder) pathSnapshots() (per [NumPaths]HistSnapshot, all HistSnapshot) {
	for p := range per {
		per[p] = r.paths[p].Snapshot()
		all.Merge(per[p])
	}
	return per, all
}

// quantileSeconds is hs's q-quantile of nanosecond samples, in seconds
// (0 for an empty snapshot).
func quantileSeconds(hs HistSnapshot, q float64) float64 {
	if hs.Count == 0 {
		return 0
	}
	return time.Duration(hs.Quantile(q)).Seconds()
}

// Snapshot computes the current view: lifetime counters plus latency
// percentiles from the merged per-path histograms.
func (r *ServeRecorder) Snapshot() ServeSnapshot {
	s := ServeSnapshot{
		Queries:            r.queries.Load(),
		Predicted:          r.predicted.Load(),
		Fallbacks:          r.fallbacks.Load(),
		Deduped:            r.deduped.Load(),
		CacheHits:          r.cacheHits.Load(),
		Rejected:           r.rejected.Load(),
		Errors:             r.errors.Load(),
		IngestBatches:      r.ingestBatches.Load(),
		IngestRows:         r.ingestRows.Load(),
		DriftInvalidations: r.driftInval.Load(),
		Rebuilds:           r.rebuilds.Load(),
		RPCRetries:         r.rpcRetries.Load(),
		Hedges:             r.hedges.Load(),
		DegradedAnswers:    r.degraded.Load(),
		Uptime:             time.Since(r.start),
	}
	s.QPS = rate(s.Queries, s.Uptime.Seconds())
	s.FallbackRate = rate(s.Fallbacks, float64(s.Queries))

	per, all := r.pathSnapshots()
	for p, hs := range per {
		if hs.Count == 0 {
			continue
		}
		if s.Paths == nil {
			s.Paths = make(map[string]PathStats, NumPaths)
		}
		s.Paths[Path(p).String()] = PathStats{
			Count: hs.Count,
			P50:   time.Duration(hs.Quantile(0.50)),
			P99:   time.Duration(hs.Quantile(0.99)),
			Max:   time.Duration(hs.Max),
		}
	}
	if all.Count > 0 {
		s.P50 = time.Duration(all.Quantile(0.50))
		s.P90 = time.Duration(all.Quantile(0.90))
		s.P99 = time.Duration(all.Quantile(0.99))
		s.Max = time.Duration(all.Max)
	}
	for class, ts := range r.tenants() {
		if s.Tenants == nil {
			s.Tenants = make(map[string]TenantSnap)
		}
		hs := ts.Lat.Snapshot()
		s.Tenants[class] = TenantSnap{
			Queries:  ts.Queries.Load(),
			Rejected: ts.Rejected.Load(),
			Inflight: ts.Inflight.Load(),
			P50:      time.Duration(hs.Quantile(0.50)),
			P99:      time.Duration(hs.Quantile(0.99)),
		}
	}
	for k, h := range r.audit.all() {
		hs := h.Snapshot()
		if hs.Count > 0 {
			s.Audit = append(s.Audit, AuditSnap{Agg: k.agg, Source: k.source, Count: hs.Count,
				MAPE: hs.Mean() / ErrScale, P99: float64(hs.Quantile(0.99)) / ErrScale})
		}
	}
	return s
}

// AuditSnap is one audit cell's summary.
type AuditSnap struct {
	Agg    string  `json:"agg"`
	Source string  `json:"source"`
	Count  int64   `json:"count"`
	MAPE   float64 `json:"mape"`
	P99    float64 `json:"p99"`
}
