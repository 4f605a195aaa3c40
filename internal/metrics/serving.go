package metrics

import (
	"sort"
	"sync"
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
	// PathAQP: served by an approximate (sampling) engine. Reserved —
	// the serving pool does not currently route through internal/aqp,
	// but the path is part of the exposition contract so dashboards
	// need not change when the planner starts using it.
	PathAQP
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
	case PathAQP:
		return "aqp"
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

// maxTenantClasses bounds the per-class map; overflow classes collapse
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

// TenantSnap is the snapshot form of TenantStats.
type TenantSnap struct {
	Queries  int64         `json:"queries"`
	Rejected int64         `json:"rejected"`
	Inflight int64         `json:"inflight"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`
}

// Kind says how a registry series accumulates. A counter only grows:
// its exposition name gains `_total`, and the flight recorder keeps its
// last value when it downsamples and scores its rate. A gauge is an
// instantaneous reading.
type Kind uint8

const (
	KindGauge Kind = iota
	KindCounter
)

// String returns the Prometheus TYPE word.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Series is one scalar series of a recorder's registry, the single list
// both /v1/metrics and the flight recorder walk. It is exported as
// sea_<Name> (sea_<Name>_total for a counter) and recorded as <Name>.
type Series struct {
	Name string
	Help string
	Kind Kind
	// Read samples the current value; it must be cheap, safe to call
	// concurrently and allocation-free (the flight recorder calls it every
	// tick).
	Read func() float64
	// Watch arms the flight recorder's anomaly detector on the series.
	Watch bool
}

// ExpoName is the series' family name on /v1/metrics.
func (s Series) ExpoName() string {
	if s.Kind == KindCounter {
		return "sea_" + s.Name + "_total"
	}
	return "sea_" + s.Name
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
// mergeable per-path histograms, so the hot path never takes a lock.
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

	paths [NumPaths]Histogram

	tenantMu sync.RWMutex
	tenants  map[string]*TenantStats

	audit AuditRecorder

	slo atomic.Pointer[SLOEngine]

	// series is the scalar registry, copied on write so readers never
	// lock.
	seriesMu sync.Mutex
	series   atomic.Pointer[[]Series]
}

// NewServeRecorder builds a recorder whose registry holds its own
// counters and the lifetime rates derived from them.
func NewServeRecorder() *ServeRecorder {
	r := &ServeRecorder{
		start:   time.Now(),
		tenants: make(map[string]*TenantStats),
	}
	r.series.Store(&[]Series{})
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
	} {
		v := c.v
		r.Register(Series{Name: c.name, Help: c.help, Kind: KindCounter, Watch: c.watch,
			Read: func() float64 { return float64(v.Load()) }})
	}
	r.Register(Series{Name: "audit_samples", Help: "Model answers audited against an exact evaluation.",
		Kind: KindCounter, Read: func() float64 { return float64(r.audit.Samples()) }})
	r.Register(Series{Name: "qps", Help: "Lifetime queries per second.", Read: func() float64 {
		return rate(r.queries.Load(), time.Since(r.start).Seconds())
	}})
	r.Register(Series{Name: "fallback_rate", Help: "Fraction of queries that ran the exact path.", Read: func() float64 {
		return rate(r.fallbacks.Load(), float64(r.queries.Load()))
	}})
	r.Register(Series{Name: "uptime_seconds", Help: "Recorder uptime.", Read: func() float64 {
		return time.Since(r.start).Seconds()
	}})
	return r
}

// rate is n/d, or 0 when d is not positive.
func rate(n int64, d float64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d
}

// Register adds s to the scalar registry. The first registration of a
// name wins and later ones are dropped, so two schedulers over one pool
// export one queue-depth series. Register at wiring time.
func (r *ServeRecorder) Register(s Series) {
	r.seriesMu.Lock()
	defer r.seriesMu.Unlock()
	old := *r.series.Load()
	for _, have := range old {
		if have.Name == s.Name {
			return
		}
	}
	next := append(old[:len(old):len(old)], s)
	r.series.Store(&next)
}

// Series returns the scalar registry in registration order. The slice is
// shared: callers must not modify it.
func (r *ServeRecorder) Series() []Series { return *r.series.Load() }

// ObservePath records one answered query under the path that served
// it. Cache hits count toward CacheHits, model/AQP answers toward
// Predicted, exact paths toward Fallbacks.
func (r *ServeRecorder) ObservePath(lat time.Duration, p Path) {
	r.queries.Add(1)
	switch p {
	case PathCache:
		r.cacheHits.Add(1)
	case PathModel, PathAQP:
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
func (r *ServeRecorder) Tenant(class string) *TenantStats {
	r.tenantMu.RLock()
	ts := r.tenants[class]
	r.tenantMu.RUnlock()
	if ts != nil {
		return ts
	}
	r.tenantMu.Lock()
	defer r.tenantMu.Unlock()
	if ts = r.tenants[class]; ts != nil {
		return ts
	}
	if len(r.tenants) >= maxTenantClasses {
		class = "other"
		if ts = r.tenants[class]; ts != nil {
			return ts
		}
	}
	ts = &TenantStats{}
	r.tenants[class] = ts
	return ts
}

// TenantReject records an admission rejection attributed to a tenant
// class (on top of the global Reject the caller also records).
func (r *ServeRecorder) TenantReject(class string) {
	r.Tenant(class).Rejected.Add(1)
}

// TenantObserve records one completed query (queue wait + execution)
// for a tenant class.
func (r *ServeRecorder) TenantObserve(class string, lat time.Duration) {
	ts := r.Tenant(class)
	ts.Queries.Add(1)
	ts.Lat.RecordDur(lat)
}

// Audit returns the accuracy-audit recorder.
func (r *ServeRecorder) Audit() *AuditRecorder { return &r.audit }

// SetSLO attaches an SLO engine whose burn-rate series WriteRecorder
// exports alongside the recorder's own metrics.
func (r *ServeRecorder) SetSLO(e *SLOEngine) { r.slo.Store(e) }

// SLO returns the attached engine (nil when none is wired).
func (r *ServeRecorder) SLO() *SLOEngine { return r.slo.Load() }

// PathHist returns the latency histogram for one answer path (the
// Prometheus writer reads bucket data straight from it).
func (r *ServeRecorder) PathHist(p Path) *Histogram { return &r.paths[p] }

// CacheHitRate returns the lifetime cache-hit fraction of answered
// queries (0 when none have completed). Two atomic loads, no locks.
func (r *ServeRecorder) CacheHitRate() float64 {
	return rate(r.cacheHits.Load(), float64(r.queries.Load()))
}

// tenantSnapshot copies the per-class table.
func (r *ServeRecorder) tenantSnapshot() map[string]TenantSnap {
	r.tenantMu.RLock()
	defer r.tenantMu.RUnlock()
	if len(r.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantSnap, len(r.tenants))
	for class, ts := range r.tenants {
		hs := ts.Lat.Snapshot()
		out[class] = TenantSnap{
			Queries:  ts.Queries.Load(),
			Rejected: ts.Rejected.Load(),
			Inflight: ts.Inflight.Load(),
			P50:      time.Duration(hs.Quantile(0.50)),
			P99:      time.Duration(hs.Quantile(0.99)),
		}
	}
	return out
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

	var all HistSnapshot
	paths := make(map[string]PathStats, NumPaths)
	for p := Path(0); p < NumPaths; p++ {
		hs := r.paths[p].Snapshot()
		if hs.Count > 0 {
			paths[p.String()] = PathStats{
				Count: hs.Count,
				P50:   time.Duration(hs.Quantile(0.50)),
				P99:   time.Duration(hs.Quantile(0.99)),
				Max:   time.Duration(hs.Max),
			}
		}
		all.Merge(hs)
	}
	if len(paths) > 0 {
		s.Paths = paths
	}
	if all.Count > 0 {
		s.P50 = time.Duration(all.Quantile(0.50))
		s.P90 = time.Duration(all.Quantile(0.90))
		s.P99 = time.Duration(all.Quantile(0.99))
		s.Max = time.Duration(all.Max)
	}
	s.Tenants = r.tenantSnapshot()
	s.Audit = r.audit.Snapshot()
	return s
}

// AuditKey identifies one accuracy-audit error histogram: which
// aggregate, and which sampling source filled it.
type AuditKey struct {
	Agg    string
	Source string // "fallback" (free, truth already computed) or "shadow" (forced exact probe)
}

// AuditSnap is one audit histogram's summary.
type AuditSnap struct {
	Agg    string  `json:"agg"`
	Source string  `json:"source"`
	Count  int64   `json:"count"`
	MAPE   float64 `json:"mape"`
	P99    float64 `json:"p99"`
}

// AuditRecorder accumulates predicted-vs-truth relative errors into
// per-(aggregate, source) histograms: the paper's accuracy
// claim as a continuously monitored production signal.
type AuditRecorder struct {
	mu      sync.RWMutex
	m       map[AuditKey]*Histogram
	samples atomic.Int64
}

// Record adds one relative-error observation.
func (a *AuditRecorder) Record(agg, source string, rel float64) {
	key := AuditKey{Agg: agg, Source: source}
	a.mu.RLock()
	h := a.m[key]
	a.mu.RUnlock()
	if h == nil {
		a.mu.Lock()
		if a.m == nil {
			a.m = make(map[AuditKey]*Histogram)
		}
		if h = a.m[key]; h == nil {
			h = &Histogram{}
			a.m[key] = h
		}
		a.mu.Unlock()
	}
	h.RecordErr(rel)
	a.samples.Add(1)
}

// Samples returns the lifetime number of audited answers.
func (a *AuditRecorder) Samples() int64 { return a.samples.Load() }

// MAPE returns the mean relative error and sample count across every
// histogram whose source matches (""=all).
func (a *AuditRecorder) MAPE(source string) (float64, int64) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var sum float64
	var n int64
	for k, h := range a.m {
		if source != "" && k.Source != source {
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

// Snapshot summarises every audit histogram, sorted for stable output.
func (a *AuditRecorder) Snapshot() []AuditSnap {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]AuditSnap, 0, len(a.m))
	for k, h := range a.m {
		hs := h.Snapshot()
		if hs.Count == 0 {
			continue
		}
		out = append(out, AuditSnap{
			Agg:    k.Agg,
			Source: k.Source,
			Count:  hs.Count,
			MAPE:   hs.Mean() / ErrScale,
			P99:    float64(hs.Quantile(0.99)) / ErrScale,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Agg != out[j].Agg {
			return out[i].Agg < out[j].Agg
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// Hists exposes the audit histograms for Prometheus exposition,
// invoking fn per (key, histogram) in sorted key order.
func (a *AuditRecorder) Hists(fn func(AuditKey, *Histogram)) {
	a.mu.RLock()
	keys := make([]AuditKey, 0, len(a.m))
	for k := range a.m {
		keys = append(keys, k)
	}
	hists := make([]*Histogram, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		if ki.Agg != kj.Agg {
			return ki.Agg < kj.Agg
		}
		return ki.Source < kj.Source
	})
	for i, k := range keys {
		hists[i] = a.m[k]
	}
	a.mu.RUnlock()
	for i, k := range keys {
		fn(k, hists[i])
	}
}
