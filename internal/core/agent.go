// Package core implements the paper's primary contribution: the
// intelligent agent of Fig. 2 that sits between analysts and the BDAS and
// realises "data-less big data analytics" (P2, RT1).
//
// The agent follows the paper's three-part recipe:
//
//   - Query-space quantisation (RT1.1, objective O1): analytical queries
//     are vectorised (centre + extent) and quantised online with adaptive
//     vector quantisation, so prototypes track the analysts' current
//     interest regions and drift with them.
//
//   - Answer-space modelling (RT1.2, objective O2): each query quantum
//     owns a recursive-least-squares model per aggregate kind that maps
//     query vectors to answers, trained on the (query, answer) pairs the
//     agent intercepts.
//
//   - Prediction with error estimation (RT1.3, objective O3): a new query
//     is routed to its quantum; if the quantum's model is mature and its
//     recent error is below threshold the agent answers from the model —
//     touching zero base data — otherwise it falls back to the exact
//     engine and folds the fresh pair back into the model.
//
// Model maintenance (RT1.4) handles both drift directions: query-interest
// drift via prototype spawning/purging, and base-data updates via
// staleness probation (fallbacks are forced until fresh residuals prove
// the model is accurate again).
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/trace"
)

// ErrNoOracle is returned when the agent needs an exact answer but was
// built without an oracle.
var ErrNoOracle = errors.New("core: no oracle configured")

// Oracle answers queries exactly (at full BDAS cost). internal/exec
// provides implementations over both execution paradigms.
// Implementations must be safe for concurrent calls: the agent invokes
// Answer outside its own lock so concurrent fallbacks overlap.
type Oracle interface {
	// Answer returns the exact result and the cost of computing it.
	Answer(q query.Query) (query.Result, metrics.Cost, error)
	// DataVersion returns the base data's current version counter.
	DataVersion() int64
}

// SpanOracle is an Oracle that can continue a query trace: when a
// traced query falls back to the exact path, the agent hands the
// oracle the fallback span so distributed oracles (scatter-gather)
// attach their per-holder RPC subtrees under it. sp may be nil.
type SpanOracle interface {
	Oracle
	AnswerSpan(q query.Query, sp *trace.Span) (query.Result, metrics.Cost, error)
}

// AuditFunc receives one accuracy-audit observation: the model's
// prediction for a query alongside the exact truth. The fallback path
// invokes it (under the agent's write lock) whenever the responsible
// model had enough support to have answered; implementations must be
// cheap and non-blocking.
type AuditFunc func(agg query.Agg, pred, truth float64)

// Config tunes the agent. The zero value is unusable; use DefaultConfig.
type Config struct {
	// Dims is the data space dimensionality queries select over.
	Dims int
	// TrainingQueries is how many initial queries are forwarded to the
	// oracle as the training set (Fig. 2's "training queries").
	TrainingQueries int
	// SpawnDistance is the squared query-space distance beyond which a
	// new quantum is spawned (interest-region granularity).
	SpawnDistance float64
	// MaxQuanta caps the number of query quanta.
	MaxQuanta int
	// Forgetting is the per-quantum RLS forgetting factor (1 = none).
	Forgetting float64
	// ErrorWindow is the number of recent residuals kept per quantum.
	ErrorWindow int
	// FallbackThreshold is the estimated (relative) error above which the
	// agent declines to predict and asks the oracle instead.
	FallbackThreshold float64
	// MinSupport is the observations a quantum needs before predicting.
	MinSupport int
	// ProbationSupport is the fresh observations a stale quantum needs
	// before it may predict again after a data-update notification.
	ProbationSupport int
	// PredictCPU is the simulated cost of one model inference.
	PredictCPU time.Duration
	// DriftRowBudget enables incremental model maintenance (RT1.4 under
	// a live write path): AbsorbRows attributes ingested rows to their
	// nearest quantum, incrementally updates additive (COUNT/SUM) models
	// in place, and only once a quantum has absorbed this many rows are
	// its remaining models invalidated — instead of the legacy wholesale
	// invalidate-on-version-change. 0 disables incremental maintenance.
	DriftRowBudget int
	// RecentQueries is the per-model ring of recent exact-path queries
	// kept for incremental COUNT/SUM updates (default 8 when
	// DriftRowBudget > 0).
	RecentQueries int
}

// DefaultConfig returns settings tuned for the experiments' [0,100]^d
// data spaces.
func DefaultConfig(dims int) Config {
	return Config{
		Dims:              dims,
		TrainingQueries:   300,
		SpawnDistance:     225, // prototypes every ~15 units of query space
		MaxQuanta:         64,
		Forgetting:        0.995,
		ErrorWindow:       48,
		FallbackThreshold: 0.2,
		MinSupport:        12,
		ProbationSupport:  4,
		PredictCPU:        20 * time.Microsecond,
	}
}

// modelKey identifies one answer-model family: an aggregate over specific
// columns (different aggregates live in different answer spaces, RT1.2).
type modelKey struct {
	agg       query.Agg
	col, col2 int
}

// quantumModel is the per-(quantum, aggregate) learned answer model plus
// its rolling error estimate.
type quantumModel struct {
	rls *ml.RLS
	// residuals is a ring of recent normalised errors vs exact answers.
	residuals []float64
	residPos  int
	residFull bool
	n         int64
	// probation > 0 forces fallbacks until that many fresh exact
	// observations arrive (data-update staleness, RT1.4(ii)).
	probation int
	// recent is a ring of this model's latest exact-path queries; the
	// incremental maintenance path (AbsorbRows) replays them against
	// freshly ingested rows to update additive models in place.
	recent    []storedObs
	recentPos int
	// growth is the incremental-maintenance correction for additive
	// aggregates (COUNT, SUM): a multiplicative answer-space factor
	// tracking how much the quantum's data mass has grown since the RLS
	// weights last saw the truth. Ingested batches advance it by their
	// exactly-known delta contribution; exact answers re-anchor it.
	// 0 means "uninitialised" (treated as 1).
	growth float64
	// est caches the rolling 90th-percentile normalised error so the
	// read-locked prediction fast path never sorts the residual window.
	// Every mutation of the residual ring happens under the agent's
	// write lock and must call refreshEst.
	est float64
}

// growthFactor returns the model's current answer-space correction.
func (m *quantumModel) growthFactor() float64 {
	if m.growth == 0 {
		return 1
	}
	return m.growth
}

// additive reports whether agg is maintained incrementally under ingest
// (its answer grows by an exactly-computable delta per batch).
func additive(agg query.Agg) bool { return agg == query.Count || agg == query.Sum }

// correct applies the growth correction to a raw model prediction.
func (m *quantumModel) correct(agg query.Agg, pred float64) float64 {
	if additive(agg) {
		return pred * m.growthFactor()
	}
	return pred
}

// storedObs is one remembered exact-path query: the model features plus
// the selection, enough to compute an ingested batch's exact delta
// contribution to the query's answer.
type storedObs struct {
	feat []float64
	sel  query.Selection
}

// storeRecent remembers an exact-path observation for incremental
// replay. cap is the configured ring size.
func (m *quantumModel) storeRecent(capacity int, feat []float64, sel query.Selection) {
	if capacity <= 0 {
		return
	}
	obs := storedObs{feat: append([]float64(nil), feat...), sel: sel}
	if len(m.recent) < capacity {
		m.recent = append(m.recent, obs)
		return
	}
	m.recent[m.recentPos] = obs
	m.recentPos = (m.recentPos + 1) % len(m.recent)
}

// Answer is the agent's reply to one analytical query.
type Answer struct {
	// Value is the (predicted or exact) aggregate value.
	Value float64
	// Predicted reports whether the answer came from a model (true) or
	// the exact oracle (false).
	Predicted bool
	// EstError is the estimated relative error accompanying a predicted
	// answer (RT1.3: "accompany predicted answers with error
	// estimations"); it is 0 for exact answers.
	EstError float64
	// Quantum is the query-space quantum the query fell into (-1 during
	// cold start).
	Quantum int
	// FreshRows is how many ingested rows the answering quantum has
	// absorbed since its models last refreshed — the staleness signal
	// freshness-aware serving layers surface (0 for exact answers:
	// they always read live data).
	FreshRows int
	// Cost is the full cost charged for this answer: base-data work for
	// exact answers, a model inference for predictions.
	Cost metrics.Cost
	// Degraded marks an exact answer whose scatter covered only part of
	// the partition space (some holders unreachable); Coverage is the
	// contributing fraction. Degraded answers are never learned from,
	// cached, or audited — they are best-effort estimates, not truth.
	Degraded bool
	Coverage float64
}

// Stats aggregates the agent's lifetime behaviour.
type Stats struct {
	// Queries is the total number answered.
	Queries int64
	// Predicted is how many were answered data-lessly.
	Predicted int64
	// Exact is how many hit the oracle (training + fallbacks).
	Exact int64
	// Quanta is the current quantum count.
	Quanta int
	// TotalCost accumulates every answer's cost.
	TotalCost metrics.Cost
	// OracleCost accumulates only oracle-path costs.
	OracleCost metrics.Cost
}

// PredictionRate returns the fraction of queries answered data-lessly.
func (s Stats) PredictionRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Predicted) / float64(s.Queries)
}

// Agent is the SEA intelligent agent. It is safe for concurrent use: the
// model-prediction path (the common case once trained) runs under a
// shared read lock so many goroutines predict in parallel, while
// training folds and maintenance serialise under the write lock. The
// exact oracle is called WITHOUT the lock held — a slow scan (a
// distributed oracle with stalled or partitioned peers can take the
// full RPC timeout plus retries) must not serialise the rest of the
// query plane — so Oracle implementations must be safe for concurrent
// Answer and DataVersion calls. Every oracle in this repo is: they are
// stateless adapters over copy-on-write storage reads.
type Agent struct {
	// mu orders structural access: prediction paths hold it for reading,
	// anything that trains, spawns quanta or invalidates models holds it
	// for writing.
	mu        sync.RWMutex
	cfg       Config
	oracle    Oracle
	quantizer *ml.OnlineAVQ
	models    map[modelKey][]*quantumModel // indexed by quantum id

	// spanOracle caches the oracle's SpanOracle capability (asserted
	// once at construction, not per fallback).
	spanOracle SpanOracle
	// audit, when set, observes every fallback whose model could have
	// predicted (the free half of the continuous accuracy audit).
	audit AuditFunc

	// statsMu guards stats separately so concurrent read-path predictions
	// (which only touch counters) don't contend on mu for writing.
	statsMu sync.Mutex
	stats   Stats

	// dataVer is the last data version the agent has folded in. Atomic
	// so the lock-free CacheVersion read never serialises behind an
	// in-flight oracle fallback holding mu.
	dataVer atomic.Int64

	// scratch pools per-call prediction buffers (query vector, model
	// features) so the steady-state TryPredict/PredictOnly fast paths
	// run without heap allocations.
	scratch sync.Pool

	// Incremental-maintenance state (all guarded by mu): per-quantum
	// fresh-row counters plus lifetime drift accounting.
	freshRows          map[int]int
	driftAbsorbed      int64
	driftUnattributed  int64
	driftInvalidations int64
	driftUpdated       int64
	driftRebuilds      int64
}

// NewAgent builds an agent over the given exact oracle.
func NewAgent(oracle Oracle, cfg Config) (*Agent, error) {
	if cfg.Dims < 1 {
		return nil, fmt.Errorf("core: config needs Dims >= 1, got %d", cfg.Dims)
	}
	if cfg.ErrorWindow < 4 {
		cfg.ErrorWindow = 4
	}
	if cfg.FallbackThreshold <= 0 {
		cfg.FallbackThreshold = 0.15
	}
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 1
	}
	if cfg.DriftRowBudget > 0 && cfg.RecentQueries <= 0 {
		cfg.RecentQueries = 8
	}
	a := &Agent{
		cfg:       cfg,
		oracle:    oracle,
		quantizer: ml.NewOnlineAVQ(cfg.SpawnDistance, cfg.MaxQuanta),
		models:    make(map[modelKey][]*quantumModel),
		freshRows: make(map[int]int),
	}
	if oracle != nil {
		a.dataVer.Store(oracle.DataVersion())
		a.spanOracle, _ = oracle.(SpanOracle)
	}
	return a, nil
}

// SetAuditor installs the accuracy-audit callback (see AuditFunc).
// Configure at wiring time, before serving traffic.
func (a *Agent) SetAuditor(fn AuditFunc) {
	a.mu.Lock()
	a.audit = fn
	a.mu.Unlock()
}

// predictScratch is the per-call scratch arena of the prediction fast
// paths: the query vector (centre..., extent, shape flag) and the model
// features reuse these buffers instead of allocating.
type predictScratch struct {
	qvec []float64
	feat []float64
}

func (a *Agent) getScratch() *predictScratch {
	if s, ok := a.scratch.Get().(*predictScratch); ok {
		return s
	}
	return &predictScratch{
		qvec: make([]float64, 0, a.cfg.Dims+2),
		feat: make([]float64, 0, a.featureDim()),
	}
}

// featureDim is the model input width: the full degree-2 polynomial
// expansion of the query vector (centre..., extent, shape flag) plus the
// subspace volume. The quadratic terms matter twice over: for Gaussian-
// clustered data log-count is exactly quadratic in the query centre, and
// the shape flag's cross terms let one model serve both range (box) and
// radius (ball) selections, whose populations differ at equal extent.
func (a *Agent) featureDim() int { return ml.PolyDim(a.cfg.Dims+2) + 1 }

func (a *Agent) features(q query.Query) []float64 {
	v := q.Vectorize(a.cfg.Dims) // centre..., extent
	if q.Select.IsRadius() {
		v = append(v, 1)
	} else {
		v = append(v, 0)
	}
	out := ml.PolyFeatures(v)
	out = append(out, q.Select.Volume())
	return out
}

// featuresFrom expands an already-built query vector qv (centre...,
// extent — produced by VectorizeInto over s.qvec) into the model
// features, reusing the scratch arena. It computes bit-identically to
// features without allocating.
func (a *Agent) featuresFrom(s *predictScratch, qv []float64, q query.Query) []float64 {
	if q.Select.IsRadius() {
		qv = append(qv, 1)
	} else {
		qv = append(qv, 0)
	}
	s.qvec = qv[:0]
	out := ml.PolyFeaturesInto(s.feat[:0], qv)
	out = append(out, q.Select.Volume())
	s.feat = out[:0]
	return out
}

// quantFeatures is the query's position in query space for quantisation:
// centre + extent only. The richer model features (extent^2, volume)
// would dominate Euclidean distances and shatter the space into thin
// quanta, so they are deliberately excluded here.
func (a *Agent) quantFeatures(q query.Query) []float64 {
	return q.Vectorize(a.cfg.Dims)
}

func (a *Agent) key(q query.Query) modelKey {
	k := modelKey{agg: q.Aggregate}
	switch q.Aggregate {
	case query.Count:
	case query.Sum, query.Avg, query.Var:
		k.col = q.Col
	case query.Corr, query.RegSlope:
		k.col, k.col2 = q.Col, q.Col2
	}
	return k
}

func (a *Agent) model(k modelKey, quantum int) *quantumModel {
	ms := a.models[k]
	for len(ms) <= quantum {
		ms = append(ms, nil)
	}
	if ms[quantum] == nil {
		ms[quantum] = &quantumModel{
			rls:       ml.NewRLS(a.featureDim(), a.cfg.Forgetting, 1000),
			residuals: make([]float64, a.cfg.ErrorWindow),
			est:       math.Inf(1),
		}
	}
	a.models[k] = ms
	return ms[quantum]
}

// normError returns the normalised error used for both the rolling
// estimate and the fallback decision: relative for unbounded magnitude
// aggregates, absolute for the bounded dependence statistics.
func normError(agg query.Agg, pred, truth float64) float64 {
	switch agg {
	case query.Corr, query.RegSlope:
		return math.Abs(pred - truth)
	default:
		return math.Abs(pred-truth) / math.Max(1, math.Abs(truth))
	}
}

func (m *quantumModel) observeResidual(e float64) {
	m.residuals[m.residPos] = e
	m.residPos = (m.residPos + 1) % len(m.residuals)
	if m.residPos == 0 {
		m.residFull = true
	}
	if m.probation > 0 {
		m.probation--
	}
	m.refreshEst()
}

// refreshEst recomputes the cached rolling-error estimate. The residual
// ring only mutates under the agent's write lock, so the read-locked
// prediction paths read m.est without sorting anything.
func (m *quantumModel) refreshEst() {
	n := len(m.residuals)
	if !m.residFull {
		n = m.residPos
	}
	if n == 0 {
		m.est = math.Inf(1)
		return
	}
	m.est = ml.Quantile(m.residuals[:n], 0.9)
}

// estError returns the rolling 90th-percentile normalised error.
func (m *quantumModel) estError() float64 { return m.est }

// trustworthy reports whether the model may answer data-lessly under the
// configured thresholds.
func (m *quantumModel) trustworthy(cfg Config) bool {
	if m == nil || m.n < int64(cfg.MinSupport) || m.probation > 0 {
		return false
	}
	return m.estError() <= cfg.FallbackThreshold
}

// Answer processes one analytical query through the Fig. 2 pipeline.
// The model-prediction path runs under a shared read lock (many callers
// in parallel); training, fallbacks and maintenance serialise.
func (a *Agent) Answer(q query.Query) (Answer, error) {
	return a.AnswerSpan(q, nil)
}

// AnswerSpan is Answer under a (possibly nil) trace span: the predict
// attempt and the exact fallback each get a child span, and span-aware
// oracles continue the tree across node boundaries. With sp == nil the
// cost over Answer is a handful of nil checks.
func (a *Agent) AnswerSpan(q query.Query, sp *trace.Span) (Answer, error) {
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	psp := sp.Child("try_predict")
	ans, ok := a.TryPredict(q)
	psp.End()
	if ok {
		psp.SetAttrInt("quantum", int64(ans.Quantum))
		psp.SetAttrFloat("est_error", ans.EstError)
		return ans, nil
	}
	fsp := sp.Child("fallback")
	defer fsp.End()
	return a.answerSlow(q, fsp)
}

// TryPredict attempts the read-mostly fast path: answer q from a learned
// model without touching the oracle or mutating any model state (only
// the stats counters advance). ok is false when the agent would need the
// slow path — still in training, data version changed, out of coverage,
// or the responsible model is not trustworthy. Callers that need an
// answer either way should use Answer; serving layers use TryPredict
// directly to decide whether an expensive fallback is about to happen
// (and e.g. deduplicate identical in-flight fallbacks).
func (a *Agent) TryPredict(q query.Query) (Answer, bool) {
	if q.Validate() != nil {
		return Answer{}, false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.oracle != nil {
		if a.oracle.DataVersion() != a.dataVer.Load() && !a.incremental() {
			return Answer{}, false // base data changed: slow path invalidates
		}
		a.statsMu.Lock()
		inTraining := a.stats.Queries < int64(a.cfg.TrainingQueries)
		a.statsMu.Unlock()
		if inTraining {
			return Answer{}, false
		}
	}
	ans, ok := a.predictLocked(q)
	if ok {
		a.count(ans, a.quantizer.Len())
	}
	return ans, ok
}

// predictLocked routes q to its quantum's model and, when q lies within
// learned coverage and the model is trustworthy, returns the model's
// answer. The caller holds a.mu (either side); nothing is mutated.
func (a *Agent) predictLocked(q query.Query) (Answer, bool) {
	s := a.getScratch()
	defer a.scratch.Put(s)
	qv := q.VectorizeInto(s.qvec[:0], a.cfg.Dims)
	quantum, d2 := a.quantizer.Assign(qv)
	if quantum < 0 {
		return Answer{}, false
	}
	if a.cfg.SpawnDistance > 0 && d2 > a.cfg.SpawnDistance {
		return Answer{}, false // outside learned query-space coverage
	}
	ms := a.models[a.key(q)]
	if quantum >= len(ms) || !ms[quantum].trustworthy(a.cfg) {
		return Answer{}, false
	}
	return a.predicted(ms[quantum], q, quantum, a.featuresFrom(s, qv, q)), true
}

// predicted is the answer model m of quantum gives for q from its
// features feat: the model-space prediction mapped back to answer
// space, growth-corrected and clamped to the aggregate's range.
func (a *Agent) predicted(m *quantumModel, q query.Query, quantum int, feat []float64) Answer {
	pred := m.correct(q.Aggregate, invTransform(q.Aggregate, m.rls.Predict(feat)))
	return Answer{
		Value:     clampPrediction(q.Aggregate, pred),
		Predicted: true,
		EstError:  m.estError(),
		Quantum:   quantum,
		FreshRows: a.freshRows[quantum],
		Cost:      metrics.Cost{Time: a.cfg.PredictCPU, CPUTime: a.cfg.PredictCPU},
	}
}

// count folds one served answer into the lifetime statistics; quanta
// is the quantiser's size when it was answered. An exact answer's cost
// is also charged to the oracle.
func (a *Agent) count(ans Answer, quanta int) {
	a.statsMu.Lock()
	a.stats.Queries++
	a.stats.TotalCost = a.stats.TotalCost.Add(ans.Cost)
	if ans.Predicted {
		a.stats.Predicted++
	} else {
		a.stats.Exact++
		a.stats.OracleCost = a.stats.OracleCost.Add(ans.Cost)
	}
	a.stats.Quanta = quanta
	a.statsMu.Unlock()
}

// answerSlow is the full Fig. 2 pipeline. The decision phase (change
// detection, quantiser update, model lookup, re-running the prediction
// checks — conditions may have shifted between a failed TryPredict and
// lock acquisition) runs under the write lock, but the lock is RELEASED
// around the oracle call itself: an exact scan — seconds of I/O on a
// distributed oracle whose peers are slow or partitioned — must not
// serialise the node's whole query plane behind it. The learning fold
// re-acquires the lock afterwards and is skipped if the base data moved
// during the unlocked scan (the pair would be stale).
func (a *Agent) answerSlow(q query.Query, sp *trace.Span) (Answer, error) {
	a.mu.Lock()
	a.maybeDetectDataChange()
	feat := a.features(q)
	qfeat := a.quantFeatures(q)
	k := a.key(q)

	a.statsMu.Lock()
	inTraining := a.stats.Queries < int64(a.cfg.TrainingQueries) && a.oracle != nil
	a.statsMu.Unlock()
	asp := sp.Child("index_assign")
	var quantum int
	var outOfCoverage bool
	if inTraining {
		quantum = a.quantizer.Observe(qfeat)
	} else {
		var d2 float64
		quantum, d2 = a.quantizer.Assign(qfeat)
		// A query far from every learned quantum lies outside the agent's
		// query-space coverage: its nearest model describes a different
		// interest region and must not answer it (RT1.4(i): coverage is
		// judged by "distance between a query and the query quanta").
		outOfCoverage = a.cfg.SpawnDistance > 0 && d2 > a.cfg.SpawnDistance
	}
	if quantum < 0 { // empty quantizer (no training phase configured)
		quantum = a.quantizer.Observe(qfeat)
	}
	asp.End()
	asp.SetAttrInt("quantum", int64(quantum))
	m := a.model(k, quantum)

	if !inTraining && !outOfCoverage && m.trustworthy(a.cfg) {
		ans := a.predicted(m, q, quantum, feat)
		quanta := a.quantizer.Len()
		a.mu.Unlock()
		a.count(ans, quanta)
		return ans, nil
	}

	// Exact path: ask the oracle, learn from the pair. Fallback queries
	// keep training the quantiser too, so shifted interest regions grow
	// their own quanta over time (RT1.4(i) drift adaptation).
	if a.oracle == nil {
		a.mu.Unlock()
		return Answer{}, ErrNoOracle
	}
	if !inTraining {
		newQuantum := a.quantizer.Observe(qfeat)
		if newQuantum != quantum {
			quantum = newQuantum
		}
	}
	verBefore := a.oracle.DataVersion()
	// Len() reads quantizer state, so snapshot it before releasing the
	// lock: the stats blocks below run unlocked.
	quanta := a.quantizer.Len()
	a.mu.Unlock()

	osp := sp.Child("oracle")
	var res query.Result
	var cost metrics.Cost
	var err error
	if a.spanOracle != nil && sp != nil {
		res, cost, err = a.spanOracle.AnswerSpan(q, osp)
	} else {
		res, cost, err = a.oracle.Answer(q)
	}
	osp.End()
	if err != nil {
		return Answer{}, fmt.Errorf("core: oracle: %w", err)
	}
	osp.SetAttrInt("rows_read", cost.RowsRead)
	osp.SetAttrInt("nodes", int64(cost.NodesTouched))
	if res.Degraded {
		// A degraded merge is an extrapolation, not ground truth:
		// training the model, auditing, or re-anchoring growth against
		// it would bake a partial-coverage estimate into everything the
		// agent later predicts. Serve it and learn nothing.
		ans := Answer{
			Value:    res.Value,
			Quantum:  quantum,
			Cost:     cost,
			Degraded: true,
			Coverage: res.Coverage,
		}
		a.count(ans, quanta)
		return ans, nil
	}

	a.mu.Lock()
	// Fold the (query, answer) pair in only if the base data sat still
	// for the unlocked scan (incremental maintenance absorbs mid-scan
	// movement instead of invalidating, so it keeps learning): a pair
	// scanned across a version bump would train the model on an answer
	// no current version produces. The answer itself is still served —
	// it was exact for the data as of the scan.
	if a.oracle.DataVersion() == verBefore || a.incremental() {
		// Re-fetch the model: an invalidation or spawn during the scan
		// may have replaced the slot this quantum maps to.
		m = a.model(k, quantum)
		pred := m.correct(q.Aggregate, invTransform(q.Aggregate, m.rls.Predict(feat)))
		if m.n > 0 {
			m.observeResidual(normError(q.Aggregate, pred, res.Value))
			// Continuous accuracy audit, free half: the truth is already
			// in hand, so record predicted-vs-truth for every fallback
			// whose model had support ("could have been predicted").
			if a.audit != nil {
				a.audit(q.Aggregate, pred, res.Value)
			}
		}
		m.rls.Observe(feat, transformTarget(q.Aggregate, res.Value))
		m.n++
		m.storeRecent(a.cfg.RecentQueries, feat, q.Select)
		if additive(q.Aggregate) && m.growth != 0 {
			// Exact answer in hand: re-anchor the incremental growth
			// correction against the freshly updated raw model.
			raw := invTransform(q.Aggregate, m.rls.Predict(feat))
			m.reanchorGrowth(raw, res.Value)
		}
		// The quantum just saw ground truth: its staleness clock restarts
		// (freshRows feeds Answer.FreshRows / the wire's stale_rows).
		delete(a.freshRows, quantum)
	}
	quanta = a.quantizer.Len()
	a.mu.Unlock()

	ans := Answer{
		Value:   res.Value,
		Quantum: quantum,
		Cost:    cost,
	}
	a.count(ans, quanta)
	return ans, nil
}

// transformTarget maps an exact answer into model space: non-negative,
// multiplicative aggregates (COUNT, VAR) are modelled in log1p space,
// where Gaussian-clustered answer surfaces become near-linear in the
// polynomial query features.
func transformTarget(agg query.Agg, y float64) float64 {
	switch agg {
	case query.Count, query.Var:
		if y < 0 {
			y = 0
		}
		return math.Log1p(y)
	default:
		return y
	}
}

// invTransform maps a model-space prediction back to answer space.
func invTransform(agg query.Agg, v float64) float64 {
	switch agg {
	case query.Count, query.Var:
		// Cap to keep a wild extrapolation from overflowing.
		if v > 60 {
			v = 60
		}
		return math.Expm1(v)
	default:
		return v
	}
}

// clampPrediction enforces range invariants the aggregates carry (counts
// are non-negative; correlations live in [-1, 1]).
func clampPrediction(agg query.Agg, v float64) float64 {
	switch agg {
	case query.Count:
		if v < 0 {
			return 0
		}
	case query.Var:
		if v < 0 {
			return 0
		}
	case query.Corr:
		if v > 1 {
			return 1
		}
		if v < -1 {
			return -1
		}
	}
	return v
}

// maybeDetectDataChange compares the oracle's data version against the
// last seen one and, on change, puts every model on probation. Callers
// that know the affected subspace should use NotifyDataChange instead
// for surgical invalidation; with incremental maintenance enabled
// (Config.DriftRowBudget > 0) version changes never invalidate
// wholesale — AbsorbRows is the maintenance channel instead.
func (a *Agent) maybeDetectDataChange() {
	if a.oracle == nil {
		return
	}
	v := a.oracle.DataVersion()
	if cur := a.dataVer.Load(); v != cur && cur != 0 && !a.incremental() {
		a.invalidate(nil)
	}
	a.dataVer.Store(v)
}

// NotifyDataChange invalidates models whose quantum prototype falls
// inside sel (nil = all): they enter probation and must re-earn trust via
// fresh exact observations (RT1.4(ii)).
func (a *Agent) NotifyDataChange(sel *query.Selection) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.invalidate(sel)
	if a.oracle != nil {
		a.dataVer.Store(a.oracle.DataVersion())
	}
}

// DataVersion returns the last data version the agent has folded in.
func (a *Agent) DataVersion() int64 { return a.dataVer.Load() }

// CacheVersion is the freshness stamp serving-layer answer caches pair
// with this agent's cached answers: the oracle's live data version
// (which advances with every applied ingest batch), or the agent's
// last-seen version when it has no oracle. It takes no lock — the
// oracle reference is immutable after construction and
// Oracle.DataVersion is documented read-safe — so cache hits never
// serialise behind an in-flight oracle fallback holding the agent's
// write lock.
func (a *Agent) CacheVersion() int64 {
	if a.oracle != nil {
		return a.oracle.DataVersion()
	}
	return a.dataVer.Load()
}

func (a *Agent) invalidate(sel *query.Selection) {
	protos := a.quantizer.Prototypes()
	for _, ms := range a.models {
		for qi, m := range ms {
			if m == nil {
				continue
			}
			if sel != nil && qi < len(protos) {
				// Prototype layout: centre..., extent — test the centre.
				centre := protos[qi][:a.cfg.Dims]
				if !sel.Contains(centre) {
					continue
				}
			}
			m.probation = a.cfg.ProbationSupport
			// Reset the error window: old residuals describe dead data.
			m.residPos = 0
			m.residFull = false
			m.refreshEst()
		}
	}
}

// PurgeStaleQuanta drops quanta that have not won recently (interest
// drift, RT5.3) along with their models, returning how many were removed.
func (a *Agent) PurgeStaleQuanta(maxAge int64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	removed := a.quantizer.PurgeStale(maxAge)
	if len(removed) == 0 {
		return 0
	}
	isRemoved := make(map[int]bool, len(removed))
	for _, r := range removed {
		isRemoved[r] = true
	}
	for k, ms := range a.models {
		var kept []*quantumModel
		for qi, m := range ms {
			if !isRemoved[qi] {
				kept = append(kept, m)
			}
		}
		a.models[k] = kept
	}
	return len(removed)
}

// PredictOnly returns the model prediction for q without touching the
// oracle, the statistics, or the quantiser — the read-only evaluation
// hook the explanation engine (RT4) samples when it sweeps a query
// parameter. ok is false when the responsible quantum is missing or
// untrusted.
func (a *Agent) PredictOnly(q query.Query) (value, estErr float64, ok bool) {
	if q.Validate() != nil {
		return 0, 0, false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	ans, ok := a.predictLocked(q)
	return ans.Value, ans.EstError, ok
}

// ExactProbe evaluates q on the exact oracle without touching models,
// statistics or the quantiser: the shadow-audit sampler uses it to
// obtain ground truth for a model-served answer. Like answerSlow's
// oracle call it runs without the agent's lock (the oracle is fixed at
// construction and safe for concurrent calls), so a probe waiting on a
// scatter-gather never stalls the predictions beside it.
func (a *Agent) ExactProbe(q query.Query) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if a.oracle == nil {
		return 0, ErrNoOracle
	}
	res, _, err := a.oracle.Answer(q)
	if err != nil {
		return 0, fmt.Errorf("core: probe oracle: %w", err)
	}
	if res.Degraded {
		// A partial-coverage merge is not ground truth; auditing a
		// model against it would charge the model with the scatter
		// layer's missing partitions.
		return 0, fmt.Errorf("core: probe oracle: degraded answer (coverage %.2f)", res.Coverage)
	}
	return res.Value, nil
}

// NormError returns the normalised prediction error the agent itself
// uses for trust decisions: relative for unbounded magnitude
// aggregates, absolute for the bounded dependence statistics. Audit
// layers use it so monitored error and fallback decisions share one
// definition.
func NormError(agg query.Agg, pred, truth float64) float64 {
	return normError(agg, pred, truth)
}

// ProbationQuanta counts models currently on probation (invalidated by
// a data change and not yet re-trusted) — a drift-health gauge.
func (a *Agent) ProbationQuanta() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := 0
	for _, ms := range a.models {
		for _, m := range ms {
			if m != nil && m.probation > 0 {
				n++
			}
		}
	}
	return n
}

// Stats returns a copy of the lifetime counters.
func (a *Agent) Stats() Stats {
	a.statsMu.Lock()
	defer a.statsMu.Unlock()
	return a.stats
}

// Quanta returns the current number of query-space quanta.
func (a *Agent) Quanta() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.quantizer.Len()
}

// QuantumCenters returns the prototypes' data-space centres (for
// visualisation and the geo model-placement logic).
func (a *Agent) QuantumCenters() [][]float64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	protos := a.quantizer.Prototypes()
	out := make([][]float64, len(protos))
	for i, p := range protos {
		c := make([]float64, a.cfg.Dims)
		copy(c, p[:a.cfg.Dims])
		out[i] = c
	}
	return out
}

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// ExportModel returns the learned weights of the (agg, col, col2) model
// for the given quantum, or nil when absent. Geo deployments ship these
// weights from core to edge nodes (RT5.2) instead of shipping data.
func (a *Agent) ExportModel(agg query.Agg, col, col2, quantum int) []float64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	ms := a.models[modelKey{agg: agg, col: col, col2: col2}]
	if quantum < 0 || quantum >= len(ms) || ms[quantum] == nil {
		return nil
	}
	return ms[quantum].rls.Weights()
}

// ImportModel installs weights for the (agg, col, col2) model of the
// given quantum, marking it trained with the supplied support and error
// estimate. The receiving agent can then predict immediately — this is
// the model-shipping path of RT1.5 and RT5.2.
func (a *Agent) ImportModel(agg query.Agg, col, col2, quantum int, weights []float64, support int64, estErr float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.model(modelKey{agg: agg, col: col, col2: col2}, quantum)
	m.rls.SetWeights(weights)
	m.n = support
	for i := range m.residuals {
		m.residuals[i] = estErr
	}
	m.residFull = true
	m.probation = 0
	m.refreshEst()
}

// SeedQuantum inserts a quantum prototype directly (used when importing a
// remote agent's quantisation). It returns the new quantum's index.
func (a *Agent) SeedQuantum(center []float64, extent float64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	feat := make([]float64, a.cfg.Dims+1)
	copy(feat, center)
	feat[a.cfg.Dims] = extent
	return a.quantizer.Observe(feat)
}
