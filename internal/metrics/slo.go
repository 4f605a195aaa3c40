package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SLOConfig declares per-tenant-class service objectives. Objectives
// are evaluated as multi-window burn rates in the Google SRE style: a
// burn rate of 1.0 means the class is consuming its error budget
// exactly as fast as the budget allows; 6.0 means the budget for the
// whole compliance period would be gone in 1/6th of it.
type SLOConfig struct {
	// LatencyObjective is the per-query latency threshold: queries
	// slower than this are budget-burning "bad events".
	LatencyObjective time.Duration
	// LatencyBudget is the allowed fraction of bad (slow) events —
	// 0.01 reads as "99% of queries complete within the objective".
	LatencyBudget float64
	// ErrorBudget is the allowed fraction of rejected submissions
	// (admission-control rejections are the per-class failure signal).
	ErrorBudget float64
	// FastWindow/SlowWindow are the two burn-rate evaluation windows.
	// The fast window reacts quickly; the slow window confirms the
	// burn is sustained rather than a blip.
	FastWindow time.Duration
	SlowWindow time.Duration
	// WarnBurn/CritBurn are the burn-rate thresholds for the warn and
	// critical states.
	WarnBurn float64
	CritBurn float64
	// Interval is the background sampling period.
	Interval time.Duration
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyObjective <= 0 {
		c.LatencyObjective = 250 * time.Millisecond
	}
	if c.LatencyBudget <= 0 {
		c.LatencyBudget = 0.01
	}
	if c.ErrorBudget <= 0 {
		c.ErrorBudget = 0.001
	}
	if c.FastWindow <= 0 {
		c.FastWindow = time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 30 * time.Minute
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 1.0
	}
	if c.CritBurn <= 0 {
		c.CritBurn = 6.0
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	return c
}

// sloCounts is one class's cumulative counters at a sample instant.
type sloCounts struct {
	queries  int64 // completed queries
	slow     int64 // queries above the latency objective (estimated)
	rejected int64 // admission rejections
}

// sloSample is one point-in-time reading of every class.
type sloSample struct {
	t       time.Time
	classes map[string]sloCounts
}

// SLOClassState is one tenant class's evaluated objective state.
type SLOClassState struct {
	Class    string  `json:"class"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// State is "ok", "warn" or "critical": critical when the fast
	// window burns at CritBurn with the slow window confirming at
	// WarnBurn, warn when the fast window alone reaches WarnBurn.
	State string `json:"state"`
}

// SLOEngine periodically samples a ServeRecorder's per-class counters
// and evaluates burn rates over the configured windows. All methods
// are safe on a nil receiver (everything reports empty/ok), so callers
// can wire it unconditionally.
type SLOEngine struct {
	cfg SLOConfig
	rec *ServeRecorder

	mu      sync.Mutex
	samples []sloSample

	// Worst-class burn rates and state from the latest Tick, cached in
	// atomics so the flight recorder can sample them every second
	// without taking mu or allocating the States slice.
	worstFast  atomic.Uint64 // math.Float64bits
	worstSlow  atomic.Uint64 // math.Float64bits
	worstState atomic.Int64  // 0=ok 1=warn 2=critical

	stop chan struct{}
	done chan struct{}
}

// NewSLOEngine builds an engine bound to rec. Call Start for
// background sampling or Tick from a test/driver clock.
func NewSLOEngine(rec *ServeRecorder, cfg SLOConfig) *SLOEngine {
	return &SLOEngine{cfg: cfg.withDefaults(), rec: rec}
}

// Config returns the engine's resolved configuration.
func (e *SLOEngine) Config() SLOConfig {
	if e == nil {
		return SLOConfig{}
	}
	return e.cfg
}

// Tick takes one sample at the given instant and prunes readings older
// than the slow window. Exported so tests (and single-shot tools) can
// drive the engine with a synthetic clock.
func (e *SLOEngine) Tick(now time.Time) {
	if e == nil || e.rec == nil {
		return
	}
	obj := int64(e.cfg.LatencyObjective)
	classes := make(map[string]sloCounts)
	for class, ts := range e.rec.tenants() {
		hs := ts.Lat.Snapshot()
		classes[class] = sloCounts{
			queries:  hs.Count,
			slow:     hs.CountAbove(obj),
			rejected: ts.Rejected.Load(),
		}
	}

	e.mu.Lock()
	e.samples = append(e.samples, sloSample{t: now, classes: classes})
	cutoff := now.Add(-e.cfg.SlowWindow - e.cfg.Interval)
	drop := 0
	for drop < len(e.samples)-1 && e.samples[drop].t.Before(cutoff) {
		drop++
	}
	if drop > 0 {
		e.samples = append(e.samples[:0], e.samples[drop:]...)
	}
	e.mu.Unlock()

	// Refresh the cached worst-class view (States takes mu itself).
	var fast, slow float64
	var worst int64
	for _, st := range e.States() {
		if st.FastBurn > fast {
			fast = st.FastBurn
		}
		if st.SlowBurn > slow {
			slow = st.SlowBurn
		}
		if v := int64(sloStateValue(st.State)); v > worst {
			worst = v
		}
	}
	e.worstFast.Store(math.Float64bits(fast))
	e.worstSlow.Store(math.Float64bits(slow))
	e.worstState.Store(worst)
}

// WorstBurn returns the highest per-class fast- and slow-window burn
// rates as of the latest Tick. Lock-free and allocation-free: safe to
// sample every second.
func (e *SLOEngine) WorstBurn() (fast, slow float64) {
	if e == nil {
		return 0, 0
	}
	return math.Float64frombits(e.worstFast.Load()),
		math.Float64frombits(e.worstSlow.Load())
}

// WorstState returns the worst per-class objective state as of the
// latest Tick (0=ok 1=warn 2=critical), without locks or allocation.
func (e *SLOEngine) WorstState() int {
	if e == nil {
		return 0
	}
	return int(e.worstState.Load())
}

// Start launches the background sampler. Stop terminates it.
func (e *SLOEngine) Start() {
	if e == nil || e.stop != nil {
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		tick := time.NewTicker(e.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				e.Tick(now)
			case <-e.stop:
				return
			}
		}
	}()
}

// Stop terminates the background sampler (idempotent, nil-safe).
func (e *SLOEngine) Stop() {
	if e == nil || e.stop == nil {
		return
	}
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	<-e.done
}

// burnOver computes a class's burn rate over the window ending at the
// latest sample: the worse of the latency burn (slow fraction over
// LatencyBudget) and the rejection burn (rejected fraction over
// ErrorBudget). Windows shorter than the engine's uptime use the full
// recorded span.
func (e *SLOEngine) burnOver(class string, window time.Duration) float64 {
	last := e.samples[len(e.samples)-1]
	start := last.t.Add(-window)
	base := e.samples[0]
	for _, s := range e.samples {
		if s.t.After(start) {
			break
		}
		base = s
	}
	cur := last.classes[class]
	old := base.classes[class]
	dq := cur.queries - old.queries
	dslow := cur.slow - old.slow
	drej := cur.rejected - old.rejected
	var burn float64
	if dq > 0 {
		burn = float64(dslow) / float64(dq) / e.cfg.LatencyBudget
	}
	if sub := dq + drej; sub > 0 && drej > 0 {
		if eb := float64(drej) / float64(sub) / e.cfg.ErrorBudget; eb > burn {
			burn = eb
		}
	}
	return burn
}

// States evaluates every sampled class, sorted by class name. Empty
// until two samples exist (burn rates need a delta).
func (e *SLOEngine) States() []SLOClassState {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.samples) < 2 {
		return nil
	}
	last := e.samples[len(e.samples)-1]
	out := make([]SLOClassState, 0, len(last.classes))
	for class := range last.classes {
		st := SLOClassState{
			Class:    class,
			FastBurn: e.burnOver(class, e.cfg.FastWindow),
			SlowBurn: e.burnOver(class, e.cfg.SlowWindow),
		}
		switch {
		case st.FastBurn >= e.cfg.CritBurn && st.SlowBurn >= e.cfg.WarnBurn:
			st.State = "critical"
		case st.FastBurn >= e.cfg.WarnBurn:
			st.State = "warn"
		default:
			st.State = "ok"
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// sloStateValue maps a state to its gauge encoding.
func sloStateValue(state string) int {
	switch state {
	case "critical":
		return 2
	case "warn":
		return 1
	}
	return 0
}

// sloFamilies are sea_slo_burn_rate{class,window} and
// sea_slo_state{class} (0=ok 1=warn 2=critical) over the engine
// attached to r, one cell per evaluated class.
func sloFamilies(r *ServeRecorder) []Family {
	return []Family{
		{Name: "sea_slo_burn_rate", Help: "Error-budget burn rate by tenant class and window.",
			Labels: []string{"class", "window"},
			Cells: func(yield func(Cell) bool) {
				for _, st := range r.SLO().States() {
					if !yield(Cell{Values: []string{st.Class, "fast"}, Value: st.FastBurn}) ||
						!yield(Cell{Values: []string{st.Class, "slow"}, Value: st.SlowBurn}) {
						return
					}
				}
			}},
		{Name: "sea_slo_state", Help: "Objective state by tenant class (0=ok 1=warn 2=critical).",
			Labels: []string{"class"},
			Cells: func(yield func(Cell) bool) {
				for _, st := range r.SLO().States() {
					if !yield(Cell{Values: []string{st.Class}, Value: float64(sloStateValue(st.State))}) {
						return
					}
				}
			}},
	}
}
