// Package flight is the node's always-on flight recorder: it samples
// every series of the metrics registry and key histogram quantiles into
// fixed-size per-series ring buffers at two resolutions (~10 min at
// 1 s, ~6 h at 30 s downsampled), runs robust anomaly detection over
// watched series, and — on an SLO-critical finding or an anomaly
// firing — captures a diagnostic bundle (goroutine dump, short CPU +
// heap profiles, trace rings, status snapshot) into a bounded on-disk
// spool. By the time an operator sees a spike, the evidence is already
// on disk and the ramp that led to it is queryable from /v1/history.
//
// The sample path follows the serving hot-path discipline: lock-free
// (ring slots and heads are atomics, the series list is an atomic
// pointer) and zero allocations at steady state — histogram quantiles
// come from preallocated scratch snapshots, detector windows sort in
// place, and every per-tick closure is built at wiring time.
package flight

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config sizes the recorder. Zero values take the documented defaults.
type Config struct {
	// Node names the member in bundle metadata and logs.
	Node string
	// Period is the hi-res sampling interval (default 1s).
	Period time.Duration
	// HiSlots is the hi-res ring size (default 600: ~10 min at 1s).
	HiSlots int
	// LoSlots is the downsampled ring size (default 720: ~6h at 30s).
	LoSlots int
	// Downsample is how many hi-res ticks fold into one lo-res point
	// (default 30).
	Downsample int

	// Anomaly arms the robust z-score detector over watched series.
	Anomaly bool
	// AnomalyWindow is the detector's rolling window in ticks
	// (default 60).
	AnomalyWindow int
	// AnomalyZ is the robust z-score firing threshold (default 8).
	AnomalyZ float64

	// SpoolDir is the diagnostic-bundle spool; empty disables capture.
	SpoolDir string
	// SpoolMax bounds the spool; oldest bundles evict first (default 8).
	SpoolMax int
	// Cooldown is the minimum spacing between captured bundles,
	// measured on the tick clock (default 5 min).
	Cooldown time.Duration
	// CPUProfile is the bundled CPU profile's duration (default 500ms).
	CPUProfile time.Duration

	// CriticalFn reports whether the node is in an SLO-critical state;
	// sampled every tick. Defaults to the instrumented recorder's SLO
	// engine worst-class state.
	CriticalFn func() bool
	// TracerFn supplies the tracer whose recent/slow rings bundles
	// include (may return nil).
	TracerFn func() *trace.Tracer
	// StatusFn supplies the status snapshot bundles include (the
	// /v1/status document); may be nil.
	StatusFn func() any
	// Logger receives capture/trigger log lines (nil-safe).
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = time.Second
	}
	if c.HiSlots <= 0 {
		c.HiSlots = 600
	}
	if c.LoSlots <= 0 {
		c.LoSlots = 720
	}
	if c.Downsample <= 0 {
		c.Downsample = 30
	}
	if c.AnomalyWindow <= 1 {
		c.AnomalyWindow = 60
	}
	if c.AnomalyZ <= 0 {
		c.AnomalyZ = 8
	}
	if c.SpoolMax <= 0 {
		c.SpoolMax = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Minute
	}
	if c.CPUProfile <= 0 {
		c.CPUProfile = 500 * time.Millisecond
	}
	return c
}

// ring is one fixed-size time series: parallel atomic slots for
// timestamps and float64 bit patterns, plus a monotone head counting
// total pushes. The single sampler goroutine writes; readers walk the
// logical window [head-n, head) lock-free. A reader racing the writer
// on the oldest slot may see that slot's next generation — acceptable
// for monitoring (each cell is individually atomic, never torn).
type ring struct {
	times []atomic.Int64  // unix ns
	vals  []atomic.Uint64 // math.Float64bits
	ids   []atomic.Pointer[string]
	head  atomic.Uint64
}

func newRing(n int, exemplars bool) *ring {
	r := &ring{times: make([]atomic.Int64, n), vals: make([]atomic.Uint64, n)}
	if exemplars {
		r.ids = make([]atomic.Pointer[string], n)
	}
	return r
}

func (r *ring) push(now int64, v float64, id *string) {
	slot := int(r.head.Load() % uint64(len(r.times)))
	r.times[slot].Store(now)
	r.vals[slot].Store(math.Float64bits(v))
	if r.ids != nil {
		r.ids[slot].Store(id)
	}
	r.head.Add(1)
}

// series is one recorded metric: a sampling closure feeding hi/lo
// rings, optional exemplar linkage, and optional detector state. The
// downsample accumulator and detector are touched only by the sampler
// goroutine.
type series struct {
	name string
	// kind sets downsampling and anomaly semantics: a counter's lo-res
	// point keeps the last cumulative value and its detector scores the
	// rate; a gauge's point averages and its detector scores raw values.
	kind metrics.Kind
	fn   func() float64

	hi *ring
	lo *ring
	// exIdx indexes the recorder's per-tick exemplar harvest (the
	// serving path that produced the slowest traced query); -1 when
	// the series carries no exemplars.
	exIdx int

	acc  float64 // downsample accumulator (gauge: mean)
	accN int

	det *detector
}

// exSlot collects the slowest traced query per path since the last
// tick. finishQuery CASes the duration max and publishes the trace id.
type exSlot struct {
	durNs atomic.Int64
	id    atomic.Pointer[string]
}

// exemplar is one harvested (duration, trace id) pair.
type exemplar struct {
	durNs int64
	id    *string
}

// Recorder is the flight recorder. Build with New, register series
// (Instrument/AddGauge) at wiring time, then Start —
// or drive Tick from a synthetic clock in tests and experiments.
type Recorder struct {
	cfg Config

	regMu  sync.Mutex
	list   atomic.Pointer[[]*series]
	byName map[string]*series

	ticks   atomic.Int64
	dropped atomic.Int64

	// Per-path slowest-traced-query slots, harvested every tick into
	// exHarvest; index NumPaths holds the cross-path argmax for the
	// lat_p99_all series.
	exSlots   [metrics.NumPaths]exSlot
	exHarvest [metrics.NumPaths + 1]exemplar

	pretick []func() // histogram refreshes, run at tick start

	anomalyMu   sync.Mutex
	anomalyLog  []AnomalyEvent
	anomalies   atomic.Int64
	lastAnomaly atomic.Pointer[AnomalyEvent]

	// Trigger engine state (bundle.go).
	lastCapture atomic.Int64 // tick-clock unix ns of the last capture
	triggers    atomic.Int64
	suppressed  atomic.Int64
	lastTrigger atomic.Pointer[TriggerInfo]
	capWG       sync.WaitGroup

	stop chan struct{}
	done chan struct{}
}

// New builds a recorder. Register every series before Start; the
// sample path reads the series list through an atomic pointer and
// never locks.
func New(cfg Config) *Recorder {
	r := &Recorder{cfg: cfg.withDefaults(), byName: make(map[string]*series)}
	empty := make([]*series, 0)
	r.list.Store(&empty)
	return r
}

// Config returns the resolved configuration.
func (r *Recorder) Config() Config { return r.cfg }

// add registers one series; watch arms the anomaly detector on it when
// Config.Anomaly is on. A name already registered keeps its first
// series.
func (r *Recorder) add(name string, kind metrics.Kind, exIdx int, watch bool, fn func() float64) {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if _, dup := r.byName[name]; dup {
		return
	}
	s := &series{
		name:  name,
		kind:  kind,
		fn:    fn,
		hi:    newRing(r.cfg.HiSlots, exIdx >= 0),
		lo:    newRing(r.cfg.LoSlots, false),
		exIdx: exIdx,
	}
	if watch && r.cfg.Anomaly {
		s.det = newDetector(kind, r.cfg.AnomalyWindow, r.cfg.AnomalyZ)
	}
	r.byName[name] = s
	old := *r.list.Load()
	next := make([]*series, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	r.list.Store(&next)
}

// AddGauge registers an instantaneous series sampled every tick. fn
// must be cheap, concurrency-safe and allocation-free.
func (r *Recorder) AddGauge(name string, fn func() float64) {
	r.add(name, metrics.KindGauge, -1, false, fn)
}

// histSource snapshots one path histogram per tick into preallocated
// scratch; quantiles are plain fields because only the sampler
// goroutine touches them (the rings are the cross-goroutine surface).
type histSource struct {
	h       *metrics.Histogram
	scratch metrics.HistSnapshot
	p50     float64
	p99     float64
}

func (hs *histSource) refresh() {
	hs.h.SnapshotInto(&hs.scratch)
	hs.p50 = float64(hs.scratch.Quantile(0.50))
	hs.p99 = float64(hs.scratch.Quantile(0.99))
}

// Instrument registers the full serving surface of rec: every series of
// its registry under the registry name (watched where the registry says
// so), per-path p50/p99 latency series (p99 with trace-id exemplars),
// the all-paths aggregate (watched), the cache-hit rate, and the worst-
// class SLO burn rates and state. Register every registry series first.
// If Config.CriticalFn is unset it is wired to rec's SLO engine here.
func (r *Recorder) Instrument(rec *metrics.ServeRecorder) {
	if rec == nil {
		return
	}
	for _, s := range rec.Series() {
		r.add(s.Name, s.Kind, -1, s.Watch, s.Read)
	}
	r.AddGauge("cache_hit_rate", rec.CacheHitRate)

	sources := make([]*histSource, metrics.NumPaths)
	for p := metrics.Path(0); p < metrics.NumPaths; p++ {
		hs := &histSource{h: rec.PathHist(p)}
		sources[p] = hs
		r.pretick = append(r.pretick, hs.refresh)
		r.AddGauge("lat_p50_"+p.String(), func() float64 { return hs.p50 })
		r.add("lat_p99_"+p.String(), metrics.KindGauge, int(p), false, func() float64 { return hs.p99 })
	}
	all := &histSource{}
	r.pretick = append(r.pretick, func() {
		all.scratch.Reset()
		for _, hs := range sources {
			all.scratch.Merge(hs.scratch)
		}
		all.p50 = float64(all.scratch.Quantile(0.50))
		all.p99 = float64(all.scratch.Quantile(0.99))
	})
	r.AddGauge("lat_p50_all", func() float64 { return all.p50 })
	r.add("lat_p99_all", metrics.KindGauge, int(metrics.NumPaths), true, func() float64 { return all.p99 })

	r.AddGauge("slo_fast_burn", func() float64 { f, _ := rec.SLO().WorstBurn(); return f })
	r.AddGauge("slo_slow_burn", func() float64 { _, s := rec.SLO().WorstBurn(); return s })
	r.AddGauge("slo_state", func() float64 { return float64(rec.SLO().WorstState()) })
	if r.cfg.CriticalFn == nil {
		r.cfg.CriticalFn = func() bool { return rec.SLO().WorstState() == 2 }
	}
}

// NoteTraced records a traced query completion: the slowest traced
// query per path per tick becomes the exemplar on that tick's
// lat_p99_* history point. Nil-safe so the serving pool calls it
// unconditionally; the caller already pays tracing costs, so the
// occasional id-pointer publication here is off the untraced path.
func (r *Recorder) NoteTraced(p metrics.Path, d time.Duration, traceID string) {
	if r == nil || p >= metrics.NumPaths || traceID == "" {
		return
	}
	slot := &r.exSlots[p]
	ns := int64(d)
	for {
		cur := slot.durNs.Load()
		if ns <= cur {
			return
		}
		if slot.durNs.CompareAndSwap(cur, ns) {
			id := traceID
			slot.id.Store(&id)
			return
		}
	}
}

// Tick takes one sample of every series at the given instant, runs the
// detector over watched series, and evaluates the trigger engine.
// Exported so tests and experiments can drive the recorder with a
// synthetic clock; Start calls it on the wall clock. Single-threaded:
// only one goroutine may call Tick.
func (r *Recorder) Tick(now time.Time) {
	if r == nil {
		return
	}
	// Harvest per-path exemplars and pick the cross-path slowest for
	// the aggregate series.
	worst := &r.exHarvest[metrics.NumPaths]
	worst.durNs, worst.id = 0, nil
	for p := range r.exSlots {
		slot := &r.exSlots[p]
		h := &r.exHarvest[p]
		h.durNs = slot.durNs.Swap(0)
		h.id = slot.id.Swap(nil)
		if h.durNs > worst.durNs && h.id != nil {
			*worst = *h
		}
	}
	for _, fn := range r.pretick {
		fn()
	}
	tick := r.ticks.Add(1)
	fold := tick%int64(r.cfg.Downsample) == 0
	ns := now.UnixNano()
	for _, s := range *r.list.Load() {
		v := s.fn()
		var id *string
		if s.exIdx >= 0 {
			id = r.exHarvest[s.exIdx].id
		}
		s.hi.push(ns, v, id)
		s.acc += v
		s.accN++
		if fold {
			dv := v // counters keep the last cumulative value
			if s.kind == metrics.KindGauge && s.accN > 0 {
				dv = s.acc / float64(s.accN)
			}
			s.lo.push(ns, dv, nil)
			s.acc, s.accN = 0, 0
		}
		if s.det != nil {
			if fired, x, med, z := s.det.feed(v, tick); fired {
				r.noteAnomaly(s.name, x, med, z, now)
			}
		}
	}
	if r.cfg.CriticalFn != nil && r.cfg.CriticalFn() {
		r.trigger("slo_critical", "worst tenant class burning at critical rate", now)
	}
}

// noteAnomaly records a detector firing and raises an anomaly trigger.
func (r *Recorder) noteAnomaly(name string, v, med, z float64, now time.Time) {
	ev := AnomalyEvent{Metric: name, Value: v, Median: med, Z: z, AtUnixMs: now.UnixMilli()}
	r.anomalies.Add(1)
	r.lastAnomaly.Store(&ev)
	r.anomalyMu.Lock()
	r.anomalyLog = append(r.anomalyLog, ev)
	if len(r.anomalyLog) > 32 {
		r.anomalyLog = append(r.anomalyLog[:0], r.anomalyLog[len(r.anomalyLog)-32:]...)
	}
	r.anomalyMu.Unlock()
	r.cfg.Logger.Warn("flight anomaly", "metric", name, "value", v, "median", med, "z", z)
	r.trigger("anomaly", fmt.Sprintf("%s=%g (median %g, z=%.1f)", name, v, med, z), now)
}

// AnomalyEvent is one detector firing.
type AnomalyEvent struct {
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Median   float64 `json:"median"`
	Z        float64 `json:"z"`
	AtUnixMs int64   `json:"at_unix_ms"`
}

// Anomalies returns the recent detector firings, oldest first.
func (r *Recorder) Anomalies() []AnomalyEvent {
	if r == nil {
		return nil
	}
	r.anomalyMu.Lock()
	defer r.anomalyMu.Unlock()
	return append([]AnomalyEvent(nil), r.anomalyLog...)
}

// Start launches the background sampler at Config.Period, taking an
// immediate first sample so history is non-empty right after boot.
func (r *Recorder) Start() {
	if r == nil || r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		last := time.Now()
		r.Tick(last)
		tick := time.NewTicker(r.cfg.Period)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				// A stalled process (GC, CPU starvation) makes the
				// ticker skip deliveries; account the gap as dropped
				// samples so the status plane shows the blind spot.
				if gap := now.Sub(last); gap > r.cfg.Period+r.cfg.Period/2 {
					r.dropped.Add(int64(gap/r.cfg.Period) - 1)
				}
				last = now
				r.Tick(now)
			case <-r.stop:
				return
			}
		}
	}()
}

// Stop terminates the sampler and waits for in-flight bundle captures
// (idempotent, nil-safe).
func (r *Recorder) Stop() {
	if r == nil || r.stop == nil {
		r.Flush()
		return
	}
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
	r.Flush()
}

// Flush waits for any in-flight bundle capture to finish.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	r.capWG.Wait()
}

// Point is one history sample. TraceID, when present, names the
// slowest traced query of that sampling window — the exemplar an
// operator follows to /v1/debug/trace/<id>.
type Point struct {
	TUnixMs int64   `json:"t_unix_ms"`
	V       float64 `json:"v"`
	TraceID string  `json:"trace_id,omitempty"`
}

// History is one series' replay over a window.
type History struct {
	Metric     string  `json:"metric"`
	Kind       string  `json:"kind"`
	Resolution string  `json:"resolution"`
	Points     []Point `json:"points"`
}

// Metrics lists the registered series names (registration order).
func (r *Recorder) Metrics() []string {
	if r == nil {
		return nil
	}
	list := *r.list.Load()
	out := make([]string, len(list))
	for i, s := range list {
		out[i] = s.name
	}
	return out
}

// History replays one series over the trailing window, choosing the
// hi-res ring when it can cover the window and the downsampled ring
// otherwise. window <= 0 means "everything the chosen ring holds".
// Returns false for unknown metrics.
func (r *Recorder) History(metric string, window time.Duration) (History, bool) {
	if r == nil {
		return History{}, false
	}
	r.regMu.Lock()
	s, ok := r.byName[metric]
	r.regMu.Unlock()
	if !ok {
		return History{}, false
	}
	h := History{Metric: metric, Kind: s.kind.String()}
	rg := s.hi
	h.Resolution = r.cfg.Period.String()
	if window > time.Duration(r.cfg.HiSlots)*r.cfg.Period {
		rg = s.lo
		h.Resolution = (r.cfg.Period * time.Duration(r.cfg.Downsample)).String()
	}
	head := rg.head.Load()
	n := int(head)
	if n > len(rg.times) {
		n = len(rg.times)
	}
	if n == 0 {
		return h, true
	}
	lastT := rg.times[int((head-1)%uint64(len(rg.times)))].Load()
	cutoff := int64(math.MinInt64)
	if window > 0 {
		cutoff = lastT - int64(window)
	}
	h.Points = make([]Point, 0, n)
	for i := int(head) - n; i < int(head); i++ {
		slot := i % len(rg.times)
		t := rg.times[slot].Load()
		if t < cutoff {
			continue
		}
		p := Point{TUnixMs: t / int64(time.Millisecond),
			V: math.Float64frombits(rg.vals[slot].Load())}
		if rg.ids != nil {
			if id := rg.ids[slot].Load(); id != nil {
				p.TraceID = *id
			}
		}
		h.Points = append(h.Points, p)
	}
	return h, true
}

// Status summarises the recorder for the /v1/status flight section.
type Status struct {
	Series            int    `json:"series"`
	Ticks             int64  `json:"ticks"`
	DroppedSamples    int64  `json:"dropped_samples"`
	Anomalies         int64  `json:"anomalies"`
	Triggers          int64  `json:"triggers"`
	SuppressedTrigger int64  `json:"suppressed_triggers"`
	SpoolBundles      int    `json:"spool_bundles"`
	SpoolBytes        int64  `json:"spool_bytes"`
	LastTrigger       string `json:"last_trigger"`
	LastTriggerUnixMs int64  `json:"last_trigger_unix_ms"`
}

// Status reports the recorder's health counters and spool usage.
func (r *Recorder) Status() Status {
	if r == nil {
		return Status{}
	}
	st := Status{
		Series:            len(*r.list.Load()),
		Ticks:             r.ticks.Load(),
		DroppedSamples:    r.dropped.Load(),
		Anomalies:         r.anomalies.Load(),
		Triggers:          r.triggers.Load(),
		SuppressedTrigger: r.suppressed.Load(),
	}
	for _, b := range r.Bundles() {
		st.SpoolBundles++
		st.SpoolBytes += b.Bytes
	}
	if ti := r.lastTrigger.Load(); ti != nil {
		st.LastTrigger = ti.Kind + ": " + ti.Detail
		st.LastTriggerUnixMs = ti.AtUnixMs
	}
	return st
}
