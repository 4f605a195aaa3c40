package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// RuntimeSnap is one point-in-time view of process runtime health.
type RuntimeSnap struct {
	Goroutines int    `json:"goroutines"`
	HeapAlloc  uint64 `json:"heap_alloc_bytes"`
	HeapSys    uint64 `json:"heap_sys_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`
	// GCPauseP50/P99/Max summarise the sampled stop-the-world pause
	// distribution, in nanoseconds.
	GCPauseP50 int64 `json:"gc_pause_p50_ns"`
	GCPauseP99 int64 `json:"gc_pause_p99_ns"`
	GCPauseMax int64 `json:"gc_pause_max_ns"`
	// KernelTier names the scan kernels the process's exact path runs on
	// ("avx2" or "generic"), so the slow member of a mixed fleet shows in
	// a status scrape. The sampler does not know it; the owner of the
	// snapshot fills it in.
	KernelTier string `json:"kernel_tier"`
}

// RuntimeSampler periodically reads runtime memory/GC statistics into
// atomics and folds new GC pauses into a histogram, so scrapes and
// status snapshots read cached values instead of stopping the world.
// Nil-receiver-safe throughout.
type RuntimeSampler struct {
	interval time.Duration

	goroutines atomic.Int64
	heapAlloc  atomic.Uint64
	heapSys    atomic.Uint64
	gcCycles   atomic.Uint32

	pauses metrics.Histogram
	// Cached pause quantiles, refreshed by Sample: gauge reads (the
	// flight recorder samples them every second) must not pay a
	// histogram snapshot per read.
	pauseP50 atomic.Int64
	pauseP99 atomic.Int64
	pauseMax atomic.Int64

	mu      sync.Mutex
	lastGC  uint32 // NumGC already folded into pauses
	scratch metrics.HistSnapshot

	stop chan struct{}
	done chan struct{}
}

// NewRuntimeSampler builds a sampler. interval <= 0 defaults to 10s.
// Call Start to begin background sampling; Sample works standalone.
func NewRuntimeSampler(interval time.Duration) *RuntimeSampler {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	s := &RuntimeSampler{interval: interval}
	s.Sample()
	return s
}

// Sample takes one reading now.
func (s *RuntimeSampler) Sample() {
	if s == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.goroutines.Store(int64(runtime.NumGoroutine()))
	s.heapAlloc.Store(ms.HeapAlloc)
	s.heapSys.Store(ms.HeapSys)
	s.gcCycles.Store(ms.NumGC)

	// Fold pauses from GC cycles we have not seen yet: PauseNs is a
	// ring of the last 256 pause durations indexed by cycle number.
	s.mu.Lock()
	from := s.lastGC
	if ms.NumGC > from+uint32(len(ms.PauseNs)) {
		from = ms.NumGC - uint32(len(ms.PauseNs))
	}
	for c := from; c < ms.NumGC; c++ {
		s.pauses.Record(int64(ms.PauseNs[c%uint32(len(ms.PauseNs))]))
	}
	s.lastGC = ms.NumGC
	s.pauses.SnapshotInto(&s.scratch)
	s.pauseP50.Store(s.scratch.Quantile(0.50))
	s.pauseP99.Store(s.scratch.Quantile(0.99))
	s.pauseMax.Store(s.scratch.Max)
	s.mu.Unlock()
}

// Start launches the background sampling loop.
func (s *RuntimeSampler) Start() {
	if s == nil || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.Sample()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop terminates the background loop (idempotent, nil-safe).
func (s *RuntimeSampler) Stop() {
	if s == nil || s.stop == nil {
		return
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// Snapshot returns the latest cached reading.
func (s *RuntimeSampler) Snapshot() RuntimeSnap {
	if s == nil {
		return RuntimeSnap{}
	}
	return RuntimeSnap{
		Goroutines: int(s.goroutines.Load()),
		HeapAlloc:  s.heapAlloc.Load(),
		HeapSys:    s.heapSys.Load(),
		GCCycles:   s.gcCycles.Load(),
		GCPauseP50: s.pauseP50.Load(),
		GCPauseP99: s.pauseP99.Load(),
		GCPauseMax: s.pauseMax.Load(),
	}
}

// Register adds the sampler's readings to a serving recorder's series
// registry (sea_go_* on /v1/metrics, go_* in the flight history).
func (s *RuntimeSampler) Register(rec *metrics.ServeRecorder) {
	if s == nil || rec == nil {
		return
	}
	for _, g := range []metrics.Series{
		{Name: "go_goroutines", Help: "Live goroutines (sampled).", Watch: true,
			Read: func() float64 { return float64(s.goroutines.Load()) }},
		{Name: "go_heap_alloc_bytes", Help: "Heap bytes in use (sampled).", Watch: true,
			Read: func() float64 { return float64(s.heapAlloc.Load()) }},
		{Name: "go_heap_sys_bytes", Help: "Heap bytes obtained from the OS (sampled).",
			Read: func() float64 { return float64(s.heapSys.Load()) }},
		{Name: "go_gc_cycles", Help: "Completed GC cycles (sampled).", Kind: metrics.KindCounter,
			Read: func() float64 { return float64(s.gcCycles.Load()) }},
		{Name: "go_gc_pause_p99_seconds", Help: "p99 GC stop-the-world pause (sampled).",
			Read: func() float64 { return float64(s.pauseP99.Load()) / 1e9 }},
	} {
		rec.Register(g)
	}
}
