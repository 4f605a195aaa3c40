package serve

import (
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// PlaneConfig configures a front-end's observability plane. A zero
// value gives a tracer that samples nothing, a runtime sampler that
// reads on demand, and no SLO engine, flight recorder or pprof.
type PlaneConfig struct {
	// Node names the front-end in traces, bundles and the spool path.
	Node string
	// TraceSample is the background trace-sampling fraction and
	// SlowQuery the slow-query log threshold (0 disables).
	TraceSample float64
	SlowQuery   time.Duration
	// AuditSample is the share of model answers shadow-audited against
	// an exact evaluation (0 disables).
	AuditSample float64
	// Logger receives slow-query and flight lines (nil is silent).
	Logger *obs.Logger
	// SLO, when set, arms the per-tenant-class burn-rate engine.
	SLO *metrics.SLOConfig
	// RuntimeSample is the runtime sampler's background period; 0 leaves
	// it unstarted, and Runtime then reads on demand.
	RuntimeSample time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Flight arms the flight recorder. FlightSample is its period (0 =
	// the recorder's default; < 0 leaves it unstarted so tests drive
	// Tick by hand). Bundles spool under <FlightSpool>/<Node>, and an
	// empty FlightSpool means the OS temp dir's sea-flight. Anomaly arms
	// the detector on watched series.
	Flight       bool
	FlightSample time.Duration
	FlightSpool  string
	Anomaly      bool
	// StatusFn supplies the status document bundles include (nil = the
	// pool's agent stats).
	StatusFn func() any
}

// Plane is one serving front-end's observability, wired in one place
// for the library's Server and cluster members alike: the tracer, the
// shadow audit, the logger, the SLO engine, the runtime sampler and the
// flight recorder over the pool's series registry, plus the routes
// that expose them. Build it after every series is registered.
type Plane struct {
	Tracer *trace.Tracer
	SLO    *metrics.SLOEngine // nil unless PlaneConfig.SLO
	Flight *flight.Recorder   // nil unless PlaneConfig.Flight

	sampler *obs.RuntimeSampler
	pool    *Pool
	cfg     PlaneConfig
}

// NewPlane wires cfg's instruments onto pool and starts the background
// ones. The pool's Server mounts the plane's routes.
func NewPlane(pool *Pool, cfg PlaneConfig) *Plane {
	p := &Plane{pool: pool, cfg: cfg, Tracer: trace.NewTracer(cfg.Node, trace.DefaultRing)}
	p.Tracer.SetSampleRate(cfg.TraceSample)
	if cfg.SlowQuery > 0 {
		p.Tracer.SetSlowThreshold(cfg.SlowQuery)
	}
	pool.EnableTracing(p.Tracer)
	if cfg.AuditSample > 0 {
		pool.EnableShadowAudit(max(1, int64(math.Round(1/cfg.AuditSample))), 0)
	}
	pool.SetLogger(cfg.Logger)
	rec := pool.Recorder()
	if cfg.SLO != nil {
		p.SLO = metrics.NewSLOEngine(rec, *cfg.SLO)
		p.SLO.Start()
		rec.SetSLO(p.SLO)
	}
	p.sampler = obs.NewRuntimeSampler(cfg.RuntimeSample)
	p.sampler.Register(rec)
	if cfg.RuntimeSample > 0 {
		p.sampler.Start()
	}
	if cfg.Flight {
		spool := cfg.FlightSpool
		if spool == "" {
			spool = filepath.Join(os.TempDir(), "sea-flight")
		}
		status := cfg.StatusFn
		if status == nil {
			status = func() any { return pool.agent.Stats() }
		}
		p.Flight = flight.New(flight.Config{
			Node:     cfg.Node,
			Period:   cfg.FlightSample,
			SpoolDir: filepath.Join(spool, cfg.Node),
			Anomaly:  cfg.Anomaly,
			Logger:   cfg.Logger,
			TracerFn: func() *trace.Tracer { return p.Tracer },
			StatusFn: status,
		})
		p.Flight.Instrument(rec)
		pool.EnableFlight(p.Flight)
		if cfg.FlightSample >= 0 {
			p.Flight.Start()
		}
	}
	pool.plane = p
	return p
}

// Runtime returns the latest runtime reading, taking one first when no
// background loop keeps it fresh.
func (p *Plane) Runtime() obs.RuntimeSnap {
	if p.cfg.RuntimeSample <= 0 {
		p.sampler.Sample()
	}
	return p.sampler.Snapshot()
}

// Close stops what NewPlane started: the flight sampler (waiting out
// bundle captures), the SLO engine and the runtime sampler. Idempotent.
func (p *Plane) Close() {
	p.Flight.Stop()
	p.SLO.Stop()
	p.sampler.Stop()
}

// Mount serves the plane on mux:
//
//	GET /v1/metrics                   Prometheus exposition of the pool's recorder
//	GET /v1/debug/traces              recent trace ids
//	GET /v1/debug/trace/{id}          one span tree from the ring
//	GET /v1/debug/slow                the slow-query log
//	GET /v1/history?metric=&window=   flight history (404 when the recorder is off)
//	GET /v1/debug/bundles             the diagnostic-bundle spool
//	GET /v1/debug/bundle/{id}/{file}  one bundle file
//	GET /debug/pprof/...              profiling, only with PlaneConfig.Pprof
//	GET /healthz                      liveness
func (p *Plane) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", metrics.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = p.pool.rec.WriteRecorder(w)
	})
	mux.HandleFunc("GET /v1/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"traces": p.Tracer.RecentIDs()})
	})
	mux.HandleFunc("GET /v1/debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		ws, ok := p.Tracer.Get(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "trace not in ring"})
			return
		}
		writeJSON(w, http.StatusOK, ws)
	})
	mux.HandleFunc("GET /v1/debug/slow", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"slow": p.Tracer.SlowLog()})
	})
	p.mountFlight(mux)
	if p.cfg.Pprof {
		// Off by default: heap and CPU profiles leak operational detail,
		// so profiling on a data port is an explicit operator opt-in.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}

// mountFlight serves metric history replay and the bundle spool; every
// route answers 404 when the recorder is off.
func (p *Plane) mountFlight(mux *http.ServeMux) {
	fr := p.Flight
	enabled := func(w http.ResponseWriter) bool {
		if fr == nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "flight recorder not enabled"})
		}
		return fr != nil
	}
	mux.HandleFunc("GET /v1/history", func(w http.ResponseWriter, r *http.Request) {
		if !enabled(w) {
			return
		}
		metric := r.URL.Query().Get("metric")
		if metric == "" {
			writeJSON(w, http.StatusOK, map[string]any{"metrics": fr.Metrics()})
			return
		}
		window := time.Duration(0)
		if ws := r.URL.Query().Get("window"); ws != "" {
			d, err := time.ParseDuration(ws)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad window: " + err.Error()})
				return
			}
			window = d
		}
		h, ok := fr.History(metric, window)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown metric " + metric})
			return
		}
		writeJSON(w, http.StatusOK, h)
	})
	mux.HandleFunc("GET /v1/debug/bundles", func(w http.ResponseWriter, _ *http.Request) {
		if !enabled(w) {
			return
		}
		bundles := fr.Bundles()
		if bundles == nil {
			bundles = []flight.BundleInfo{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"bundles": bundles})
	})
	mux.HandleFunc("GET /v1/debug/bundle/{id}/{file}", func(w http.ResponseWriter, r *http.Request) {
		if !enabled(w) {
			return
		}
		path, err := fr.BundleFile(r.PathValue("id"), r.PathValue("file"))
		if err != nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeFile(w, r, path)
	})
}
