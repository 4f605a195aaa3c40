// Command seaserve runs the SEA serving layer: it loads a synthetic
// clustered table, trains one or more SEA agents on a mixed analyst
// query stream, and serves the agent API over HTTP/JSON.
//
// Single-node mode (the default) serves internal/serve:
//
//	seaserve [-addr :8080] [-rows 20000] [-nodes 8] [-training 300]
//	         [-agents 1] [-workers 8] [-queue 256] [-tenant-inflight 64]
//
// Cluster mode joins a distributed serving cluster (internal/dist): a
// consistent-hash ring shards the query space across the members with
// R-way replication, exact answers scatter-gather across the data
// partitions, and replicas warm up by model-snapshot shipping. Every
// member runs the same command with its own -node-id:
//
//	seaserve -addr :8080 -node-id n0 -replicas 2 \
//	         -peers n0=http://host0:8080,n1=http://host1:8080,n2=http://host2:8080
//	seaserve -addr :8080 -node-id n1 -peers ... &   # on host1
//	seaserve -addr :8080 -node-id n2 -peers ... \
//	         -warm-from http://host0:8080           # ship n0's models in
//
// Every member loads the same deterministic synthetic dataset (same
// -rows/-seed) and keeps only the partitions the ring assigns it.
//
// In both modes the boot ends, just before serving, by returning its
// scratch memory to the OS: the generated table (unless the single-node
// table keeps it) and the load's scratch are garbage by then. The
// "loaded" log line splits the boot into gen_ms (generating the table),
// load_ms (loading it) and free_ms (that release).
//
// Elastic membership: a new member can also join a RUNNING cluster
// without restarting anybody — instead of -peers it names any live
// member with -join and its own reachable URL with -advertise:
//
//	seaserve -addr :8080 -node-id n3 \
//	         -join http://host0:8080 -advertise http://host3:8080
//
// The joiner boots from the seed's membership view (partition count,
// replicas and vnodes all come from the cluster, so they cannot
// disagree), starts serving, and asks the seed to orchestrate the
// join: moving partitions are staged onto the newcomer, caught up
// through the WAL tail, and the cluster cuts over atomically to a new
// membership epoch that every wire body carries. A member retires
// gracefully via POST /v1/leave on any live member; its partitions
// migrate to the survivors before it drains. -anti-entropy arms the
// background replica-repair loop at the given cadence: replica holders
// compare Merkle-style content digests against each partition's
// primary and heal silent divergence by snapshot ship (repairs export
// as sea_antientropy_repairs_total and surface in /v1/debug/cluster).
//
// Cluster mode is also a live system: -data-dir enables the WAL-durable
// write path (POST /v1/ingest appends replicated, quorum-acked row
// batches; a restarted member replays its WAL and catches up the log
// tail from peers), -write-quorum sets the ack threshold, and
// -drift-budget/-requant-check tune the drift-aware online model
// maintenance.
//
// Observability (both modes): -trace-sample traces a fraction of
// queries into span trees (POST /v1/query?trace=1 forces one inline),
// -trace-ring bounds the debug ring behind GET /v1/debug/trace/<id>,
// -slow-query logs outliers to GET /v1/debug/slow, and -audit-sample
// shadow-audits model answers against exact ground truth (error
// histograms land in /v1/metrics).
//
// The introspection plane (both modes): -log-level selects the leveled
// JSON-line logging on stderr (debug|info|warn|error|off) and -log-rate
// caps its lines/sec (token bucket; suppressed lines are counted, the
// hot path pays one atomic load). -slo-latency arms the per-tenant-class
// SLO engine: multi-window burn rates against that p99 objective export
// as sea_slo_burn_rate / sea_slo_state in /v1/metrics. -runtime-sample
// sets the background runtime-telemetry period (heap, GC pauses,
// goroutines; sea_go_* gauges). -pprof mounts Go's net/http/pprof
// handlers under /debug/pprof/ — off by default, enable only on
// trusted networks. Cluster mode adds GET /v1/status (this member's
// introspection snapshot: ring, per-partition replication lag, cache,
// scheduler, SLO, runtime) and GET /v1/debug/cluster (fan-out to every
// peer with cross-checked health findings; -lag-threshold tunes when a
// lagging replica turns critical). cmd/seatop renders that aggregator
// as a live dashboard.
//
// The flight recorder (both modes): -flight samples every series of
// the metrics registry plus key histogram quantiles into in-memory ring
// buffers at two resolutions (~10 min at 1 s, ~6 h at 30 s) behind
// GET /v1/history?metric=&window=, and captures diagnostic bundles
// (goroutine dump, short CPU + heap profiles, trace rings, status
// snapshot) into a bounded spool (<-flight-spool>/<node id>, node
// "local" in single-node mode) when the SLO engine turns critical or
// -anomaly's robust z-score detector fires; browse them via
// GET /v1/debug/bundles and /v1/debug/bundle/<id>/<file>. A registry
// series named x is sea_x on /v1/metrics (sea_x_total for a counter)
// and x on /v1/history: sea_sched_queue_depth is sched_queue_depth,
// sea_go_gc_cycles_total is go_gc_cycles.
//
// Both modes wire these instruments through the same function
// (serve.NewPlane), so the flags mean the same thing in either.
//
// Endpoints (both modes):
//
//	POST /v1/query    {"agg":"count","los":[20,20],"his":[30,30]}
//	GET  /v1/metrics  Prometheus text (QPS, per-path latency histograms,
//	                  ingest/drift gauges, audit error histograms,
//	                  SLO burn rates, runtime telemetry)
//	GET  /healthz     liveness (also used by failover probing)
//
// Single-node adds POST /v1/explain and GET /v1/stats; cluster mode adds
// POST /v1/ingest, /v1/replicate, /v1/walfetch, /v1/partials, /v1/join,
// /v1/leave, /v1/digest, GET /v1/snapshot, /v1/cluster, /v1/membership,
// /v1/status and /v1/debug/cluster.
//
// Flag combinations are validated at startup (replication factor vs
// cluster size, quorum vs replicas, cluster-only flags in single-node
// mode) and fail fast with a clear error instead of degrading silently.
//
// The process traps SIGINT/SIGTERM and shuts down gracefully: the
// listener stops accepting, in-flight queries drain (up to -drain), and
// the scheduler's workers exit cleanly.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/explain"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/sea"
)

// options is the parsed and validated flag set.
type options struct {
	addr           string
	rows           int
	nodes          int
	training       int
	agents         int
	workers        int
	queue          int
	tenantInflight int
	seed           int64
	answerCache    int
	drain          time.Duration
	nodeID         string
	peerList       string
	peers          map[string]string
	replicas       int
	warmFrom       string
	join           string
	advertise      string
	antiEntropy    time.Duration
	dataDir        string
	writeQuorum    int
	driftBudget    int
	requantCheck   time.Duration
	traceSample    float64
	traceRing      int
	slowQuery      time.Duration
	auditSample    float64
	logLevel       string
	logRate        float64
	sloLatency     time.Duration
	runtimeSample  time.Duration
	lagThreshold   uint64
	pprof          bool
	flight         bool
	flightSpool    string
	anomaly        bool
	// set records which flags were given explicitly (flag.Visit):
	// cluster-only flags with non-zero defaults (-replicas,
	// -requant-check) can only be rejected in single-node mode when we
	// know the user actually set them.
	set map[string]bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.rows, "rows", 20_000, "synthetic rows to load")
	flag.IntVar(&o.nodes, "nodes", 8, "simulated cluster size (single-node mode)")
	flag.IntVar(&o.training, "training", 300, "training queries per agent")
	flag.IntVar(&o.agents, "agents", 1, "agent pool size (affinity-sharded)")
	flag.IntVar(&o.workers, "workers", 8, "serving worker goroutines")
	flag.IntVar(&o.queue, "queue", 256, "pending-query queue depth")
	flag.IntVar(&o.tenantInflight, "tenant-inflight", 64, "max in-flight queries per tenant")
	flag.Int64Var(&o.seed, "seed", 1, "data/workload RNG seed (must match across members)")
	flag.IntVar(&o.answerCache, "answer-cache", dist.DefaultAnswerCache,
		"versioned answer-cache capacity in entries (0 disables)")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown drain deadline")
	flag.StringVar(&o.nodeID, "node-id", "", "cluster member id (enables cluster mode)")
	flag.StringVar(&o.peerList, "peers", "", "cluster members as id=url,id=url,... (cluster mode)")
	flag.IntVar(&o.replicas, "replicas", dist.DefaultReplicas, "replication factor (cluster mode)")
	flag.StringVar(&o.warmFrom, "warm-from", "", "peer URL to import agent snapshots from at start (cluster mode)")
	flag.StringVar(&o.join, "join", "", "live member URL to join a running cluster through (cluster mode; replaces -peers)")
	flag.StringVar(&o.advertise, "advertise", "", "this member's externally reachable URL (required with -join)")
	flag.DurationVar(&o.antiEntropy, "anti-entropy", 0, "background replica-repair cadence (cluster mode; 0 disables)")
	flag.StringVar(&o.dataDir, "data-dir", "", "WAL directory for the live write path (cluster mode; empty = no durability)")
	flag.IntVar(&o.writeQuorum, "write-quorum", 0, "owners that must apply an ingest batch before ack (cluster mode; 0 = majority of -replicas)")
	flag.IntVar(&o.driftBudget, "drift-budget", 200, "ingested rows a quantum absorbs before its models re-earn trust (0 = legacy wholesale invalidation)")
	flag.DurationVar(&o.requantCheck, "requant-check", 2*time.Second, "background drift-maintainer poll period (cluster mode; 0 disables re-quantisation)")
	flag.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of queries to trace (0 disables sampling; ?trace=1 always works)")
	flag.IntVar(&o.traceRing, "trace-ring", 0, "finished traces kept for /v1/debug/trace (0 = default ring)")
	flag.DurationVar(&o.slowQuery, "slow-query", 0, "log queries slower than this to /v1/debug/slow (0 disables)")
	flag.Float64Var(&o.auditSample, "audit-sample", 0, "fraction of model-served answers to shadow-audit against exact truth (0 disables)")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured JSON log level: debug|info|warn|error|off")
	flag.Float64Var(&o.logRate, "log-rate", 0, "max structured log lines/sec (token bucket; 0 = unlimited)")
	flag.DurationVar(&o.sloLatency, "slo-latency", 0, "per-tenant-class p99 latency objective; arms SLO burn-rate tracking (0 disables)")
	flag.DurationVar(&o.runtimeSample, "runtime-sample", 10*time.Second, "runtime telemetry sampling period (0 = on-demand only)")
	flag.Uint64Var(&o.lagThreshold, "lag-threshold", 0, "replication lag in batches before a /v1/debug/cluster finding turns critical (cluster mode; 0 = default 1)")
	flag.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; trusted networks only)")
	flag.BoolVar(&o.flight, "flight", false, "arm the flight recorder: in-memory metric history behind GET /v1/history plus triggered diagnostic bundles")
	flag.StringVar(&o.flightSpool, "flight-spool", "", "diagnostic-bundle spool directory (default: under the OS temp dir; requires -flight)")
	flag.BoolVar(&o.anomaly, "anomaly", false, "arm robust z-score anomaly detection over watched flight series (requires -flight)")
	flag.Parse()
	o.set = make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { o.set[f.Name] = true })

	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "seaserve:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	if o.nodeID != "" {
		err = runCluster(ctx, o)
	} else {
		err = runSingle(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seaserve:", err)
		os.Exit(1)
	}
}

// validate fails fast on flag combinations that would otherwise degrade
// silently (a replication factor the cluster cannot honour, warm-up
// with nobody to warm from, durability flags outside cluster mode).
func (o *options) validate() error {
	if o.rows < 1 {
		return fmt.Errorf("-rows must be >= 1, got %d", o.rows)
	}
	if o.nodes < 1 {
		return fmt.Errorf("-nodes must be >= 1, got %d", o.nodes)
	}
	if o.training < 0 {
		return fmt.Errorf("-training must be >= 0, got %d", o.training)
	}
	if o.agents < 1 {
		return fmt.Errorf("-agents must be >= 1, got %d", o.agents)
	}
	if o.workers < 1 || o.queue < 1 {
		return fmt.Errorf("-workers and -queue must be >= 1, got %d and %d", o.workers, o.queue)
	}
	if o.driftBudget < 0 {
		return fmt.Errorf("-drift-budget must be >= 0, got %d", o.driftBudget)
	}
	if o.answerCache < 0 {
		return fmt.Errorf("-answer-cache must be >= 0, got %d", o.answerCache)
	}
	if o.traceSample < 0 || o.traceSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0,1], got %g", o.traceSample)
	}
	if o.auditSample < 0 || o.auditSample > 1 {
		return fmt.Errorf("-audit-sample must be in [0,1], got %g", o.auditSample)
	}
	if o.traceRing < 0 {
		return fmt.Errorf("-trace-ring must be >= 0, got %d", o.traceRing)
	}
	if o.slowQuery < 0 {
		return fmt.Errorf("-slow-query must be >= 0, got %v", o.slowQuery)
	}
	if o.logRate < 0 {
		return fmt.Errorf("-log-rate must be >= 0, got %g", o.logRate)
	}
	if o.sloLatency < 0 {
		return fmt.Errorf("-slo-latency must be >= 0, got %v", o.sloLatency)
	}
	if o.runtimeSample < 0 {
		return fmt.Errorf("-runtime-sample must be >= 0, got %v", o.runtimeSample)
	}
	if !o.flight {
		if o.flightSpool != "" {
			return fmt.Errorf("-flight-spool requires -flight")
		}
		if o.anomaly {
			return fmt.Errorf("-anomaly requires -flight")
		}
	}

	cluster := o.nodeID != ""
	if !cluster {
		// Single-node mode: reject cluster-only flags instead of
		// silently ignoring them. Flags with non-zero defaults
		// (-replicas, -requant-check) count only when explicitly set.
		for flagName, set := range map[string]bool{
			"-peers":         o.peerList != "",
			"-warm-from":     o.warmFrom != "",
			"-data-dir":      o.dataDir != "",
			"-write-quorum":  o.writeQuorum != 0,
			"-replicas":      o.set["replicas"],
			"-requant-check": o.set["requant-check"],
			"-lag-threshold": o.lagThreshold != 0,
			"-join":          o.join != "",
			"-advertise":     o.advertise != "",
			"-anti-entropy":  o.antiEntropy != 0,
		} {
			if set {
				return fmt.Errorf("%s requires cluster mode (set -node-id)", flagName)
			}
		}
		return nil
	}

	if o.antiEntropy < 0 {
		return fmt.Errorf("-anti-entropy must be >= 0, got %v", o.antiEntropy)
	}
	if o.join != "" {
		// Elastic join: the cluster's shape (partition count, replicas,
		// vnodes, membership) comes from the seed's view, so static
		// cluster-shape flags are contradictions, not configuration.
		if o.advertise == "" {
			return fmt.Errorf("-join requires -advertise (this member's reachable URL)")
		}
		if o.peerList != "" {
			return fmt.Errorf("-join and -peers are mutually exclusive: the membership view comes from the seed")
		}
		if o.set["replicas"] {
			return fmt.Errorf("-replicas comes from the seed's view with -join")
		}
		if o.warmFrom != "" {
			return fmt.Errorf("-warm-from is redundant with -join: the join migration ships state in")
		}
		if o.writeQuorum < 0 {
			return fmt.Errorf("-write-quorum must be >= 0, got %d", o.writeQuorum)
		}
		o.peers = map[string]string{o.nodeID: o.advertise}
		return nil
	}
	if o.advertise != "" {
		return fmt.Errorf("-advertise requires -join")
	}
	peers, err := parsePeers(o.peerList)
	if err != nil {
		return err
	}
	o.peers = peers
	if _, ok := peers[o.nodeID]; !ok {
		return fmt.Errorf("-node-id %q is not listed in -peers (members: %s)",
			o.nodeID, strings.Join(peerIDs(peers), ", "))
	}
	if o.replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1, got %d", o.replicas)
	}
	if o.replicas > len(peers) {
		return fmt.Errorf("-replicas %d exceeds the cluster size %d", o.replicas, len(peers))
	}
	if o.writeQuorum < 0 || o.writeQuorum > o.replicas {
		return fmt.Errorf("-write-quorum must be in [0, -replicas=%d], got %d", o.replicas, o.writeQuorum)
	}
	if o.warmFrom != "" {
		if len(peers) < 2 {
			return fmt.Errorf("-warm-from needs at least one peer besides this node")
		}
		if o.warmFrom == peers[o.nodeID] {
			return fmt.Errorf("-warm-from %q is this node's own URL", o.warmFrom)
		}
	}
	return nil
}

func peerIDs(peers map[string]string) []string {
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// newLogger builds the process logger from the -log-level / -log-rate
// flags (JSON lines on stderr).
func newLogger(o options) *obs.Logger {
	lg := obs.New(os.Stderr, obs.ParseLevel(o.logLevel))
	if o.logRate > 0 {
		burst := int(o.logRate)
		if burst < 1 {
			burst = 1
		}
		lg.SetRateLimit(o.logRate, burst)
	}
	return lg
}

func runSingle(ctx context.Context, o options) error {
	lg := newLogger(o)
	sys, err := sea.NewSystem(sea.SystemConfig{Nodes: o.nodes, Columns: []string{"x", "y", "z"}})
	if err != nil {
		return err
	}
	boot, err := loadStandard(o, sys.Load)
	if err != nil {
		return err
	}

	agents := make([]*core.Agent, o.agents)
	for i := range agents {
		ag, err := sys.NewAgent(sea.AgentConfig{
			Dims: 2, TrainingQueries: o.training, UseMapReduceOracle: true,
			DriftRowBudget: o.driftBudget,
		})
		if err != nil {
			return err
		}
		if err := pretrain(ag, o.training, o.seed+int64(i)); err != nil {
			return err
		}
		st := ag.Stats()
		lg.Info("agent trained", "agent", i, "queries", st.Queries, "quanta", st.Quanta)
		agents[i] = ag.Inner()
	}
	boot.free()
	lg.Info("loaded", append([]any{"rows", sys.Rows(), "nodes", o.nodes}, boot.fields()...)...)

	pool, err := serve.NewPool(agents, nil)
	if err != nil {
		return err
	}
	if o.answerCache > 0 {
		pool.EnableCache(o.answerCache)
	}
	sched := serve.NewScheduler(pool, serve.SchedulerConfig{
		Workers:        o.workers,
		QueueDepth:     o.queue,
		TenantInflight: o.tenantInflight,
	})
	var sloCfg *metrics.SLOConfig
	if o.sloLatency > 0 {
		sloCfg = &metrics.SLOConfig{LatencyObjective: o.sloLatency}
	}
	plane := serve.NewPlane(pool, serve.PlaneConfig{
		Node:          "local",
		TraceSample:   o.traceSample,
		TraceRing:     o.traceRing,
		SlowQuery:     o.slowQuery,
		AuditSample:   o.auditSample,
		Logger:        lg,
		SLO:           sloCfg,
		RuntimeSample: o.runtimeSample,
		Pprof:         o.pprof,
		Flight:        o.flight,
		FlightSpool:   o.flightSpool,
		Anomaly:       o.anomaly,
	})
	defer plane.Close()
	if o.pprof {
		lg.Warn("pprof endpoints mounted under /debug/pprof/ — do not expose publicly")
	}
	if fr := plane.Flight; fr != nil {
		lg.Info("flight recorder armed", "spool", fr.Config().SpoolDir, "anomaly", o.anomaly)
	}
	lg.Info("serving", "addr", o.addr, "agents", o.agents, "workers", o.workers,
		"queue", o.queue, "tenant_inflight", o.tenantInflight, "scan_kernels", query.KernelTier())
	return serve.NewServer(sched, explain.New(agents[0])).Run(ctx, o.addr, o.drain)
}

func runCluster(ctx context.Context, o options) error {
	lg := newLogger(o)
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = o.training
	agentCfg.DriftRowBudget = o.driftBudget
	var sloCfg *metrics.SLOConfig
	if o.sloLatency > 0 {
		sloCfg = &metrics.SLOConfig{LatencyObjective: o.sloLatency}
	}
	cfg := dist.Config{
		ID:             o.nodeID,
		Peers:          o.peers,
		Replicas:       o.replicas,
		Agents:         o.agents,
		Agent:          agentCfg,
		Workers:        o.workers,
		QueueDepth:     o.queue,
		TenantInflight: o.tenantInflight,
		DataDir:        o.dataDir,
		AnswerCache:    answerCacheConfig(o.answerCache),
		WriteQuorum:    o.writeQuorum,
		RequantCheck:   o.requantCheck,
		TraceSample:    o.traceSample,
		TraceRing:      o.traceRing,
		SlowQuery:      o.slowQuery,
		AuditSample:    o.auditSample,
		Logger:         lg,
		SLO:            sloCfg,
		RuntimeSample:  o.runtimeSample,
		LagThreshold:   o.lagThreshold,
		Pprof:          o.pprof,
		Flight:         o.flight,
		FlightSpool:    o.flightSpool,
		Anomaly:        o.anomaly,
		AntiEntropy:    o.antiEntropy,
	}
	if o.join != "" {
		// Boot from the seed's live view: partition count, replicas and
		// vnodes come from the cluster, so the joiner cannot disagree
		// with it. The joiner is not in that view yet — it holds nothing
		// until the seed orchestrates the join below.
		mr, err := dist.FetchMembership(o.join, 0)
		if err != nil {
			return fmt.Errorf("join: fetching membership from %s: %w", o.join, err)
		}
		cfg.InitialView = &mr.View
		cfg.Partitions = mr.Partitions
		cfg.Replicas = mr.Replicas
		cfg.VNodes = mr.VNodes
		lg.Info("booting from seed view", "seed", o.join, "epoch", mr.View.Epoch,
			"members", len(mr.View.Members), "partitions", mr.Partitions,
			"replicas", mr.Replicas)
	}
	node, err := dist.NewNode(cfg)
	if err != nil {
		return err
	}
	boot, err := loadStandard(o, node.Load)
	if err != nil {
		return err
	}
	st := node.Status()
	lg.Info("cluster member up",
		"node", o.nodeID, "partitions_held", len(st.PartitionsHeld),
		"partitions_total", st.PartitionsTotal, "rows", st.RowsHeld,
		"members", len(st.Members), "replicas", st.Replicas,
		"data_version", node.DataVersion())
	if o.dataDir != "" && len(o.peers) > 1 {
		// Log-tail catch-up: close the gap this member missed while it
		// was down (best effort — a cold cluster has no tail to fetch).
		if fetched, err := node.CatchUp(); err != nil {
			lg.Warn("log-tail catch-up incomplete", "err", err)
		} else if fetched > 0 {
			lg.Info("caught up missed ingest batches", "batches", fetched)
		}
	}
	if o.warmFrom != "" {
		shipped, err := node.WarmFrom(o.warmFrom)
		if err != nil {
			lg.Warn("warm-up failed, serving cold", "donor", o.warmFrom, "err", err)
		} else {
			lg.Info("warmed up", "donor", o.warmFrom, "snapshot_bytes", shipped)
		}
	}
	boot.free()
	st = node.Status()
	lg.Info("loaded", append([]any{"partitions", len(st.PartitionsHeld), "rows", st.RowsHeld,
		"wal", o.dataDir != ""}, boot.fields()...)...)
	if o.pprof {
		lg.Warn("pprof endpoints mounted under /debug/pprof/ — do not expose publicly")
	}

	lg.Info("serving", "node", o.nodeID, "addr", o.addr, "scan_kernels", query.KernelTier())
	runCtx := ctx
	if o.join != "" {
		// The seed stages partitions onto us over HTTP, so we must be
		// listening BEFORE the join RPC: wait for our own /healthz to
		// answer through the advertised URL, then ask the seed to
		// orchestrate. A failed join cancels the serve loop — a member
		// that never joined has nothing to serve.
		var cancel context.CancelCauseFunc
		runCtx, cancel = context.WithCancelCause(ctx)
		go func() {
			if err := joinCluster(o, lg); err != nil {
				cancel(err)
			}
		}()
	}
	context.AfterFunc(runCtx, func() { lg.Info("shutting down", "drain", o.drain) })
	err = serve.RunHTTP(runCtx, o.addr, node.Handler(), o.drain, node.Close)
	if cause := context.Cause(runCtx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause
	}
	return err
}

// bootTimes splits a boot into generating the table, loading it, and
// returning the garbage both left behind to the OS.
type bootTimes struct {
	gen, load, release time.Duration
}

// loadStandard generates the standard table and hands it to load. Only
// this frame holds the table, so once load returns it is garbage unless
// load kept it.
func loadStandard(o options, load func([]storage.Row) error) (*bootTimes, error) {
	start := time.Now()
	rows := workload.StandardRows(o.rows, o.seed)
	b := &bootTimes{gen: time.Since(start)}
	if err := load(rows); err != nil {
		return nil, err
	}
	b.load = time.Since(start) - b.gen
	return b, nil
}

// free returns the boot's garbage to the OS: the generated table, the
// load's scratch and whatever warm-up left behind. Left to the
// runtime's background scavenger, those pages can stay resident long
// after the boot.
func (b *bootTimes) free() {
	start := time.Now()
	debug.FreeOSMemory()
	b.release = time.Since(start)
}

// fields are the times as log attributes, in milliseconds.
func (b *bootTimes) fields() []any {
	return []any{"gen_ms", b.gen.Milliseconds(), "load_ms", b.load.Milliseconds(),
		"free_ms", b.release.Milliseconds()}
}

// joinCluster waits for this member's own /healthz to answer at the
// advertised URL, then asks the seed to orchestrate the join. The
// orchestration itself (snapshot ship + WAL catch-up + cutover) runs on
// the seed, so the POST's deadline is generous.
func joinCluster(o options, lg *obs.Logger) error {
	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probe.Get(o.advertise + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("join: own /healthz never answered at %s (is -advertise reachable from this host?)", o.advertise)
		}
		time.Sleep(100 * time.Millisecond)
	}
	body, err := json.Marshal(dist.JoinRequest{ID: o.nodeID, URL: o.advertise})
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 2 * time.Minute}
	resp, err := hc.Post(o.join+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("join via %s: %w", o.join, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("join via %s: HTTP %d: %s", o.join, resp.StatusCode, e.Error)
	}
	var out dist.JoinResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	lg.Info("joined cluster", "seed", o.join, "epoch", out.View.Epoch,
		"members", len(out.View.Members), "moved_parts", out.Moved)
	return nil
}

// answerCacheConfig maps the flag's convention (0 = disabled) onto
// dist.Config's (0 = default, negative = disabled).
func answerCacheConfig(entries int) int {
	if entries == 0 {
		return -1
	}
	return entries
}

// parsePeers parses "n0=http://a:8080,n1=http://b:8080".
func parsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		id, url, ok := strings.Cut(kv, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", kv)
		}
		out[id] = url
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster mode needs -peers id=url,...")
	}
	return out, nil
}

// pretrain feeds the agent a mixed analyst stream (count, avg, corr over
// the standard interest regions) so every aggregate family has warm
// models before traffic arrives.
func pretrain(ag *sea.Agent, training int, seed int64) error {
	streams := []*workload.QueryStream{
		workload.NewQueryStream(workload.NewRNG(seed), workload.DefaultRegions(2), query.Count),
		workload.NewQueryStream(workload.NewRNG(seed+100), workload.DefaultRegions(2), query.Avg),
		workload.NewQueryStream(workload.NewRNG(seed+200), workload.DefaultRegions(2), query.Corr),
	}
	streams[1].Col = 2
	streams[2].Col, streams[2].Col2 = 0, 2
	// Train past the configured training prefix so post-training
	// fallbacks have matured the per-quantum error estimates too.
	n := training + training/2
	for i := 0; i < n; i++ {
		if _, err := ag.Answer(streams[i%len(streams)].Next()); err != nil {
			return err
		}
	}
	return nil
}
