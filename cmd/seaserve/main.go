// Command seaserve runs the SEA serving layer: one member of a serving
// cluster (internal/dist). It loads a synthetic clustered table, keeps
// the data partitions the ring assigns it, and serves the agent API over
// HTTP/JSON. There is one mode: every member mounts every route, and a
// process started without -peers or -join is a one-member cluster.
//
//	seaserve [-addr :8080] [-rows 20000] [-training 300]
//	         [-workers 8] [-queue 256] [-tenant-inflight 64] [-data-dir DIR]
//
// Each member runs one SEA agent in front of its data, and each query
// runs on its own request goroutine from socket to model: -workers caps
// the queries that run at once, -queue the ones that wait for a slot,
// and -tenant-inflight one tenant's share of both.
//
// A lone member's view is {-node-id: self URL}: the id defaults to
// "local", and the URL is -advertise or else http://<-addr> (an empty
// host reads as localhost). Its replication factor and write quorum are
// 1, so its /v1/ingest is durable with -data-dir like any member's.
//
// A larger cluster lists its members on every one of them: a
// consistent-hash ring shards the query space across the members with
// R-way replication, exact answers scatter-gather across the data
// partitions, and replicas warm up by model-snapshot shipping:
//
//	seaserve -addr :8080 -node-id n0 \
//	         -peers n0=http://host0:8080,n1=http://host1:8080,n2=http://host2:8080
//	seaserve -addr :8080 -node-id n1 -peers ... &   # on host1
//	seaserve -addr :8080 -node-id n2 -peers ... \
//	         -warm-from http://host0:8080           # ship n0's models in
//
// -replicas defaults to 2, or to the member count when that is smaller.
// Every member loads the same deterministic synthetic dataset (same
// -rows/-seed) and keeps only the partitions the ring assigns it. Each
// member's agent learns from its first -training live queries; nothing is
// trained before serving, since a member's peers may not be up yet.
//
// The boot ends, just before serving, by returning its scratch memory to
// the OS: the generated table and the load's scratch are garbage by
// then. The "loaded" log line splits the boot into gen_ms (generating
// the table), load_ms (loading it) and free_ms (that release).
//
// From then on the process paces its own garbage collector: the heap
// goal is the resident column bytes plus twice the working heap (the
// live heap without them, at least 4 MiB) — GOGC=100 applied to the
// working heap alone — re-evaluated every second as ingest, installs
// and retires move the columns. The column arrays hold no pointers and
// never become garbage, so an allowance sized on them is memory spent
// for nothing. Setting GOGC or GOMEMLIMIT turns the pacer off. What it
// counted and chose shows on /v1/metrics as sea_resident_column_bytes,
// sea_go_gc_percent and sea_go_heap_goal_bytes.
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
// Every member is also a live system: POST /v1/ingest applies
// replicated, quorum-acked row batches, and a restarted member catches
// up from its peers (their log tail, or a partition snapshot where no
// tail continues its copy); -data-dir makes the write path WAL-durable
// (a restarted member first replays its own WAL; without one, rows no
// live holder kept are lost), -write-quorum sets the ack threshold, and
// -drift-budget/-requant-check tune the drift-aware online model
// maintenance.
//
// Observability: -trace-sample traces a fraction of queries into span
// trees kept for GET /v1/debug/trace/<id> (POST /v1/query?trace=1
// forces one inline), -slow-query logs outliers to GET /v1/debug/slow,
// and -audit-sample shadow-audits model answers against exact ground
// truth (error histograms land in /v1/metrics).
//
// The introspection plane: -log-level selects the leveled JSON-line
// logging on stderr (debug|info|warn|error|off) and -log-rate caps its
// lines/sec (token bucket; suppressed lines are counted, the hot path
// pays one atomic load). -slo-latency arms the per-tenant-class SLO
// engine: multi-window burn rates against that p99 objective export as
// sea_slo_burn_rate / sea_slo_state in /v1/metrics. -runtime-sample
// sets the background runtime-telemetry period (heap, GC pauses,
// goroutines; sea_go_* gauges). -pprof mounts Go's net/http/pprof
// handlers under /debug/pprof/ — off by default, enable only on trusted
// networks. GET /v1/status is this member's introspection snapshot
// (ring, per-partition replication lag, cache, scheduler, SLO, runtime)
// and GET /v1/debug/cluster fans out to every peer with cross-checked
// health findings (-lag-threshold tunes when a lagging replica turns
// critical). cmd/seatop renders that aggregator as a live dashboard.
//
// The flight recorder: -flight samples every series of the metrics
// registry plus key histogram quantiles into in-memory ring buffers at
// two resolutions (~10 min at 1 s, ~6 h at 30 s) behind
// GET /v1/history?metric=&window=, and captures diagnostic bundles
// (goroutine dump, short CPU + heap profiles, trace rings, status
// snapshot) into a bounded spool (<-flight-spool>/<node id>) when the
// SLO engine turns critical or -anomaly's robust z-score detector
// fires; browse them via GET /v1/debug/bundles and
// /v1/debug/bundle/<id>/<file>. A registry series named x is sea_x on
// /v1/metrics (sea_x_total for a counter) and x on /v1/history:
// sea_sched_queue_depth is sched_queue_depth, sea_go_gc_cycles_total is
// go_gc_cycles.
//
// Endpoints, on every member:
//
//	POST /v1/query    {"agg":"count","los":[20,20],"his":[30,30]}
//	POST /v1/explain  same body; piecewise-linear answer explanation
//	GET  /v1/stats    agent + serving counters
//	GET  /v1/metrics  Prometheus text (QPS, per-path latency histograms,
//	                  ingest/drift gauges, audit error histograms,
//	                  SLO burn rates, runtime telemetry)
//	GET  /healthz     liveness (readiness when booting or joining)
//
// and POST /v1/ingest, /v1/replicate, /v1/walfetch, /v1/partials,
// /v1/join, /v1/leave, /v1/digest, GET /v1/snapshot, /v1/cluster,
// /v1/membership, /v1/status and /v1/debug/cluster.
//
// Flag combinations are validated at startup (replication factor vs
// cluster size, quorum vs replicas, -join vs -peers) and fail fast with
// a clear error instead of degrading silently.
//
// The process traps SIGINT/SIGTERM and shuts down gracefully: the
// listener stops accepting, in-flight queries drain (up to -drain), and
// the scheduler refuses new calls once the admitted ones have finished.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
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
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// defaultNodeID is a lone member's id when -node-id is not given.
const defaultNodeID = "local"

// options is the parsed and validated flag set.
type options struct {
	addr           string
	rows           int
	training       int
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
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.rows, "rows", 20_000, "synthetic rows to load")
	flag.IntVar(&o.training, "training", 300, "live queries the agent answers exactly while it learns")
	flag.IntVar(&o.workers, "workers", 8, "queries that run at once")
	flag.IntVar(&o.queue, "queue", 256, "queries that may wait for a running slot")
	flag.IntVar(&o.tenantInflight, "tenant-inflight", 64, "max in-flight queries per tenant")
	flag.Int64Var(&o.seed, "seed", 1, "data RNG seed (must match across members)")
	flag.IntVar(&o.answerCache, "answer-cache", dist.DefaultAnswerCache,
		"versioned answer-cache capacity in entries (0 disables)")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown drain deadline")
	flag.StringVar(&o.nodeID, "node-id", defaultNodeID, "this member's id")
	flag.StringVar(&o.peerList, "peers", "", "cluster members as id=url,id=url,... (empty: a one-member cluster)")
	flag.IntVar(&o.replicas, "replicas", 0, "replication factor (0: 2, or the member count when smaller)")
	flag.StringVar(&o.warmFrom, "warm-from", "", "peer URL to import the agent snapshot from at start")
	flag.StringVar(&o.join, "join", "", "live member URL to join a running cluster through (replaces -peers)")
	flag.StringVar(&o.advertise, "advertise", "", "this member's externally reachable URL (required with -join; default http://<-addr> without -peers)")
	flag.DurationVar(&o.antiEntropy, "anti-entropy", 0, "background replica-repair cadence (0 disables)")
	flag.StringVar(&o.dataDir, "data-dir", "", "WAL directory for the live write path (empty = no durability: a restarted or lagging replica still catches up from a peer's partition snapshot, but rows no live holder kept are lost)")
	flag.IntVar(&o.writeQuorum, "write-quorum", 0, "owners that must apply an ingest batch before ack (0 = majority of the replicas)")
	flag.IntVar(&o.driftBudget, "drift-budget", 200, "ingested rows a quantum absorbs before its models re-earn trust (>= 1)")
	flag.DurationVar(&o.requantCheck, "requant-check", 2*time.Second, "background drift-maintainer poll period (0 disables re-quantisation)")
	flag.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of queries to trace (0 disables sampling; ?trace=1 always works)")
	flag.DurationVar(&o.slowQuery, "slow-query", 0, "log queries slower than this to /v1/debug/slow (0 disables)")
	flag.Float64Var(&o.auditSample, "audit-sample", 0, "fraction of model-served answers to shadow-audit against exact truth (0 disables)")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured JSON log level: debug|info|warn|error|off")
	flag.Float64Var(&o.logRate, "log-rate", 0, "max structured log lines/sec (token bucket; 0 = unlimited)")
	flag.DurationVar(&o.sloLatency, "slo-latency", 0, "per-tenant-class p99 latency objective; arms SLO burn-rate tracking (0 disables)")
	flag.DurationVar(&o.runtimeSample, "runtime-sample", 10*time.Second, "runtime telemetry sampling period (0 = on-demand only)")
	flag.Uint64Var(&o.lagThreshold, "lag-threshold", 0, "replication lag in batches before a /v1/debug/cluster finding turns critical (0 = default 1)")
	flag.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; trusted networks only)")
	flag.BoolVar(&o.flight, "flight", false, "arm the flight recorder: in-memory metric history behind GET /v1/history plus triggered diagnostic bundles")
	flag.StringVar(&o.flightSpool, "flight-spool", "", "diagnostic-bundle spool directory (default: under -data-dir, else the OS temp dir; requires -flight)")
	flag.BoolVar(&o.anomaly, "anomaly", false, "arm robust z-score anomaly detection over watched flight series (requires -flight)")
	flag.Parse()

	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "seaserve:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "seaserve:", err)
		os.Exit(1)
	}
}

// validate fails fast on flag combinations that would otherwise degrade
// silently (a replication factor the cluster cannot honour, warm-up
// with nobody to warm from), and resolves the member map.
func (o *options) validate() error {
	if o.rows < 1 {
		return fmt.Errorf("-rows must be >= 1, got %d", o.rows)
	}
	if o.training < 0 {
		return fmt.Errorf("-training must be >= 0, got %d", o.training)
	}
	if o.workers < 1 || o.queue < 1 {
		return fmt.Errorf("-workers and -queue must be >= 1, got %d and %d", o.workers, o.queue)
	}
	if o.driftBudget < 1 {
		return fmt.Errorf("-drift-budget must be >= 1, got %d", o.driftBudget)
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
	if o.nodeID == "" {
		return fmt.Errorf("-node-id must not be empty")
	}
	if o.antiEntropy < 0 {
		return fmt.Errorf("-anti-entropy must be >= 0, got %v", o.antiEntropy)
	}
	if o.replicas < 0 {
		return fmt.Errorf("-replicas must be >= 0, got %d", o.replicas)
	}
	if o.writeQuorum < 0 {
		return fmt.Errorf("-write-quorum must be >= 0, got %d", o.writeQuorum)
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
		if o.replicas != 0 {
			return fmt.Errorf("-replicas comes from the seed's view with -join")
		}
		if o.warmFrom != "" {
			return fmt.Errorf("-warm-from is redundant with -join: the join migration ships state in")
		}
		o.peers = map[string]string{o.nodeID: o.advertise}
		return nil
	}
	if o.peerList == "" {
		self, err := selfURL(o.advertise, o.addr)
		if err != nil {
			return err
		}
		o.peers = map[string]string{o.nodeID: self}
	} else {
		if o.advertise != "" {
			return fmt.Errorf("-advertise and -peers are mutually exclusive: -peers names this member's URL")
		}
		peers, err := parsePeers(o.peerList)
		if err != nil {
			return err
		}
		o.peers = peers
	}
	if _, ok := o.peers[o.nodeID]; !ok {
		return fmt.Errorf("-node-id %q is not listed in -peers (members: %s)",
			o.nodeID, strings.Join(peerIDs(o.peers), ", "))
	}
	if o.replicas > len(o.peers) {
		return fmt.Errorf("-replicas %d exceeds the cluster size %d", o.replicas, len(o.peers))
	}
	replicas := o.replicas
	if replicas == 0 {
		replicas = min(dist.DefaultReplicas, len(o.peers))
	}
	if o.writeQuorum > replicas {
		return fmt.Errorf("-write-quorum must be in [0, replicas=%d], got %d", replicas, o.writeQuorum)
	}
	if o.warmFrom != "" {
		if len(o.peers) < 2 {
			return fmt.Errorf("-warm-from needs at least one peer besides this node")
		}
		if o.warmFrom == o.peers[o.nodeID] {
			return fmt.Errorf("-warm-from %q is this node's own URL", o.warmFrom)
		}
	}
	return nil
}

// selfURL is a lone member's URL: advertise, or else addr over http with
// an empty host read as localhost.
func selfURL(advertise, addr string) (string, error) {
	if advertise != "" {
		return advertise, nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("-addr %q: %v", addr, err)
	}
	if host == "" {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port), nil
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

func run(ctx context.Context, o options) error {
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
		Agent:          agentCfg,
		Workers:        o.workers,
		QueueDepth:     o.queue,
		TenantInflight: o.tenantInflight,
		DataDir:        o.dataDir,
		AnswerCache:    answerCacheConfig(o.answerCache),
		WriteQuorum:    o.writeQuorum,
		RequantCheck:   o.requantCheck,
		TraceSample:    o.traceSample,
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
	if len(o.peers) > 1 {
		// Catch-up: close the gap this member missed while it was down,
		// from the peers' log tails or, without one, their partition
		// snapshots (best effort — a cold cluster has nothing to fetch).
		if fetched, err := node.CatchUp(); err != nil {
			lg.Warn("catch-up incomplete", "err", err)
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
	pacerCtx, stopPacer := context.WithCancel(ctx)
	paced := paceGC(pacerCtx, node.ResidentBytes)
	defer func() {
		stopPacer()
		<-paced
	}()
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
