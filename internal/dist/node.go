package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/flight"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/trace"
)

// maxIngestHops bounds ingest re-forwarding during membership
// disagreement windows: at this hop count a node applies the batch as
// primary itself rather than forwarding again.
const maxIngestHops = 2

// errNodeClosing rejects new mutating work once Close has begun.
var errNodeClosing = fmt.Errorf("dist: node closing")

// Node is one cluster member: the data partitions the ring assigns it,
// one agent in front of them (predictions are node-local; exact fallbacks
// scatter-gather across the partition holders), and the node-to-node
// HTTP API. Construct with NewNode, Load the data, then serve Handler().
type Node struct {
	cfg     Config
	id      string
	health  *peerHealth
	hc      *http.Client
	mux     *http.ServeMux
	started time.Time

	// member is the node's resolved membership (view + ring + URLs),
	// swapped atomically on every view change: a reader resolves
	// owners, forwards and replica URLs against ONE consistent state.
	// viewMu serialises applyView; refreshing coalesces background
	// membership refreshes; rebalanceMu serialises coordinated
	// join/leave changes (a node can adopt another coordinator's view
	// while orchestrating its own, hence two locks).
	member      atomic.Pointer[memberState]
	viewMu      sync.Mutex
	refreshing  atomic.Bool
	rebalanceMu sync.Mutex
	movesTotal  atomic.Int64
	lastChange  atomic.Int64 // unix ms of the last applied view

	// closeMu gates mutating handlers against Close: handlers hold the
	// read side from admission through their WAL append and response
	// write; Close takes the write side after marking closed, so it
	// cannot proceed until every admitted handler finished. closing
	// makes Close idempotent.
	closeMu sync.RWMutex
	closed  bool
	closing atomic.Bool

	// Anti-entropy state: armed flag (one atomic load on the disarmed
	// tick), stop channel for the background loop, lifetime counters.
	aeArmed     atomic.Bool
	aeStop      chan struct{}
	aeTicks     atomic.Int64
	aeChecked   atomic.Int64
	aeDivergent atomic.Int64
	aeRepairs   atomic.Int64

	// dataRPCs counts data-plane requests served (query, partials,
	// ingest, replicate, walfetch) — the client-staleness regression
	// test asserts a removed member's count stays flat.
	dataRPCs atomic.Int64

	// fault is the node's chaos-injection rule set: it wraps the
	// node-to-node HTTP transport and is driven by POST /v1/debug/chaos.
	// Disabled (the default) it costs one atomic load per request.
	fault *chaos.Fault

	// partialLat observes successful primary /v1/partials round-trip
	// latencies; hedgeNs caches the configured quantile of it (the
	// scatter hedging delay, recomputed every hedgeRecalcEvery samples).
	partialLat  metrics.Histogram
	partialLatN atomic.Int64
	hedgeNs     atomic.Int64

	// idemMu guards the primary-side ingest idempotency cache: recently
	// applied (idem key, partition) outcomes, replayed on client retry
	// so a broken-connection retry cannot double-ingest. Bounded FIFO.
	idemMu    sync.Mutex
	idem      map[idemSlot]PartIngestResult
	idemOrder []idemSlot

	pool  *serve.Pool
	sched *serve.Scheduler

	// logger is the node's structured logger (cfg.Logger bound to this
	// node's id); nil when unwired — every call site is nil-safe.
	logger *obs.Logger
	// plane is the node's observability: tracer, SLO engine, runtime
	// sampler and flight recorder over the pool's series registry.
	plane *serve.Plane

	// maint is the agent's background drift maintainer (nil when
	// RequantCheck is disabled).
	maint *ingest.Maintainer

	// mu guards the three lookups from partition id to the node's copy
	// of that fragment, one per lifecycle state (partition.go). Load
	// lays the base rows down once; afterwards a copy changes state by
	// moving between the lookups, and synchronises its own content.
	mu      sync.RWMutex
	live    map[int]*partition
	staged  map[int]staging
	retired map[int]*partition
	// version advances with every change to what the live copies hold.
	version atomic.Int64

	// partialsServed counts incoming batched partial-state RPCs;
	// partialsSent counts outgoing batched rounds. The dist tests use
	// them to assert the message-minimal fan-out shape.
	partialsServed atomic.Int64
	partialsSent   atomic.Int64

	// ingestEpoch advances for every ingest batch this node FORWARDS
	// to a primary: the batch changes cluster data the node's own
	// version counter never sees (it holds none of the written
	// partitions), yet the node knows about it — so it must expire its
	// cached cluster-wide answers. Folded into cacheVersion.
	ingestEpoch atomic.Int64
	// absorbedVer is the highest data version whose batch the agent
	// has fully absorbed. The answer cache stamps with THIS, not the
	// live version: between a batch's apply (version visible) and its
	// AbsorbRows (models updated), an answer computed from the
	// pre-batch models must not be cached at the post-batch version —
	// it would pass every later check and outlive the data it missed.
	absorbedVer atomic.Int64
}

// NewNode builds a node from cfg. The node holds no data until Load.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, fmt.Errorf("dist: config needs a node ID")
	}
	if cfg.Agents > 1 {
		return nil, fmt.Errorf("dist: a node runs one agent, got Agents %d", cfg.Agents)
	}
	// A joiner boots from a fetched view rather than a peer map, so the
	// self-in-peers invariant only binds the static-config path.
	if cfg.InitialView == nil {
		if _, ok := cfg.Peers[cfg.ID]; !ok && len(cfg.Peers) > 0 {
			return nil, fmt.Errorf("dist: node %q missing from its own peer map", cfg.ID)
		}
	}
	var view View
	if cfg.InitialView != nil {
		view = cfg.InitialView.clone()
		view.normalize()
	} else {
		view = viewFromPeers(cfg.ID, cfg.Peers)
	}
	fault := chaos.New()
	n := &Node{
		cfg:     cfg,
		id:      cfg.ID,
		health:  newPeerHealth(cfg.Cooldown, cfg.BreakerFailureRate),
		hc:      newHTTPClient(cfg.Timeout, fault),
		fault:   fault,
		started: time.Now(),
		logger:  cfg.Logger.With("node", cfg.ID),
		live:    make(map[int]*partition),
		staged:  make(map[int]staging),
		retired: make(map[int]*partition),
		idem:    make(map[idemSlot]PartIngestResult),
	}
	n.version.Store(1) // bulk-loaded base data is version 1; ingest advances it
	n.member.Store(newMemberState(view, cfg.VNodes))
	// AntiEntropy != 0 arms the tick; only > 0 runs the background
	// loop (< 0 lets tests/experiments drive AntiEntropyTick manually;
	// 0 disarms the tick entirely).
	if cfg.AntiEntropy != 0 {
		n.aeArmed.Store(true)
	}
	if cfg.AntiEntropy > 0 {
		n.aeStop = make(chan struct{})
		go n.antiEntropyLoop(cfg.AntiEntropy)
	}
	ag, err := core.NewAgent(scatterOracle{n: n}, cfg.Agent)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	pool := serve.NewPool(ag, nil)
	if cfg.AnswerCache > 0 {
		pool.EnableCache(cfg.AnswerCache)
		pool.Cache().SetTTL(DefaultAnswerCacheTTL)
		pool.SetCacheVersion(n.cacheVersion)
	}
	n.pool = pool
	rec := pool.Recorder()
	for _, s := range []metrics.Series{
		{Name: "wal_segments", Help: "WAL segment files across this node's owned partitions.",
			Read: func() float64 { return float64(n.walSegments()) }},
		{Name: "absorbed_version", Help: "Highest data version the agent's models have fully absorbed.",
			Read: func() float64 { return float64(n.absorbedVer.Load()) }},
		{Name: "ingest_epoch", Help: "Ingest batches this node forwarded to other primaries.",
			Read: func() float64 { return float64(n.ingestEpoch.Load()) }},
		{Name: "breaker_state", Help: "Worst per-peer circuit-breaker state (0 closed, 1 half-open, 2 open).",
			Watch: true, Read: func() float64 {
				_, worst := n.health.snapshot()
				return float64(worst)
			}},
		{Name: "membership_epoch", Help: "Current membership view epoch (advances on every join/leave).",
			Read: func() float64 { return float64(n.epoch()) }},
		{Name: "antientropy_repairs", Help: "Divergent replicas healed by the anti-entropy repair loop.",
			Kind: metrics.KindCounter, Read: func() float64 { return float64(n.aeRepairs.Load()) }},
		{Name: "rebalance_moves", Help: "Partition replicas this node moved as a rebalance coordinator.",
			Kind: metrics.KindCounter, Read: func() float64 { return float64(n.movesTotal.Load()) }},
		{Name: "probation_quanta", Help: "Quanta serving under post-invalidation probation in the node's agent.",
			Read: func() float64 { return float64(ag.ProbationQuanta()) }},
		{Name: "resident_column_bytes", Help: "Column-array bytes of every partition copy this node holds (live, staged and retired).",
			Read: func() float64 { return float64(n.ResidentBytes()) }},
		{Name: "replication_lag", Help: "Worst gap, in batches, any live partition saw among the replicas that answered its latest replicated batch.",
			Watch: true, Read: func() float64 { return float64(n.replicationLag()) }},
	} {
		rec.Register(s)
	}
	n.sched = serve.NewScheduler(pool, serve.SchedulerConfig{
		Workers:        cfg.Workers,
		QueueDepth:     cfg.QueueDepth,
		TenantInflight: cfg.TenantInflight,
	})
	spool := cfg.FlightSpool
	if spool == "" && cfg.DataDir != "" {
		spool = filepath.Join(cfg.DataDir, "flight")
	}
	n.plane = serve.NewPlane(pool, serve.PlaneConfig{
		Node:          cfg.ID,
		TraceSample:   cfg.TraceSample,
		SlowQuery:     cfg.SlowQuery,
		AuditSample:   cfg.AuditSample,
		Logger:        n.logger,
		SLO:           cfg.SLO,
		RuntimeSample: cfg.RuntimeSample,
		Pprof:         cfg.Pprof,
		Flight:        cfg.Flight,
		FlightSample:  cfg.FlightSample,
		FlightSpool:   spool,
		Anomaly:       cfg.Anomaly,
		StatusFn:      func() any { return n.NodeStatus() },
	})
	if cfg.RequantCheck > 0 {
		n.maint = ingest.NewMaintainer(ag, ingest.MaintainerConfig{
			Interval: cfg.RequantCheck,
			OnRebuild: func(err error) {
				if err != nil {
					n.logger.Warn("model rebuild failed", "err", err)
					return
				}
				rec.Rebuild()
				// The swapped-in models predict differently at the
				// same data version: drop cached answers.
				pool.FlushCache()
				n.logger.Debug("model rebuilt, cache flushed")
			},
		})
		n.maint.Start()
	}
	n.mux = http.NewServeMux()
	n.mux.HandleFunc("POST /v1/query", n.handleQuery)
	n.mux.HandleFunc("POST /v1/partials", n.handlePartials)
	n.mux.HandleFunc("POST /v1/ingest", n.handleIngest)
	n.mux.HandleFunc("POST /v1/replicate", n.handleReplicate)
	n.mux.HandleFunc("POST /v1/walfetch", n.handleWALFetch)
	n.mux.HandleFunc("GET /v1/membership", n.handleMembershipGet)
	n.mux.HandleFunc("POST /v1/membership", n.handleMembershipPost)
	n.mux.HandleFunc("POST /v1/join", n.handleJoin)
	n.mux.HandleFunc("POST /v1/leave", n.handleLeave)
	n.mux.HandleFunc("POST /v1/migrate", n.handleMigrate)
	n.mux.HandleFunc("POST /v1/partsnap", n.handlePartSnap)
	n.mux.HandleFunc("POST /v1/digest", n.handleDigest)
	n.mux.HandleFunc("GET /v1/snapshot", n.handleSnapshot)
	n.mux.HandleFunc("GET /v1/cluster", n.handleCluster)
	n.mux.HandleFunc("GET /v1/status", n.handleStatus)
	n.mux.HandleFunc("GET /v1/debug/cluster", n.handleDebugCluster)
	n.mux.HandleFunc("POST /v1/debug/chaos", n.handleChaosSet)
	n.mux.HandleFunc("GET /v1/debug/chaos", n.handleChaosGet)
	serve.MountInspect(n.mux, n.sched, explain.New(ag))
	n.plane.Mount(n.mux)
	return n, nil
}

// ID returns the node's member id.
func (n *Node) ID() string { return n.id }

// Ring returns the node's current placement ring (immutable; a view
// change swaps in a freshly built ring).
func (n *Node) Ring() *Ring { return n.members().ring }

// Pool returns the node's serving pool (its agent, cache and stats).
func (n *Node) Pool() *serve.Pool { return n.pool }

// Tracer returns the node's tracer (debug endpoints, tests).
func (n *Node) Tracer() *trace.Tracer { return n.plane.Tracer }

// Flight returns the node's flight recorder (nil when disabled).
func (n *Node) Flight() *flight.Recorder { return n.plane.Flight }

// SLO returns the node's SLO engine (nil when disabled). Exported so
// experiments can drive Tick from a synthetic clock.
func (n *Node) SLO() *metrics.SLOEngine { return n.plane.SLO }

// DataRPCs returns the number of data-plane requests (query, partials,
// ingest, replicate, walfetch) this node has served over HTTP. The
// client-staleness regression test asserts a departed member's count
// stays flat after the view change.
func (n *Node) DataRPCs() int64 { return n.dataRPCs.Load() }

// Fault returns the node's chaos fault set — the programmatic face of
// POST /v1/debug/chaos (tests and LocalCluster arm it directly).
func (n *Node) Fault() *chaos.Fault { return n.fault }

// rec returns the node's serving recorder (the resilience counters:
// RPC retries, hedges, degraded answers).
func (n *Node) rec() *metrics.ServeRecorder { return n.pool.Recorder() }

// chaosState is the GET/POST /v1/debug/chaos wire form: POST installs
// (enabled + rules) or clears (enabled false) the node's fault set; both
// verbs return the state plus injected-fault counters.
type chaosState struct {
	Enabled bool         `json:"enabled"`
	Rules   []chaos.Rule `json:"rules,omitempty"`
	Stats   *chaos.Stats `json:"stats,omitempty"`
}

func (n *Node) handleChaosSet(w http.ResponseWriter, r *http.Request) {
	var req chaosState
	if !decodeBody(w, r, bodyLimit, &req) {
		return
	}
	if !req.Enabled {
		n.fault.Clear()
	} else {
		n.fault.Set(req.Rules)
	}
	n.logger.Warn("chaos rules updated",
		"enabled", n.fault.Enabled(), "rules", len(req.Rules))
	n.handleChaosGet(w, r)
}

func (n *Node) handleChaosGet(w http.ResponseWriter, _ *http.Request) {
	st := n.fault.Stats()
	serve.WriteJSON(w, http.StatusOK, chaosState{
		Enabled: n.fault.Enabled(),
		Rules:   n.fault.Rules(),
		Stats:   &st,
	})
}

// Close drains the node's scheduler, stops the drift maintainers, the
// observability plane and the anti-entropy loop, waits out every
// admitted mutating handler (so a replicate ack never races a WAL
// close), and closes the partition WALs — live and retired. In-flight
// queries complete. Idempotent.
func (n *Node) Close() {
	if !n.closing.CompareAndSwap(false, true) {
		return
	}
	if n.maint != nil {
		n.maint.Stop()
	}
	n.plane.Close()
	if n.aeStop != nil {
		close(n.aeStop)
	}
	n.sched.Close()
	n.pool.DrainAudits()
	// Flip closed under the write lock: every handler that passed
	// ingestGate holds the read side until its response is written, so
	// this acquisition IS the drain barrier.
	n.closeMu.Lock()
	n.closed = true
	n.closeMu.Unlock()
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, pt := range n.live {
		pt.closeLog()
	}
	for _, pt := range n.retired {
		pt.closeLog()
	}
}

// ingestGate admits one mutating handler against Close: true means the
// caller may proceed and MUST call closeDone when finished (it holds
// closeMu's read side through its WAL append and response write), so
// Close cannot close a WAL out from under it. False means the node is
// closing and the work must be rejected.
func (n *Node) ingestGate() bool {
	n.closeMu.RLock()
	if n.closed {
		n.closeMu.RUnlock()
		return false
	}
	return true
}

// closeDone releases the admission taken by a successful ingestGate.
func (n *Node) closeDone() { n.closeMu.RUnlock() }

// Load deals the table's rows round-robin into cfg.Partitions data
// partitions and keeps the ones whose ring owners include this node
// (Owned; each partition lives on Replicas members), each laid down in
// clustered order (storage.ColStore.AppendClustered) — a function of the
// dealt rows alone, so every holder of a partition ends up with the same
// layout. With a configured DataDir it then opens each owned partition's
// write-ahead log and replays the surviving segments on top of the base
// rows — the crash-recovery half of the live write path. Call once,
// before serving traffic; afterwards only the ingest path mutates the
// partition map.
func (n *Node) Load(t storage.Batch) error {
	live := make(map[int]*partition)
	var owned []*partition
	for _, p := range n.Owned() {
		live[p] = newPartition(p)
		owned = append(owned, live[p])
	}
	runBounded(runtime.GOMAXPROCS(0), len(owned), func(i int) {
		pt := owned[i]
		pt.cols.AppendClustered(t, pt.id, n.cfg.Partitions)
		pt.baseLen = pt.cols.Len()
	})
	n.mu.Lock()
	n.live = live
	n.absorbedVer.Store(n.version.Load()) // bulk load needs no model absorb
	n.mu.Unlock()

	if n.cfg.DataDir == "" {
		return nil
	}
	for _, pt := range owned {
		l, err := n.openLog(pt.id)
		if err != nil {
			return fmt.Errorf("dist: node %s: %w", n.id, err)
		}
		replayErr := l.Replay(func(e ingest.Entry) error {
			return n.applyBatch(pt, true, e.Seq, e.Rows, nil)
		})
		// Attached only now: replay reads the log, so its batches must
		// not be appended to it again.
		pt.wal.Store(l)
		if replayErr != nil {
			return fmt.Errorf("dist: node %s: replay partition %d: %w", n.id, pt.id, replayErr)
		}
	}
	return nil
}

// Owned returns the partitions whose ring owners, under the node's
// current view, include it: the ones Load keeps. A member joining a
// running cluster is not in its boot view and owns none.
func (n *Node) Owned() []int {
	var out []int
	ring := n.members().ring
	for p := 0; p < n.cfg.Partitions; p++ {
		if containsStr(ring.Owners(partKey(p), n.cfg.Replicas), n.id) {
			out = append(out, p)
		}
	}
	return out
}

// openLog opens partition p's write-ahead log under the node's DataDir.
func (n *Node) openLog(p int) (*ingest.Log, error) {
	return ingest.Open(filepath.Join(n.cfg.DataDir, fmt.Sprintf("part-%d", p)), ingest.Options{})
}

// notHeld is the error text for a partition this node has no copy of.
func (n *Node) notHeld(p int) string {
	return fmt.Sprintf("dist: node %s does not hold partition %d", n.id, p)
}

// livePart returns the node's live copy of partition p (nil when it
// holds none).
func (n *Node) livePart(p int) *partition {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.live[p]
}

// find returns whichever copy of partition p the node has — live first,
// then staged, then retired — and whether it is the live one.
func (n *Node) find(p int) (*partition, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if pt := n.live[p]; pt != nil {
		return pt, true
	}
	if st, ok := n.staged[p]; ok {
		return st.pt, false
	}
	return n.retired[p], false
}

// lockPart is find with the copy's ingest lock held on return. State
// moves happen only under that lock, so the reported state holds until
// the caller unlocks; a copy replaced while we waited is looked up again.
func (n *Node) lockPart(p int) (*partition, bool) {
	for {
		pt, _ := n.find(p)
		if pt == nil {
			return nil, false
		}
		pt.ingest.Lock()
		if cur, live := n.find(p); cur == pt {
			return pt, live
		}
		pt.ingest.Unlock()
	}
}

// lockLive returns the live copy of partition p with its ingest lock
// held, or nil (nothing locked) when the node does not hold p live.
func (n *Node) lockLive(p int) *partition {
	pt, live := n.lockPart(p)
	if pt != nil && !live {
		pt.ingest.Unlock()
		return nil
	}
	return pt
}

// liveParts returns the live copies in ascending partition order.
func (n *Node) liveParts() []*partition {
	n.mu.RLock()
	parts := make([]*partition, 0, len(n.live))
	for _, pt := range n.live {
		parts = append(parts, pt)
	}
	n.mu.RUnlock()
	slices.SortFunc(parts, func(a, b *partition) int { return a.id - b.id })
	return parts
}

// walSegments counts WAL segment files across the live partitions.
func (n *Node) walSegments() int {
	total := 0
	for _, pt := range n.liveParts() {
		total += pt.walSegments()
	}
	return total
}

// ResidentBytes is the column-array bytes (storage.ColStore.Bytes) of
// every copy the node holds: live, staged and retired. Those arrays stay
// live for as long as the copy is held, so a process that sizes its
// garbage allowance on its live heap should leave them out.
func (n *Node) ResidentBytes() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var total uint64
	for _, pt := range n.live {
		total += pt.bytes()
	}
	for _, st := range n.staged {
		total += st.pt.bytes()
	}
	for _, pt := range n.retired {
		total += pt.bytes()
	}
	return total
}

// replicationLag is the worst gap any live partition saw among the
// replicas that answered its latest replicated batch (primary-observed).
func (n *Node) replicationLag() uint64 {
	var worst uint64
	for _, pt := range n.liveParts() {
		worst = max(worst, pt.repLag.Load())
	}
	return worst
}

// schemaWidth returns the row width this node has observed (adopted by
// its partitions from the data), or -1 when unknown.
func (n *Node) schemaWidth() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, pt := range n.live {
		if w := pt.width(); w >= 0 {
			return w
		}
	}
	return -1
}

// localPartial is partition.partial over the node's live copy of p; the
// last return reports whether this node holds p.
func (n *Node) localPartial(p int, q query.Query) (partial []float64, scanned, summarised int64, ok bool) {
	pt := n.livePart(p)
	if pt == nil {
		return nil, 0, 0, false
	}
	partial, scanned, summarised = pt.partial(q)
	return partial, scanned, summarised, true
}

// Answer serves one query through the node's own pool (local API used by
// embedding processes; HTTP clients go through /v1/query).
func (n *Node) Answer(tenant string, q query.Query) (core.Answer, error) {
	return n.AnswerTraced(tenant, q, nil)
}

// AnswerTraced is Answer under a caller-provided (possibly nil) trace —
// the ?trace=1 entry point. A nil trace leaves the pool free to make
// its own background sampling decision.
func (n *Node) AnswerTraced(tenant string, q query.Query, tr *trace.Trace) (core.Answer, error) {
	if n.maint != nil {
		// Remember the query as rebuild training material (background
		// drift maintenance).
		n.maint.Record(q)
	}
	return n.sched.AnswerTraced(tenant, q, tr)
}

func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req serve.QueryRequest
	if !decodeBody(w, r, bodyLimit, &req) {
		return
	}
	q, err := req.Query()
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	// The client's body deadline folds into the envelope: the earlier of
	// the two binds the answer and the forward hop.
	env := envelopeOf(r).until(req.DeadlineMS)
	q.Deadline = env.deadlineTime()
	// Refuse dead-on-arrival requests before any work (including the
	// forward hop): the client stopped waiting, and a retried dead
	// request arrives even deader. serve.WriteError maps this to 504.
	if env.expired() {
		serve.WriteError(w, serve.ErrDeadline)
		return
	}
	tenant := req.Tenant
	if h := r.Header.Get("X-Tenant"); h != "" {
		tenant = h
	}
	// Fold the resolved tenant back into the wire form so forwarding
	// preserves it: the owner's admission control must see the same
	// tenant the entry node resolved, header or body.
	req.Tenant = tenant
	env.trace = env.trace || serve.TraceRequested(r)

	var ownerBuf [4]string
	owners := n.members().ring.queryOwners(ownerBuf[:], serve.KeyHash(q), n.cfg.Replicas)
	// Forwarded queries are always answered locally (no bouncing); owned
	// queries too. Everything else is proxied to the key's owners with
	// failover, and answered locally as the last resort — any node can
	// scatter-gather, so a fully-degraded ring still serves.
	if env.hops > 0 || containsStr(owners, n.id) {
		n.answerLocal(w, env.trace, tenant, q)
		return
	}
	env.hops = 1
	if n.forward(w, owners, req, env) {
		return
	}
	n.answerLocal(w, env.trace, tenant, q)
}

func (n *Node) answerLocal(w http.ResponseWriter, traced bool, tenant string, q query.Query) {
	var tr *trace.Trace
	if traced {
		tr = n.plane.Tracer.Force("query")
	}
	ans, err := n.AnswerTraced(tenant, q, tr)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	resp := QueryResponse{
		QueryResponse: serve.QueryResponse{
			Value:     ans.Value,
			Predicted: ans.Predicted,
			EstError:  ans.EstError,
			Quantum:   ans.Quantum,
			StaleRows: ans.FreshRows,
			Cost:      serve.ToCostJSON(ans.Cost),
			Degraded:  ans.Degraded,
			Coverage:  ans.Coverage,
		},
		Node: n.id,
	}
	if tr != nil {
		resp.TraceID = tr.ID()
		resp.Trace = tr.Wire()
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// forward proxies req to the key's owners in ring order under env (the
// trace flag and deadline ride along to the node that answers) and
// relays the first conclusive response: an answer, or the owner's
// verdict on the query (a rejection, overload, a lapsed deadline). It
// reports false when every owner was unreachable or failed (the caller
// then degrades to answering locally).
func (n *Node) forward(w http.ResponseWriter, owners []string, req serve.QueryRequest, env envelope) bool {
	urls := n.members().urls
	for _, o := range owners {
		url, ok := urls[o]
		if !ok || url == "" || o == n.id || !n.health.admit(url) {
			continue
		}
		var raw json.RawMessage
		rep, err := n.call(context.Background(), http.MethodPost, url+"/v1/query", env, req, &raw)
		n.health.observeReply(url, rep, err)
		var se *statusError
		switch {
		case err == nil:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rep.status)
			_, _ = w.Write(raw)
			return true
		case errors.As(err, &se) && (se.code < 500 || se.code == http.StatusGatewayTimeout):
			serve.WriteJSON(w, se.code, map[string]string{"error": se.msg})
			return true
		}
		n.logger.Warn("query forward failed, trying next owner", "peer", o, "err", err)
	}
	return false
}

// handlePartials is the batched partial-state endpoint: one round trip
// carries every partition the caller needs from this holder. Partitions
// this node does not hold come back as per-entry errors, never as a
// whole-batch failure, so the caller re-batches only the leftovers.
func (n *Node) handlePartials(w http.ResponseWriter, r *http.Request) {
	n.partialsServed.Add(1)
	var req PartialsRequest
	if !decodeBody(w, r, bodyLimit, &req) {
		return
	}
	q, err := req.Query.Query()
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	// A traced batch records its side of the work as a detached span
	// tree rooted at this node; the gatherer grafts it under the
	// matching partial_rpc span, stitching one tree across nodes.
	var root *trace.Span
	if envelopeOf(r).trace {
		root = trace.NewSpan("partials", n.id)
	}
	scan := root.Child("local_scan")
	var rowsScanned, rowsSummarised int64
	resp := PartialsResponse{Node: n.id, Partials: make([]PartPartial, 0, len(req.Parts))}
	for _, p := range req.Parts {
		e := PartPartial{Part: p}
		if partial, scanned, summarised, ok := n.localPartial(p, q); ok {
			e.Partial, e.Rows = partial, scanned
			rowsScanned += scanned
			rowsSummarised += summarised
		} else {
			e.Error = n.notHeld(p)
		}
		resp.Partials = append(resp.Partials, e)
	}
	scan.End()
	scan.SetAttrInt("parts", int64(len(req.Parts)))
	scan.SetAttrInt("rows_scanned", rowsScanned)
	scan.SetAttrInt("rows_summarised", rowsSummarised)
	root.End()
	if root != nil {
		resp.Spans = []trace.WireSpan{root.Wire()}
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// PartialRPCsServed returns how many batched partial-state RPCs this
// node has answered.
func (n *Node) PartialRPCsServed() int64 { return n.partialsServed.Load() }

// PartialRPCsSent returns how many batched partials round trips this
// node has issued while scatter-gathering.
func (n *Node) PartialRPCsSent() int64 { return n.partialsSent.Load() }

func (n *Node) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, SnapshotResponse{Node: n.id, Agent: n.pool.Agent().Snapshot()})
}

func (n *Node) handleCluster(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, n.Status())
}

// DataVersion returns the node's live data version: 1 after the bulk
// load, advanced by every applied ingest batch (including WAL replay).
func (n *Node) DataVersion() int64 { return n.version.Load() }

// cacheVersion is the answer cache's freshness stamp: the highest
// fully-absorbed local data version (advanced once a batch this node
// applies has also reached the agent's models) plus the ingest epoch
// (advanced by every batch it forwards elsewhere). Both only grow, so
// the sum strictly increases on every write this node observes;
// writes it cannot observe are bounded by the cache TTL.
func (n *Node) cacheVersion() int64 {
	return n.absorbedVer.Load() + n.ingestEpoch.Load()
}

// publishAbsorbed raises absorbedVer to ver (monotone max: batches of
// different partitions absorb concurrently and may finish out of
// order).
func (n *Node) publishAbsorbed(ver int64) {
	for {
		cur := n.absorbedVer.Load()
		if ver <= cur || n.absorbedVer.CompareAndSwap(cur, ver) {
			return
		}
	}
}

// Partitions returns the cluster's data-partition count.
func (n *Node) Partitions() int { return n.cfg.Partitions }

// PartitionOwners returns partition p's ring owners (primary first)
// under the current membership view.
func (n *Node) PartitionOwners(p int) []string {
	return n.members().ring.Owners(partKey(p), n.cfg.Replicas)
}

// PartLastSeq returns partition p's last applied ingest sequence (0 if
// nothing was ingested or the node does not hold p).
func (n *Node) PartLastSeq(p int) uint64 {
	if pt := n.livePart(p); pt != nil {
		return pt.seq()
	}
	return 0
}

// PartialState evaluates q's mergeable aggregate state over the node's
// local copy of partition p — the bit-exact comparison hook the
// recovery experiments use to prove a replayed replica equals a
// never-killed one. It runs the same (vectorized when available) kernel
// as the serving path, so two replicas holding identical rows produce
// identical states.
func (n *Node) PartialState(p int, q query.Query) ([]float64, bool) {
	partial, _, _, ok := n.localPartial(p, q)
	return partial, ok
}

// Status reports the node's cluster view: membership with liveness,
// partitions held, and serving health.
func (n *Node) Status() ClusterStatus {
	ms := n.members()
	st := ClusterStatus{
		Node:            n.id,
		Epoch:           ms.view.Epoch,
		Replicas:        n.cfg.Replicas,
		PartitionsTotal: n.cfg.Partitions,
		Agent:           n.pool.Agent().Stats(),
		Serving:         n.pool.Recorder().Snapshot(),
	}
	for _, id := range ms.ring.Nodes() {
		url := ms.urls[id]
		m := MemberStatus{ID: id, URL: url, Self: id == n.id, Alive: true}
		if !m.Self {
			m.Alive = n.health.state(url) != peerOpen
		}
		st.Members = append(st.Members, m)
	}
	for _, pt := range n.liveParts() {
		view, _, _ := pt.snapshot()
		st.PartitionsHeld = append(st.PartitionsHeld, pt.id)
		st.RowsHeld += int64(view.Len())
	}
	return st
}

// WarmFrom imports a peer's agent snapshot (GET /v1/snapshot), the
// model-shipping warm-up path for new or recovering replicas: the node
// predicts immediately instead of re-paying its training queries. It
// returns the shipped snapshot size in bytes.
func (n *Node) WarmFrom(peerURL string) (int64, error) {
	var snap SnapshotResponse
	rep, err := n.call(context.Background(), http.MethodGet, peerURL+"/v1/snapshot", envelope{}, nil, &snap)
	if err != nil {
		return 0, fmt.Errorf("dist: warm from %s: %w", peerURL, err)
	}
	if snap.Agent != nil {
		if err := n.pool.Agent().Restore(snap.Agent); err != nil {
			return rep.bytes, fmt.Errorf("dist: warm agent from %s: %w", peerURL, err)
		}
	}
	return rep.bytes, nil
}
