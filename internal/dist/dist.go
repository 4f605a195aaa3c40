// Package dist is the distributed serving cluster: a process-level,
// HTTP/JSON node-to-node scale-out of the concurrent serving layer
// (internal/serve). It turns the repo from "a concurrent server" into
// "a cluster" (Fig. 3: SEA agents at core and edge nodes):
//
//   - A consistent-hash Ring partitions both the query space (by the
//     canonical query key from serve.Key) and the data partitions
//     ("part:<i>" keys) across N nodes with R-way replication.
//
//   - Each Node holds the data partitions the ring assigns it and runs
//     one agent in front of them (serve.Pool + serve.Scheduler), so
//     model predictions are node-local and the serving capacity scales
//     with the node count.
//
//   - Queries that need the exact path span shards: the owning node
//     scatter-gathers per-partition aggregate states from the partition
//     holders and merges them with the distributable kernels in
//     internal/query (COUNT/SUM merge exactly; AVG/VAR/CORR merge from
//     per-shard moments).
//
//   - Replica failover: clients and forwarding nodes try a key's ring
//     owners in order, skipping peers their per-peer health tracker holds
//     open (a refused connection, or timeouts at a sustained rate); after
//     the cooldown one real call is admitted as the probe that closes or
//     re-opens the peer. The scatter path does the same per data
//     partition, so one dead node is masked by its replicas with no
//     client-visible errors.
//
//   - Model shipping: a new or recovering replica warms up by importing
//     a peer's agent snapshot (core.AgentSnapshot over GET /v1/snapshot)
//     instead of re-paying its training queries — the real-system
//     analogue of internal/polystore's ship-model strategy.
//
// Node-to-node API (JSON bodies; the cross-cutting fields ride in the
// envelope headers of envelope.go — X-Sea-Epoch on every request and
// response, X-Sea-Deadline (Unix ms), X-Sea-Trace and the
// X-Sea-Forwarded hop count):
//
//	POST /v1/query     client-facing query; non-owners forward to owners
//	POST /v1/ingest    client-facing row batches (replicated, quorum-
//	                   acked, WAL-durable live write path)
//	POST /v1/replicate primary-to-replica sequenced batch shipping
//	POST /v1/walfetch  log-tail fetch for recovering replicas
//	POST /v1/partials  batched per-partition aggregate states for
//	                   scatter-gather (one round trip per holder)
//	GET  /v1/snapshot  the agent's snapshot for model shipping
//	GET  /v1/cluster   membership, partitions held, serving health
//	GET  /v1/membership  the node's current membership view (epoch +
//	                   members); POST installs a newer view (gossip)
//	POST /v1/join      add a member: recompute placement, stage moving
//	                   partitions on their gainers, cut the epoch over
//	POST /v1/leave     retire a member gracefully (drain + rebalance)
//	POST /v1/migrate   coordinator→gainer: stage listed partitions from
//	                   donor holders (snapshot + WAL-tail catch-up)
//	POST /v1/partsnap  one partition's full row snapshot for staging
//	POST /v1/digest    per-partition Merkle-style content digest for
//	                   anti-entropy comparison
//	GET  /v1/status    versioned introspection snapshot: ring view,
//	                   per-partition replication lag, drift, cache,
//	                   scheduler, audit and SLO state
//	GET  /v1/debug/cluster  fans out /v1/status to every member and
//	                   cross-checks the snapshots into health findings
//	GET  /v1/history   flight-recorder metric replay (?metric=&window=)
//	GET  /v1/debug/bundles  triggered diagnostic-bundle spool listing;
//	                   /v1/debug/bundle/{id}/{file} fetches one member
//	GET  /v1/metrics   Prometheus text exposition
//	GET  /healthz      liveness (boot and join readiness)
//
// cmd/seaserve exposes a node via -node-id/-peers/-replicas.
package dist

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Defaults for Config's zero values.
const (
	DefaultReplicas = 2
	DefaultTimeout  = 2 * time.Second
	DefaultCooldown = 2 * time.Second
	// DefaultAnswerCache is the per-node answer-cache capacity.
	DefaultAnswerCache = 4096
	// DefaultAnswerCacheTTL bounds a cached answer's age. The version
	// stamp invalidates instantly for every write this node observes
	// (applied or forwarded ingest); the TTL bounds staleness for
	// writes that land entirely on other members.
	DefaultAnswerCacheTTL = 500 * time.Millisecond
	// DefaultGatherFanout bounds the scatter-gather worker pool: at most
	// this many concurrent local partition evaluations and per-holder
	// batched partial RPCs per query.
	DefaultGatherFanout = 8
	// DefaultRetryBudget is the per-query RPC retry allowance.
	DefaultRetryBudget = 3
	// DefaultRetryBackoff is the base delay before the first retry; each
	// later retry doubles it (jittered, clamped to the deadline).
	DefaultRetryBackoff = 10 * time.Millisecond
	// DefaultHedgeQuantile is the partials-latency quantile after which
	// a scatter RPC is hedged to a second holder.
	DefaultHedgeQuantile = 0.95
	// walFetchMaxDefault caps how many WAL entries one /v1/walfetch
	// response carries when the request does not bound the batch
	// itself; callers loop on Truncated.
	walFetchMaxDefault = 512
)

// ErrAllReplicasFailed is returned when every ring owner of a key (or
// every holder of a data partition) is unreachable.
var ErrAllReplicasFailed = errors.New("dist: all replicas failed")

// Config describes one cluster node.
type Config struct {
	// ID is this node's unique member id (e.g. "n0").
	ID string
	// Peers maps every member id (including this node's) to its base
	// URL, e.g. "n1" -> "http://10.0.0.2:8080". All members must share
	// the same map so their rings agree.
	Peers map[string]string
	// Replicas is the R-way replication factor for both query ownership
	// and data partitions (default DefaultReplicas, or the member count
	// when that is smaller, so a lone member is its own quorum).
	Replicas int
	// Partitions is the data-partition count (default 2x members).
	Partitions int
	// VNodes is the ring's virtual-node count per member (default
	// DefaultVNodes).
	VNodes int
	// Agents must be 0 or 1: a node runs one agent, and NewNode rejects
	// more. The field stays only because the benchmark harness sets it
	// (bench/trace.go:436, Agents: 1).
	Agents int
	// Agent configures the node's agent (zero value takes
	// core.DefaultConfig for 2 dims).
	Agent core.Config
	// Workers/QueueDepth/TenantInflight size the node's scheduler (zero
	// values take serve's defaults; TenantInflight < 0 disables).
	Workers        int
	QueueDepth     int
	TenantInflight int
	// DataDir, when set, enables WAL durability for the live write
	// path: every owned data partition appends its sequenced ingest
	// batches to a write-ahead log under DataDir/part-<i>, and Load
	// replays those segments on restart so acknowledged writes survive
	// a crash. Empty disables durability (ingest is memory-only).
	DataDir string
	// WriteQuorum is how many ring owners must apply an ingest batch
	// before it is acknowledged (default: a majority of Replicas;
	// clamped to [1, Replicas]).
	WriteQuorum int
	// AnswerCache sizes the node's versioned answer cache (entries):
	// answered queries are cached by canonical key and data version, so
	// repeated queries are served without touching the agent, and every
	// applied ingest batch invalidates affected entries through the
	// version stamp. 0 takes DefaultAnswerCache; negative disables.
	AnswerCache int
	// RequantCheck, when positive, runs a background drift maintainer
	// per pooled agent: recently served queries are recorded, and when
	// ingest pressure outgrows the incremental maintenance path
	// (unattributed drift or sustained invalidations) the agent is
	// re-quantised in the background and swapped in without blocking
	// reads. Zero disables background re-quantisation.
	RequantCheck time.Duration
	// Timeout bounds each node-to-node HTTP call (default
	// DefaultTimeout).
	Timeout time.Duration
	// Cooldown is how long an open peer — one that refused a
	// connection, or timed out too often — is skipped before one real
	// call is admitted as its probe (default DefaultCooldown).
	Cooldown time.Duration
	// TraceSample is the background trace-sampling fraction: roughly
	// this share of served queries records a full span tree into the
	// node's trace ring (GET /v1/debug/trace/<id>). 0 disables
	// background sampling; ?trace=1 requests are always traced.
	TraceSample float64
	// TraceRing bounds how many finished traces the node retains
	// (default trace.DefaultRing).
	TraceRing int
	// SlowQuery, when positive, logs every query slower than this
	// threshold into the slow-query ring (GET /v1/debug/slow).
	SlowQuery time.Duration
	// AuditSample is the shadow-audit fraction: roughly this share of
	// model-served answers is re-evaluated exactly in the background and
	// the predicted-vs-truth relative error recorded into the accuracy
	// audit histograms. 0 disables shadow auditing (exact-fallback
	// audits are always on — they are free).
	AuditSample float64
	// Logger, when set, receives the node's structured JSON log lines
	// (replication healing, catch-up, forward failovers, slow queries).
	// Nil keeps the node silent — every logging site is nil-safe and
	// costs one pointer compare.
	Logger *obs.Logger
	// SLO, when set, runs a per-tenant-class burn-rate engine over the
	// node's latency/admission histograms; states are exported on
	// /v1/metrics and surfaced in /v1/status. Nil disables.
	SLO *metrics.SLOConfig
	// RuntimeSample, when positive, runs the background runtime
	// telemetry sampler at this period. Zero still registers the
	// runtime gauges but samples only on demand (status requests).
	RuntimeSample time.Duration
	// LagThreshold is the replication shortfall (in ingest sequences)
	// at which the cluster aggregator escalates a lagging replica from
	// warn to critical (default 1: any lag is critical).
	LagThreshold uint64
	// Pprof mounts net/http/pprof profiling handlers on the node's mux
	// under /debug/pprof/ (off by default: profiling endpoints on a
	// data port are an operator opt-in).
	Pprof bool
	// Flight enables the flight recorder: per-series metric history
	// rings (GET /v1/history), anomaly detection over watched series,
	// and triggered diagnostic bundles (GET /v1/debug/bundles).
	Flight bool
	// FlightSample is the hi-res sampling period (0 defaults to 1s).
	// Negative leaves the background sampler unstarted so tests and
	// experiments drive flight ticks from a synthetic clock.
	FlightSample time.Duration
	// FlightSpool overrides the diagnostic-bundle spool root (default:
	// DataDir/flight, or the OS temp dir without a DataDir). Each
	// member spools under its own node-id subdirectory.
	FlightSpool string
	// Anomaly arms the flight recorder's robust z-score detector.
	Anomaly bool
	// RetryBudget is how many retry attempts (beyond the first try of
	// each candidate) one query's RPC layer may spend across all of its
	// scatter/failover calls, with exponential backoff + jitter between
	// attempts. 0 takes DefaultRetryBudget; negative disables retries.
	RetryBudget int
	// HedgeQuantile picks the scatter hedging delay: when a batched
	// /v1/partials RPC is still unanswered after this quantile of the
	// node's observed partials latency, a second copy is fired at the
	// next replica holder and the first answer wins. 0 takes
	// DefaultHedgeQuantile; negative disables hedging.
	HedgeQuantile float64
	// BreakerFailureRate is the share of timed-out calls, over at least
	// 8 in a 10 s window, that opens a peer (default 0.5). Negative
	// turns this rate rule off; a refused connection still opens a peer.
	BreakerFailureRate float64
	// InitialView, when set, is the membership view the node boots
	// with instead of deriving an epoch-1 view from Peers. A joiner
	// fetches a live member's view (FetchMembership) and passes it
	// here, so it boots already knowing the pre-join cluster and the
	// shared partition count.
	InitialView *View
	// AntiEntropy, when positive, runs the background replica-repair
	// loop at this cadence: each tick the node digests the partitions
	// it replicates, compares against the partition primary, and heals
	// any divergence via snapshot ship + WAL-tail catch-up. Negative
	// arms the machinery without the background loop (tests drive
	// AntiEntropyTick manually). Zero disarms it entirely — a tick is
	// then a single atomic load, which is the zero-allocation guarantee
	// the CI bench grep pins.
	AntiEntropy time.Duration
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		members := len(c.Peers)
		if c.InitialView != nil {
			members = len(c.InitialView.Members)
		}
		c.Replicas = max(1, min(DefaultReplicas, members))
	}
	if c.Partitions <= 0 {
		c.Partitions = 2 * len(c.Peers)
		if c.Partitions == 0 {
			c.Partitions = 2
		}
	}
	if c.Agent.Dims < 1 {
		c.Agent = core.DefaultConfig(2)
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.WriteQuorum <= 0 {
		c.WriteQuorum = c.Replicas/2 + 1
	}
	if c.WriteQuorum > c.Replicas {
		c.WriteQuorum = c.Replicas
	}
	if c.AnswerCache == 0 {
		c.AnswerCache = DefaultAnswerCache
	}
	if c.LagThreshold == 0 {
		c.LagThreshold = 1
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = DefaultRetryBudget
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = DefaultHedgeQuantile
	}
	return c
}

// newHTTPClient builds the node-to-node/client HTTP client: generous
// per-host connection pooling (the default of 2 idle conns per host
// forces a TCP handshake on most requests under concurrent serving;
// MaxIdleConnsPerHost comfortably exceeds any sane replication factor),
// TCP keep-alives, and explicit dial/response-header deadlines so a
// wedged peer costs at most the configured timeout instead of hanging a
// scatter worker.
// The transport is wrapped with the node's chaos fault interceptor:
// with no rules armed the wrapper costs one atomic load per request.
func newHTTPClient(timeout time.Duration, fault *chaos.Fault) *http.Client {
	dialer := &net.Dialer{
		Timeout:   timeout,
		KeepAlive: 30 * time.Second,
	}
	var rt http.RoundTripper = &http.Transport{
		DialContext:           dialer.DialContext,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: timeout,
		ExpectContinueTimeout: time.Second,
	}
	if fault != nil {
		rt = &chaos.Transport{Base: rt, F: fault}
	}
	return &http.Client{Timeout: timeout, Transport: rt}
}

// partKey is the ring key for data partition p.
func partKey(p int) string { return "part:" + strconv.Itoa(p) }

// queryToWire converts an internal query to the serving wire form
// (the inverse of serve.QueryRequest.Query).
func queryToWire(q query.Query, tenant string) serve.QueryRequest {
	req := serve.QueryRequest{
		Tenant: tenant,
		Agg:    q.Aggregate.String(), // ParseAgg lowercases, so String() round-trips
		Col:    q.Col,
		Col2:   q.Col2,
	}
	if q.Select.IsRadius() {
		req.Center, req.Radius = q.Select.Center, q.Select.Radius
	} else {
		req.Los, req.His = q.Select.Los, q.Select.His
	}
	if !q.Deadline.IsZero() {
		req.DeadlineMS = q.Deadline.UnixMilli()
	}
	return req
}

// costFromJSON rebuilds the virtual cost from its wire form.
func costFromJSON(c serve.CostJSON) metrics.Cost {
	return metrics.Cost{
		Time:         time.Duration(c.TimeNS),
		CPUTime:      time.Duration(c.CPUNS),
		RowsRead:     c.RowsRead,
		BytesLAN:     c.BytesLAN,
		NodesTouched: c.Nodes,
	}
}

// QueryResponse is the cluster's answer wire form: the serving layer's
// response plus which node answered it.
type QueryResponse struct {
	serve.QueryResponse
	// Node is the member that produced the answer.
	Node string `json:"node"`
}

// Answer converts the wire response to the agent's answer type.
func (r QueryResponse) Answer() core.Answer {
	return core.Answer{
		Value:     r.Value,
		Predicted: r.Predicted,
		EstError:  r.EstError,
		Quantum:   r.Quantum,
		FreshRows: r.StaleRows,
		Cost:      costFromJSON(r.Cost),
		Degraded:  r.Degraded,
		Coverage:  r.Coverage,
	}
}

// PartialsRequest asks a holder for its local aggregate states (see
// query.PartialEval) of many data partitions in one round trip.
// Grouping a query's missing partitions per holder turns the exact
// fallback's fan-out from one RPC per partition into one RPC per
// holder.
type PartialsRequest struct {
	Parts []int              `json:"parts"`
	Query serve.QueryRequest `json:"query"`
}

// PartPartial is one partition's outcome within a batched partials
// response. A holder that does not hold the partition reports it in
// Error instead of failing the whole batch, so the caller re-batches
// just the leftovers to the next replica.
type PartPartial struct {
	Part    int       `json:"part"`
	Partial []float64 `json:"partial,omitempty"`
	Rows    int64     `json:"rows"`
	Error   string    `json:"error,omitempty"`
}

// PartialsResponse carries the per-partition aggregate states of one
// batched POST /v1/partials round trip.
type PartialsResponse struct {
	Node     string        `json:"node"`
	Partials []PartPartial `json:"partials"`
	// Spans is the holder's span tree for this batch (only when the
	// request asked for a trace); the gatherer grafts it under its
	// partial_rpc span.
	Spans []trace.WireSpan `json:"spans,omitempty"`
}

// SnapshotResponse ships a node's agent state for replica warm-up.
type SnapshotResponse struct {
	Node  string              `json:"node"`
	Agent *core.AgentSnapshot `json:"agent"`
}

// MemberStatus is one member's view in ClusterStatus.
type MemberStatus struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Self bool   `json:"self"`
	// Alive is false while this member's peer tracker holds the
	// member open; reading it changes nothing.
	Alive bool `json:"alive"`
}

// ClusterStatus is the GET /v1/cluster body.
type ClusterStatus struct {
	Node            string                `json:"node"`
	Epoch           int64                 `json:"epoch"`
	Replicas        int                   `json:"replicas"`
	Members         []MemberStatus        `json:"members"`
	PartitionsHeld  []int                 `json:"partitions_held"`
	PartitionsTotal int                   `json:"partitions_total"`
	RowsHeld        int64                 `json:"rows_held"`
	Agent           core.Stats            `json:"agent"`
	Serving         metrics.ServeSnapshot `json:"serving"`
}

func errAllReplicas(what string, last error) error {
	if last == nil {
		return fmt.Errorf("%w: %s", ErrAllReplicasFailed, what)
	}
	return fmt.Errorf("%w: %s: last error: %v", ErrAllReplicasFailed, what, last)
}

// WireRow is one ingested record on the wire.
type WireRow struct {
	Key uint64    `json:"key"`
	Vec []float64 `json:"vec"`
}

// IngestRequest is the POST /v1/ingest body: a batch of rows to append
// through the replicated write path. Rows are routed to their
// partitions by key hash; each partition's batch is sequenced by the
// partition's primary and replicated to the ring owners.
type IngestRequest struct {
	Rows []WireRow `json:"rows"`
	// IdemKey is a client-chosen idempotency key for the batch: a
	// primary remembers recently applied (key, partition) outcomes and
	// replays the stored result instead of re-applying the rows, so a
	// client retrying a broken connection cannot double-ingest. Empty
	// disables deduplication.
	IdemKey string `json:"idem_key,omitempty"`
	// DeadlineMS propagates the client's absolute deadline (Unix
	// milliseconds; 0 = none).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// PartIngestResult is one partition's outcome within an ingest batch.
type PartIngestResult struct {
	Part int `json:"part"`
	Rows int `json:"rows"`
	// Acked reports whether the write quorum was reached. An unacked
	// batch may still have been applied by a subset of the owners;
	// callers must treat it as lost-or-present, never as absent.
	Acked bool   `json:"acked"`
	Seq   uint64 `json:"seq,omitempty"`
	Error string `json:"error,omitempty"`
}

// IngestResponse summarises an ingest batch: per-partition quorum
// results plus the answering node's data version after apply.
type IngestResponse struct {
	Node       string             `json:"node"`
	AckedRows  int                `json:"acked_rows"`
	FailedRows int                `json:"failed_rows"`
	Version    int64              `json:"version"`
	Parts      []PartIngestResult `json:"parts"`
	// Spans is the write path's span tree (only when the request asked
	// for a trace). Forwarding nodes stitch the primary's spans under
	// their own forward span.
	Spans []trace.WireSpan `json:"spans,omitempty"`
}

// ReplicateRequest is the primary-to-replica POST /v1/replicate body:
// one sequenced partition batch. Replicas apply batches strictly in
// sequence order, so every holder's partition log is identical.
type ReplicateRequest struct {
	Part int       `json:"part"`
	Seq  uint64    `json:"seq"`
	Rows []WireRow `json:"rows"`
}

// ReplicateResponse reports the replica's last applied sequence.
type ReplicateResponse struct {
	LastSeq uint64 `json:"last_seq"`
}

// WALFetchRequest is the POST /v1/walfetch body: a recovering replica
// asks a peer holder for partition entries it missed (the "log tail"
// of snapshot-plus-log-replay recovery).
type WALFetchRequest struct {
	Part  int    `json:"part"`
	After uint64 `json:"after"`
	// Max bounds the entry count of one response (0 takes the server's
	// walFetchMaxDefault); callers loop while Truncated.
	Max int `json:"max,omitempty"`
}

// WALFetchEntry is one sequenced batch of a fetched log tail.
type WALFetchEntry struct {
	Seq  uint64    `json:"seq"`
	Rows []WireRow `json:"rows"`
}

// WALFetchResponse carries a partition's log tail.
type WALFetchResponse struct {
	Part    int             `json:"part"`
	LastSeq uint64          `json:"last_seq"`
	Entries []WALFetchEntry `json:"entries"`
	// Truncated reports the tail hit the per-response entry cap; the
	// caller fetches another round starting after the last entry.
	Truncated bool `json:"truncated,omitempty"`
	// Fenced reports the holder served the tail while holding the
	// partition's write lock: LastSeq cannot advance behind the
	// caller's back, so a gainer's final cutover sync is complete once
	// a fenced response at the new epoch shows no missing entries.
	// Unfenced responses (the lock was contended) are still correct
	// tails — just not a cutover guarantee.
	Fenced bool `json:"fenced,omitempty"`
	// NoWAL reports the holder has the partition in memory only (no
	// durability configured); LastSeq is still authoritative and the
	// caller falls back to a snapshot fetch for missing rows.
	NoWAL bool `json:"no_wal,omitempty"`
}

// wireToRows converts wire rows to storage rows.
func wireToRows(ws []WireRow) []storage.Row {
	out := make([]storage.Row, len(ws))
	for i, w := range ws {
		out[i] = storage.Row{Key: w.Key, Vec: w.Vec}
	}
	return out
}

// rowsToWire converts storage rows to wire rows.
func rowsToWire(rows []storage.Row) []WireRow {
	out := make([]WireRow, len(rows))
	for i, r := range rows {
		out[i] = WireRow{Key: r.Key, Vec: r.Vec}
	}
	return out
}
