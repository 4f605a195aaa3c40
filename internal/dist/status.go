package dist

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
)

// StatusSchemaVersion versions the /v1/status and /v1/debug/cluster
// JSON shapes. Bump it when a field is removed or renamed — additions
// are backward compatible — and keep the golden-keys schema test in
// sync, so dashboards break loudly in CI instead of silently in prod.
const StatusSchemaVersion = 2

// PartitionStatus is one held partition's replication view.
type PartitionStatus struct {
	Part int `json:"part"`
	// Role is "primary" when this node is the partition's first ring
	// owner (the member that assigns ingest sequence numbers),
	// "replica" otherwise.
	Role   string   `json:"role"`
	Owners []string `json:"owners"`
	Rows   int      `json:"rows"`
	// LastSeq is the last ingest sequence applied locally. On the
	// primary this is also the last assigned sequence; a replica's
	// shortfall against the primary is its replication lag.
	LastSeq     uint64 `json:"last_seq"`
	WALSegments int    `json:"wal_segments"`
}

// RingStatus is the node's view of cluster membership.
type RingStatus struct {
	// Digest fingerprints the membership + vnode layout; all members
	// of a healthy cluster report the same digest.
	Digest string `json:"digest"`
	// Epoch is the membership view version this ring was derived from;
	// members of a converged cluster report the same epoch.
	Epoch   int64          `json:"epoch"`
	VNodes  int            `json:"vnodes"`
	Members []MemberStatus `json:"members"`
}

// AntiEntropyStatus summarises the replica-repair loop.
type AntiEntropyStatus struct {
	Enabled   bool  `json:"enabled"`
	Ticks     int64 `json:"ticks"`
	Checked   int64 `json:"checked"`
	Divergent int64 `json:"divergent"`
	Repairs   int64 `json:"repairs"`
}

// CacheStatus summarises the versioned answer cache.
type CacheStatus struct {
	Enabled bool    `json:"enabled"`
	Size    int     `json:"size"`
	Hits    int64   `json:"hits"`
	HitRate float64 `json:"hit_rate"`
}

// SchedStatus summarises admission control.
type SchedStatus struct {
	QueueDepth int `json:"queue_depth"`
	// Classes carries per-tenant-class admission counters and latency
	// quantiles (Inflight doubles as the per-class queue depth).
	Classes map[string]metrics.TenantSnap `json:"classes,omitempty"`
}

// DriftStatus summarises incremental-maintenance state.
type DriftStatus struct {
	ProbationQuanta int   `json:"probation_quanta"`
	Invalidations   int64 `json:"invalidations"`
	Rebuilds        int64 `json:"rebuilds"`
}

// AuditStatus summarises the continuous accuracy audit.
type AuditStatus struct {
	Samples int64   `json:"samples"`
	MAPE    float64 `json:"mape"`
}

// ResilienceStatus summarises the node's RPC hardening layer: per-peer
// circuit-breaker states, the retry/hedge/degradation counters, and
// whether chaos fault injection is armed.
type ResilienceStatus struct {
	// Breakers maps peer base URL -> circuit state ("closed",
	// "half-open", "open"); peers this node never called are absent.
	Breakers map[string]string `json:"breakers,omitempty"`
	// WorstBreaker is the worst state across peers (0 closed,
	// 1 half-open, 2 open) — the sea_breaker_state gauge.
	WorstBreaker    int   `json:"worst_breaker"`
	RPCRetries      int64 `json:"rpc_retries"`
	Hedges          int64 `json:"hedges"`
	DegradedAnswers int64 `json:"degraded_answers"`
	// ChaosEnabled reports whether fault-injection rules are armed
	// (POST /v1/debug/chaos).
	ChaosEnabled bool `json:"chaos_enabled"`
}

// NodeStatus is the versioned introspection snapshot behind
// GET /v1/status: everything an operator (or the cluster aggregator)
// needs to judge one member's health at a glance.
type NodeStatus struct {
	SchemaVersion   int                     `json:"schema_version"`
	Node            string                  `json:"node"`
	UptimeMS        int64                   `json:"uptime_ms"`
	Ring            RingStatus              `json:"ring"`
	Partitions      []PartitionStatus       `json:"partitions"`
	RowsHeld        int64                   `json:"rows_held"`
	DataVersion     int64                   `json:"data_version"`
	AbsorbedVersion int64                   `json:"absorbed_version"`
	IngestEpoch     int64                   `json:"ingest_epoch"`
	Drift           DriftStatus             `json:"drift"`
	Cache           CacheStatus             `json:"cache"`
	Sched           SchedStatus             `json:"sched"`
	Audit           AuditStatus             `json:"audit"`
	SLO             []metrics.SLOClassState `json:"slo,omitempty"`
	Resilience      ResilienceStatus        `json:"resilience"`
	AntiEntropy     AntiEntropyStatus       `json:"antientropy"`
	Rebalance       RebalanceStatus         `json:"rebalance"`
	Runtime         obs.RuntimeSnap         `json:"runtime"`
	Flight          *flight.Status          `json:"flight,omitempty"`
}

// NodeStatus builds the node's introspection snapshot.
func (n *Node) NodeStatus() NodeStatus {
	rec := n.pool.Recorder()
	snap := rec.Snapshot()
	st := NodeStatus{
		SchemaVersion:   StatusSchemaVersion,
		Node:            n.id,
		UptimeMS:        time.Since(n.started).Milliseconds(),
		DataVersion:     n.DataVersion(),
		AbsorbedVersion: n.absorbedVer.Load(),
		IngestEpoch:     n.ingestEpoch.Load(),
	}

	ms := n.members()
	st.Ring = RingStatus{Digest: ms.ring.Digest(), Epoch: ms.view.Epoch, VNodes: ms.ring.VNodes()}
	for _, id := range ms.ring.Nodes() {
		url := ms.urls[id]
		m := MemberStatus{ID: id, URL: url, Self: id == n.id, Alive: true}
		if !m.Self {
			m.Alive = n.health.state(url) != peerOpen
		}
		st.Ring.Members = append(st.Ring.Members, m)
	}

	for _, pt := range n.liveParts() {
		view, _, lastSeq := pt.snapshot()
		owners := ms.ring.Owners(partKey(pt.id), n.cfg.Replicas)
		ps := PartitionStatus{
			Part:    pt.id,
			Role:    "replica",
			Owners:  owners,
			Rows:    view.Len(),
			LastSeq: lastSeq,
		}
		if len(owners) > 0 && owners[0] == n.id {
			ps.Role = "primary"
		}
		ps.WALSegments = pt.walSegments()
		st.RowsHeld += int64(ps.Rows)
		st.Partitions = append(st.Partitions, ps)
	}

	st.Drift = DriftStatus{
		ProbationQuanta: n.pool.Agent().ProbationQuanta(),
		Invalidations:   snap.DriftInvalidations,
		Rebuilds:        snap.Rebuilds,
	}

	if c := n.pool.Cache(); c != nil {
		st.Cache = CacheStatus{Enabled: true, Size: c.Len(), Hits: snap.CacheHits}
		if snap.Queries > 0 {
			st.Cache.HitRate = float64(snap.CacheHits) / float64(snap.Queries)
		}
	}

	st.Sched = SchedStatus{QueueDepth: n.sched.QueueDepth(), Classes: snap.Tenants}

	mape, samples := rec.Audit().MAPE("")
	st.Audit = AuditStatus{Samples: samples, MAPE: mape}

	st.SLO = n.plane.SLO.States()

	breakers, worst := n.health.snapshot()
	st.Resilience = ResilienceStatus{
		Breakers:        breakers,
		WorstBreaker:    worst,
		RPCRetries:      snap.RPCRetries,
		Hedges:          snap.Hedges,
		DegradedAnswers: snap.DegradedAnswers,
		ChaosEnabled:    n.fault.Enabled(),
	}

	ae := n.AntiEntropyCountersSnapshot()
	st.AntiEntropy = AntiEntropyStatus{
		Enabled:   n.aeArmed.Load(),
		Ticks:     ae.Ticks,
		Checked:   ae.Checked,
		Divergent: ae.Divergent,
		Repairs:   ae.Repairs,
	}
	st.Rebalance = n.RebalanceStatus()

	st.Runtime = n.plane.Runtime()
	st.Runtime.KernelTier = query.KernelTier()

	if fr := n.plane.Flight; fr != nil {
		fs := fr.Status()
		st.Flight = &fs
	}
	return st
}

func (n *Node) handleStatus(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, n.NodeStatus())
}

// NodeReport is one member's slot in a ClusterReport.
type NodeReport struct {
	ID        string      `json:"id"`
	URL       string      `json:"url,omitempty"`
	Reachable bool        `json:"reachable"`
	Error     string      `json:"error,omitempty"`
	Status    *NodeStatus `json:"status,omitempty"`
}

// Finding is one cross-check verdict from the cluster aggregator.
type Finding struct {
	// Severity is "warn" or "critical".
	Severity string `json:"severity"`
	// Kind classifies the check: "unreachable", "ring_divergence",
	// "epoch_divergence", "replication_lag", "slo_burn",
	// "antientropy_repair" or "antientropy_divergence".
	Kind string `json:"kind"`
	Node string `json:"node,omitempty"`
	Part int    `json:"part,omitempty"`
	// Lag is the replication shortfall in ingest sequences (batches)
	// for replication_lag findings.
	Lag    uint64 `json:"lag,omitempty"`
	Detail string `json:"detail"`
}

// ClusterReport is the stitched cluster view behind
// GET /v1/debug/cluster: every member's status snapshot plus the
// aggregator's cross-check findings. Healthy means no critical
// finding.
type ClusterReport struct {
	SchemaVersion int          `json:"schema_version"`
	Coordinator   string       `json:"coordinator"`
	Healthy       bool         `json:"healthy"`
	Nodes         []NodeReport `json:"nodes"`
	Findings      []Finding    `json:"findings"`
	TookMS        int64        `json:"took_ms"`
}

// ClusterReport fans out GET /v1/status to every ring member
// (answering for itself locally), stitches the snapshots, and
// cross-checks them for divergent ring views, replication lag past the
// configured threshold, unreachable members and burning SLOs.
func (n *Node) ClusterReport() ClusterReport {
	start := time.Now()
	ms := n.members()
	ids := ms.ring.Nodes()
	reports := make([]NodeReport, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		if id == n.id {
			st := n.NodeStatus()
			reports[i] = NodeReport{ID: id, URL: ms.urls[id], Reachable: true, Status: &st}
			continue
		}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			reports[i] = n.fetchStatus(id)
		}(i, id)
	}
	wg.Wait()

	rep := ClusterReport{
		SchemaVersion: StatusSchemaVersion,
		Coordinator:   n.id,
		Nodes:         reports,
		Findings:      []Finding{},
	}
	rep.Findings = append(rep.Findings, crossCheck(n.id, reports, n.cfg.LagThreshold)...)
	rep.Healthy = true
	for _, f := range rep.Findings {
		if f.Severity == "critical" {
			rep.Healthy = false
			break
		}
	}
	rep.TookMS = time.Since(start).Milliseconds()
	return rep
}

// fetchStatus pulls one peer's /v1/status snapshot.
func (n *Node) fetchStatus(id string) NodeReport {
	url, ok := n.members().urls[id]
	if !ok || url == "" {
		return NodeReport{ID: id, Error: "no peer URL"}
	}
	rep := NodeReport{ID: id, URL: url}
	var st NodeStatus
	if _, err := n.call(context.Background(), http.MethodGet, url+"/v1/status", envelope{}, nil, &st); err != nil {
		rep.Error = err.Error()
		return rep
	}
	rep.Reachable = true
	rep.Status = &st
	return rep
}

// crossCheck derives health findings from the stitched member
// snapshots. lagThreshold is the replication shortfall (in ingest
// sequences) at which a lagging replica escalates from warn to
// critical; zero means any lag is critical.
func crossCheck(coord string, reports []NodeReport, lagThreshold uint64) []Finding {
	var findings []Finding

	// Unreachable members are critical: their partitions may be
	// lagging invisibly and their ring view is unknown.
	for _, r := range reports {
		if !r.Reachable {
			findings = append(findings, Finding{
				Severity: "critical",
				Kind:     "unreachable",
				Node:     r.ID,
				Detail:   fmt.Sprintf("node %s unreachable: %s", r.ID, r.Error),
			})
		}
	}

	// Ring agreement: every reachable member must report the
	// coordinator's digest, or key placement is diverging. A member on
	// an OLDER membership epoch is a softer signal — it gets the warn
	// epoch_divergence (stragglers converge via epoch stamps) and the
	// digest check is skipped for it, so a mid-propagation view change
	// does not masquerade as placement corruption.
	var coordDigest string
	var coordEpoch int64
	for _, r := range reports {
		if r.ID == coord && r.Status != nil {
			coordDigest = r.Status.Ring.Digest
			coordEpoch = r.Status.Ring.Epoch
		}
	}
	for _, r := range reports {
		if r.Status == nil || r.ID == coord {
			continue
		}
		if e := r.Status.Ring.Epoch; e != coordEpoch {
			findings = append(findings, Finding{
				Severity: "warn",
				Kind:     "epoch_divergence",
				Node:     r.ID,
				Detail: fmt.Sprintf("node %s membership epoch %d != coordinator %s (%d)",
					r.ID, e, coord, coordEpoch),
			})
			continue
		}
		if d := r.Status.Ring.Digest; coordDigest != "" && d != coordDigest {
			findings = append(findings, Finding{
				Severity: "critical",
				Kind:     "ring_divergence",
				Node:     r.ID,
				Detail: fmt.Sprintf("node %s ring digest %s != coordinator %s (%s)",
					r.ID, d, coord, coordDigest),
			})
		}
	}

	// Anti-entropy: surface repaired divergence as a warn (the system
	// healed itself, but silent corruption happened and deserves eyes);
	// divergence the loop could NOT heal is critical.
	for _, r := range reports {
		if r.Status == nil {
			continue
		}
		ae := r.Status.AntiEntropy
		if ae.Divergent > ae.Repairs {
			findings = append(findings, Finding{
				Severity: "critical",
				Kind:     "antientropy_divergence",
				Node:     r.ID,
				Detail: fmt.Sprintf("node %s: %d divergent replica(s) detected, only %d repaired",
					r.ID, ae.Divergent, ae.Repairs),
			})
		} else if ae.Repairs > 0 {
			findings = append(findings, Finding{
				Severity: "warn",
				Kind:     "antientropy_repair",
				Node:     r.ID,
				Detail: fmt.Sprintf("node %s: anti-entropy repaired %d divergent replica(s)",
					r.ID, ae.Repairs),
			})
		}
	}

	// Replication lag: for each partition, the highest applied
	// sequence across reporting holders is the reference (the primary
	// assigns sequences, so it is at or above every replica); any
	// holder short of it is lagging.
	type holder struct {
		node string
		seq  uint64
	}
	byPart := make(map[int][]holder)
	for _, r := range reports {
		if r.Status == nil {
			continue
		}
		for _, ps := range r.Status.Partitions {
			byPart[ps.Part] = append(byPart[ps.Part], holder{node: r.ID, seq: ps.LastSeq})
		}
	}
	parts := make([]int, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		hs := byPart[p]
		var ref uint64
		for _, h := range hs {
			if h.seq > ref {
				ref = h.seq
			}
		}
		for _, h := range hs {
			if h.seq >= ref {
				continue
			}
			lag := ref - h.seq
			sev := "warn"
			if lag >= lagThreshold {
				sev = "critical"
			}
			findings = append(findings, Finding{
				Severity: sev,
				Kind:     "replication_lag",
				Node:     h.node,
				Part:     p,
				Lag:      lag,
				Detail: fmt.Sprintf("node %s partition %d applied seq %d, %d behind seq %d",
					h.node, p, h.seq, lag, ref),
			})
		}
	}

	// SLO burn: surface every non-ok class per node.
	for _, r := range reports {
		if r.Status == nil {
			continue
		}
		for _, st := range r.Status.SLO {
			if st.State == "ok" {
				continue
			}
			sev := "warn"
			if st.State == "critical" {
				sev = "critical"
			}
			findings = append(findings, Finding{
				Severity: sev,
				Kind:     "slo_burn",
				Node:     r.ID,
				Detail: fmt.Sprintf("node %s class %q %s: burn fast=%.2f slow=%.2f",
					r.ID, st.Class, st.State, st.FastBurn, st.SlowBurn),
			})
		}
	}
	return findings
}

func (n *Node) handleDebugCluster(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, n.ClusterReport())
}
