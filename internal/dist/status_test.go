package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
)

// TestNodeStatusSnapshot checks the live /v1/status snapshot: every
// member reports the same ring digest, each held partition carries a
// role and a full owner set, and the runtime section is populated.
func TestNodeStatusSnapshot(t *testing.T) {
	lc, _ := liveCluster(t, 3, t.TempDir())

	var digest string
	for _, id := range lc.IDs() {
		st := lc.Node(id).NodeStatus()
		if st.SchemaVersion != StatusSchemaVersion {
			t.Fatalf("node %s: schema version %d, want %d", id, st.SchemaVersion, StatusSchemaVersion)
		}
		if st.Node != id {
			t.Fatalf("node %s reports id %q", id, st.Node)
		}
		if digest == "" {
			digest = st.Ring.Digest
		} else if st.Ring.Digest != digest {
			t.Fatalf("node %s ring digest %q != %q", id, st.Ring.Digest, digest)
		}
		if len(st.Ring.Members) != 3 {
			t.Fatalf("node %s sees %d members, want 3", id, len(st.Ring.Members))
		}
		if len(st.Partitions) == 0 || st.RowsHeld == 0 {
			t.Fatalf("node %s holds no data: %d partitions, %d rows", id, len(st.Partitions), st.RowsHeld)
		}
		for _, ps := range st.Partitions {
			if ps.Role != "primary" && ps.Role != "replica" {
				t.Fatalf("node %s partition %d: bad role %q", id, ps.Part, ps.Role)
			}
			if len(ps.Owners) != 2 {
				t.Fatalf("node %s partition %d: %d owners, want 2", id, ps.Part, len(ps.Owners))
			}
			if ps.Rows == 0 {
				t.Fatalf("node %s partition %d: zero rows held", id, ps.Part)
			}
		}
		if st.Runtime.Goroutines == 0 || st.Runtime.HeapAlloc == 0 {
			t.Fatalf("node %s: runtime section not sampled: %+v", id, st.Runtime)
		}
		if st.Runtime.KernelTier != query.KernelTier() {
			t.Fatalf("node %s: runtime.kernel_tier %q, the process scans on %q", id, st.Runtime.KernelTier, query.KernelTier())
		}
	}
}

// TestClusterReportFindings checks the aggregator's verdicts: a fully
// alive cluster yields a healthy report with every member reachable,
// and killing a member yields a critical "unreachable" finding.
func TestClusterReportFindings(t *testing.T) {
	lc, _ := liveCluster(t, 3, t.TempDir())
	coord := lc.Node(lc.IDs()[0])

	rep := coord.ClusterReport()
	if !rep.Healthy || len(rep.Findings) != 0 {
		t.Fatalf("alive cluster reported unhealthy: %+v", rep.Findings)
	}
	if len(rep.Nodes) != 3 {
		t.Fatalf("report covers %d nodes, want 3", len(rep.Nodes))
	}
	for _, nr := range rep.Nodes {
		if !nr.Reachable || nr.Status == nil {
			t.Fatalf("member %s not stitched into healthy report: %+v", nr.ID, nr)
		}
	}

	victim := lc.IDs()[2]
	lc.Kill(victim)
	rep = coord.ClusterReport()
	if rep.Healthy {
		t.Fatal("report stayed healthy with a dead member")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "unreachable" && f.Node == victim && f.Severity == "critical" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no critical unreachable finding for %s: %+v", victim, rep.Findings)
	}
}

// dataKeyedPaths are JSON object paths whose keys are data (tenant
// class names), not schema; the walker folds their children under "*".
var dataKeyedPaths = map[string]bool{"sched.classes": true}

// collectJSONKeys walks decoded JSON and records every object key as a
// dotted path; array elements contribute under "parent[]".
func collectJSONKeys(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			name := k
			if dataKeyedPaths[prefix] {
				name = "*"
			}
			p := name
			if prefix != "" {
				p = prefix + "." + name
			}
			out[p] = true
			collectJSONKeys(p, val, out)
		}
	case []any:
		if len(x) > 0 {
			collectJSONKeys(prefix+"[]", x[0], out)
		}
	}
}

func assertGoldenKeys(t *testing.T, label string, v any, want []string) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var decoded any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	gotSet := map[string]bool{}
	collectJSONKeys("", decoded, gotSet)
	got := make([]string, 0, len(gotSet))
	for k := range gotSet {
		got = append(got, k)
	}
	sort.Strings(got)
	wantSet := map[string]bool{}
	for _, k := range want {
		wantSet[k] = true
	}
	for _, k := range want {
		if !gotSet[k] {
			t.Errorf("%s: key %q gone — a rename/removal must bump StatusSchemaVersion and this golden list", label, k)
		}
	}
	for _, k := range got {
		if !wantSet[k] {
			t.Errorf("%s: new key %q — add it to the golden list (additions are compatible, no version bump)", label, k)
		}
	}
}

// TestStatusGoldenKeys pins the wire shape of /v1/status and
// /v1/debug/cluster. It marshals fully-populated structs (so every
// omitempty field emits) and compares the exact key paths against a
// golden list: dashboards depend on these names, so a rename or
// removal must fail here and bump StatusSchemaVersion.
func TestStatusGoldenKeys(t *testing.T) {
	st := NodeStatus{
		SchemaVersion: StatusSchemaVersion,
		Node:          "n0",
		UptimeMS:      1,
		Ring: RingStatus{
			Digest: "d", Epoch: 1, VNodes: 64,
			Members: []MemberStatus{{ID: "n0", URL: "http://x", Self: true, Alive: true}},
		},
		Partitions: []PartitionStatus{{
			Part: 0, Role: "primary", Owners: []string{"n0", "n1"},
			Rows: 1, LastSeq: 1, WALSegments: 1,
		}},
		RowsHeld: 1, DataVersion: 1, AbsorbedVersion: 1, IngestEpoch: 1,
		Drift: DriftStatus{ProbationQuanta: 1, Invalidations: 1, Rebuilds: 1},
		Cache: CacheStatus{Enabled: true, Size: 1, Hits: 1, HitRate: 0.5},
		Sched: SchedStatus{
			QueueDepth: 1,
			Classes: map[string]metrics.TenantSnap{
				"gold": {Queries: 1, Rejected: 1, Inflight: 1, P50: 1, P99: 1},
			},
		},
		Audit: AuditStatus{Samples: 1, MAPE: 0.1},
		SLO:   []metrics.SLOClassState{{Class: "gold", FastBurn: 1, SlowBurn: 1, State: "ok"}},
		AntiEntropy: AntiEntropyStatus{
			Enabled: true, Ticks: 1, Checked: 1, Divergent: 1, Repairs: 1,
		},
		Rebalance: RebalanceStatus{
			Epoch: 1, Staged: 1, Retired: 1, MovedParts: 1, LastChangeMS: 1,
		},
		Runtime: obs.RuntimeSnap{
			Goroutines: 1, HeapAlloc: 1, HeapSys: 1, GCCycles: 1,
			GCPauseP50: 1, GCPauseP99: 1, GCPauseMax: 1, KernelTier: "avx2",
		},
		Flight: &flight.Status{
			Series: 1, Ticks: 1, DroppedSamples: 1, Anomalies: 1,
			Triggers: 1, SuppressedTrigger: 1, SpoolBundles: 1, SpoolBytes: 1,
			LastTrigger: "anomaly: spike", LastTriggerUnixMs: 1,
		},
	}
	assertGoldenKeys(t, "NodeStatus", st, []string{
		"absorbed_version",
		"antientropy", "antientropy.checked", "antientropy.divergent",
		"antientropy.enabled", "antientropy.repairs", "antientropy.ticks",
		"audit", "audit.mape", "audit.samples",
		"cache", "cache.enabled", "cache.hit_rate", "cache.hits", "cache.size",
		"data_version",
		"drift", "drift.invalidations", "drift.probation_quanta", "drift.rebuilds",
		"flight", "flight.anomalies", "flight.dropped_samples",
		"flight.last_trigger", "flight.last_trigger_unix_ms",
		"flight.series", "flight.spool_bundles", "flight.spool_bytes",
		"flight.suppressed_triggers", "flight.ticks", "flight.triggers",
		"ingest_epoch",
		"node",
		"partitions",
		"partitions[].last_seq", "partitions[].owners", "partitions[].part",
		"partitions[].role", "partitions[].rows", "partitions[].wal_segments",
		"resilience", "resilience.chaos_enabled", "resilience.degraded_answers",
		"resilience.hedges", "resilience.rpc_retries", "resilience.worst_breaker",
		"rebalance", "rebalance.epoch", "rebalance.last_change_ms",
		"rebalance.moved_parts", "rebalance.retired", "rebalance.staged",
		"ring", "ring.digest", "ring.epoch", "ring.members",
		"ring.members[].alive", "ring.members[].id", "ring.members[].self", "ring.members[].url",
		"ring.vnodes",
		"rows_held",
		"runtime", "runtime.gc_cycles", "runtime.gc_pause_max_ns",
		"runtime.gc_pause_p50_ns", "runtime.gc_pause_p99_ns",
		"runtime.goroutines", "runtime.heap_alloc_bytes", "runtime.heap_sys_bytes",
		"runtime.kernel_tier",
		"sched", "sched.classes",
		"sched.classes.*", "sched.classes.*.inflight", "sched.classes.*.p50_ns",
		"sched.classes.*.p99_ns", "sched.classes.*.queries", "sched.classes.*.rejected",
		"sched.queue_depth",
		"schema_version",
		"slo", "slo[].class", "slo[].fast_burn", "slo[].slow_burn", "slo[].state",
		"uptime_ms",
	})

	// NodeReport.Status nests a full NodeStatus (covered above); keep it
	// nil here so the report golden stays about the report's own shape.
	rep := ClusterReport{
		SchemaVersion: StatusSchemaVersion,
		Coordinator:   "n0",
		Healthy:       false,
		Nodes:         []NodeReport{{ID: "n1", URL: "http://x", Reachable: false, Error: "down"}},
		Findings: []Finding{{
			Severity: "warn", Kind: "replication_lag", Node: "n1",
			Part: 1, Lag: 2, Detail: "d",
		}},
		TookMS: 1,
	}
	assertGoldenKeys(t, "ClusterReport", rep, []string{
		"coordinator",
		"findings",
		"findings[].detail", "findings[].kind", "findings[].lag",
		"findings[].node", "findings[].part", "findings[].severity",
		"healthy",
		"nodes",
		"nodes[].error", "nodes[].id", "nodes[].reachable", "nodes[].url",
		"schema_version",
		"took_ms",
	})
}

// TestStatusScrapeWhileServingHammer scrapes /v1/status,
// /v1/debug/cluster and /v1/metrics from every member while queries
// and ingest batches are in flight — the introspection plane reads
// live scheduler, WAL and replication state, so this is the test the
// race detector cares about.
func TestStatusScrapeWhileServingHammer(t *testing.T) {
	lc, _ := liveCluster(t, 3, t.TempDir())
	client := lc.Client()
	urls := make([]string, 0, 3)
	for _, id := range lc.IDs() {
		urls = append(urls, lc.URL(id))
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				if _, err := client.Answer(wholeSpace(query.Sum, 2)); err != nil {
					fail(fmt.Errorf("query: %w", err))
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < 16; b++ {
			if _, err := client.Ingest(ingestRows(25, 5_000_000+uint64(b*25))); err != nil {
				fail(fmt.Errorf("ingest: %w", err))
				return
			}
		}
	}()

	paths := []string{"/v1/status", "/v1/debug/cluster", "/v1/metrics"}
	for s := range paths {
		wg.Add(1)
		go func(path string, s int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				url := urls[(s+i)%len(urls)] + path
				resp, err := http.Get(url)
				if err != nil {
					fail(fmt.Errorf("GET %s: %w", url, err))
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail(fmt.Errorf("GET %s: %w", url, err))
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode))
					return
				}
				switch path {
				case "/v1/status":
					var st NodeStatus
					if err := json.Unmarshal(body, &st); err != nil || st.SchemaVersion != StatusSchemaVersion {
						fail(fmt.Errorf("GET %s: bad status body (%v)", url, err))
						return
					}
				case "/v1/debug/cluster":
					var rep ClusterReport
					if err := json.Unmarshal(body, &rep); err != nil || rep.Coordinator == "" {
						fail(fmt.Errorf("GET %s: bad cluster report (%v)", url, err))
						return
					}
				default:
					if !strings.Contains(string(body), "sea_") {
						fail(fmt.Errorf("GET %s: no sea_ metrics in exposition", url))
						return
					}
				}
			}
		}(paths[s], s)
	}

	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	rep := lc.Node(lc.IDs()[0]).ClusterReport()
	if !rep.Healthy {
		t.Fatalf("cluster unhealthy after hammer: %+v", rep.Findings)
	}
}
