package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// testRows builds the standard 3-column clustered dataset (x, y spatial;
// z = 2x + 5 + noise).
func testRows(n int, seed int64) []storage.Row {
	return workload.StandardRows(n, seed)
}

// exactCluster starts a cluster whose agents never predict (training
// never ends), so every answer exercises the scatter-gather exact path.
func exactCluster(t *testing.T, nodes int) (*LocalCluster, []storage.Row) {
	t.Helper()
	rows := testRows(4_000, 11)
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(nodes, Config{Agent: cfg, Replicas: 2}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc, rows
}

// ownersOf returns the ring owners n's /v1/query places q on.
func ownersOf(n *Node, q query.Query) []string {
	return n.Ring().queryOwners(nil, serve.KeyHash(q), n.cfg.Replicas)
}

// aggStreams returns one query stream per supported aggregate.
func aggStreams(seed int64) []*workload.QueryStream {
	mk := func(off int64, agg query.Agg) *workload.QueryStream {
		qs := workload.NewQueryStream(workload.NewRNG(seed+off), workload.DefaultRegions(2), agg)
		switch agg {
		case query.Sum, query.Avg, query.Var:
			qs.Col = 2
		case query.Corr, query.RegSlope:
			qs.Col, qs.Col2 = 0, 2
		}
		return qs
	}
	return []*workload.QueryStream{
		mk(0, query.Count), mk(10, query.Sum), mk(20, query.Avg),
		mk(30, query.Var), mk(40, query.Corr), mk(50, query.RegSlope),
	}
}

// closeEnough compares a distributed answer against the single-node
// reference: bit-equal for COUNT, within float-merge tolerance for the
// moment-merged aggregates (partition sums associate differently).
func closeEnough(agg query.Agg, got, want float64) bool {
	if agg == query.Count {
		return got == want
	}
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// fullWalk checks a query's rows_read against a walk of one copy of every
// partition of a table of `rows` rows dealt round-robin: the rows past a
// partition's last full block have no summary and always stream, and
// whatever else did not stream was skipped or answered from a summary a
// whole block at a time.
func fullWalk(rowsRead int64, rows, parts int) error {
	var tails int64
	for p := 0; p < parts; p++ {
		tails += int64((rows - p + parts - 1) / parts % storage.BlockRows)
	}
	if rowsRead < tails || rowsRead > int64(rows) || (int64(rows)-rowsRead)%storage.BlockRows != 0 {
		return fmt.Errorf("scatter read %d of %d rows: want the %d rows past the partitions' last blocks and whole %d-row blocks beside them",
			rowsRead, rows, tails, storage.BlockRows)
	}
	return nil
}

// TestClusterAggregateSuiteMatchesSingleNode is the correctness half of
// the acceptance scenario: a 3-node cluster answers COUNT/SUM/AVG/VAR/
// CORR (and REGSLOPE) with the same results as evaluating the query over
// the full dataset on one node.
func TestClusterAggregateSuiteMatchesSingleNode(t *testing.T) {
	lc, rows := exactCluster(t, 3)
	client := lc.Client()
	for _, qs := range aggStreams(100) {
		for i := 0; i < 15; i++ {
			q := qs.Next()
			got, err := client.Answer(q)
			if err != nil {
				t.Fatalf("%v query %d: %v", q.Aggregate, i, err)
			}
			if got.Predicted {
				t.Fatalf("%v query %d: predicted during training-only test", q.Aggregate, i)
			}
			want := query.EvalRows(q, rows).Value
			if !closeEnough(q.Aggregate, got.Value, want) {
				t.Fatalf("%v query %d: cluster %v, single-node %v", q.Aggregate, i, got.Value, want)
			}
			if err := fullWalk(got.Cost.RowsRead, len(rows), lc.Node(lc.IDs()[0]).Partitions()); err != nil {
				t.Fatalf("%v query %d: %v", q.Aggregate, i, err)
			}
		}
	}
}

// TestClusterForwardsToOwners: a query POSTed to a non-owner must be
// answered by one of the key's ring owners (forwarding), and the
// /v1/cluster endpoint must report full membership.
func TestClusterForwardsToOwners(t *testing.T) {
	lc, _ := exactCluster(t, 3)
	client := lc.Client()

	qs := aggStreams(300)[0]
	forwarded := 0
	for i := 0; i < 30 && forwarded == 0; i++ {
		q := qs.Next()
		owners := ownersOf(lc.Node("n0"), q)
		isOwner := map[string]bool{}
		for _, o := range owners {
			isOwner[o] = true
		}
		var outsider string
		for _, id := range lc.IDs() {
			if !isOwner[id] {
				outsider = id
				break
			}
		}
		if outsider == "" {
			continue // replication covers all nodes for this key
		}
		body, err := json.Marshal(queryToWire(q, "fwd"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(lc.URL(outsider)+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !isOwner[out.Node] {
			t.Fatalf("query owned by %v was answered by %s (no forwarding)", owners, out.Node)
		}
		forwarded++
	}
	if forwarded == 0 {
		t.Fatal("never found a non-owner to exercise forwarding")
	}

	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 3 || st.PartitionsTotal == 0 || st.RowsHeld == 0 {
		t.Errorf("implausible cluster status: %+v", st)
	}
}

// TestClusterSurvivesNodeKillMidStream is the failover half of the
// acceptance scenario: one node dies mid-stream and the client sees no
// errors — its queries fail over to the surviving replicas, including
// the scatter path re-fetching the dead node's partitions from theirs.
func TestClusterSurvivesNodeKillMidStream(t *testing.T) {
	lc, rows := exactCluster(t, 3)
	client := lc.Client()
	streams := aggStreams(200)

	ask := func(i int) {
		t.Helper()
		qs := streams[i%len(streams)]
		q := qs.Next()
		got, err := client.Answer(q)
		if err != nil {
			t.Fatalf("query %d (%v): client-visible error: %v", i, q.Aggregate, err)
		}
		want := query.EvalRows(q, rows).Value
		if !closeEnough(q.Aggregate, got.Value, want) {
			t.Fatalf("query %d (%v): cluster %v, single-node %v", i, q.Aggregate, got.Value, want)
		}
	}

	for i := 0; i < 12; i++ {
		ask(i)
	}
	lc.Kill("n1")
	for i := 12; i < 48; i++ {
		ask(i)
	}
}

// TestSnapshotShippingWarmsReplica: a killed node revived with model
// shipping must serve bit-identical predictions to its donor without
// re-training.
func TestSnapshotShippingWarmsReplica(t *testing.T) {
	rows := testRows(4_000, 11)
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 100
	lc, err := StartLocal(3, Config{Agent: agentCfg, Replicas: 2}, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// Train the donor node past its prefix; its exact answers
	// scatter-gather across the live cluster while it learns.
	qs := workload.NewQueryStream(workload.NewRNG(500), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 250; i++ {
		if _, err := lc.Node("n0").Answer("train", qs.Next()); err != nil {
			t.Fatalf("training query %d: %v", i, err)
		}
	}

	donor := lc.Node("n0").Pool().Agent()
	if donor.Stats().Predicted == 0 {
		t.Fatal("donor never reached the prediction path; shipping test proves nothing")
	}

	lc.Kill("n2")
	// Allow the dead listener to fully release before rebinding.
	time.Sleep(10 * time.Millisecond)
	shipped, err := lc.Revive("n2", "n0")
	if err != nil {
		t.Fatal(err)
	}
	if shipped == 0 {
		t.Fatal("snapshot ship moved zero bytes")
	}

	revived := lc.Node("n2").Pool().Agent()
	probe := workload.NewQueryStream(workload.NewRNG(501), workload.DefaultRegions(2), query.Count)
	var predictions int
	for i := 0; i < 100; i++ {
		q := probe.Next()
		v1, e1, ok1 := donor.PredictOnly(q)
		v2, e2, ok2 := revived.PredictOnly(q)
		if ok1 != ok2 || v1 != v2 || e1 != e2 {
			t.Fatalf("probe %d: donor (%v,%v,%v) != revived (%v,%v,%v)", i, v1, e1, ok1, v2, e2, ok2)
		}
		if ok1 {
			predictions++
		}
	}
	if predictions == 0 {
		t.Fatal("trained donor predicted nothing; warm-up test proves nothing")
	}

	// The revived node serves those predictions itself over HTTP.
	ans, err := lc.Node("n2").Answer("warm", probeQueryFor(t, donor, 502))
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Predicted {
		t.Error("revived node fell back to the oracle for a query its shipped model covers")
	}
}

// probeQueryFor scans a stream for a query the agent answers from its
// model.
func probeQueryFor(t *testing.T, ag *core.Agent, seed int64) query.Query {
	t.Helper()
	qs := workload.NewQueryStream(workload.NewRNG(seed), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 200; i++ {
		q := qs.Next()
		if _, _, ok := ag.PredictOnly(q); ok {
			return q
		}
	}
	t.Fatal("no predictable probe query found")
	return query.Query{}
}

// TestQueryKeyRoutingIsStable: identical queries must route to identical
// owner sets across client and every node (shared ring).
func TestQueryKeyRoutingIsStable(t *testing.T) {
	lc, _ := exactCluster(t, 3)
	client := lc.Client()
	qs := aggStreams(400)[0]
	for i := 0; i < 20; i++ {
		q := qs.Next()
		key := serve.Key(q)
		cring, _ := client.snapshot()
		want := cring.Owners(key, 2)
		for _, id := range lc.IDs() {
			if got := lc.Node(id).Ring().Owners(key, 2); !equalStrings(got, want) {
				t.Fatalf("node %s owners %v != client owners %v", id, got, want)
			}
			// The node's /v1/query places q by its key hash alone.
			if got := ownersOf(lc.Node(id), q); !equalStrings(got, want) {
				t.Fatalf("node %s places the query on %v, the client on %v", id, got, want)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
