package dist

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// loneMember boots a node alone in its view, with no peers and the
// default replication factor, loads rows and serves its handler.
func loneMember(t *testing.T, cfg Config, rows []storage.Row) (*Node, *httptest.Server) {
	t.Helper()
	cfg.ID = "solo"
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Load(rows); err != nil {
		n.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	t.Cleanup(func() { ts.Close(); n.Close() })
	return n, ts
}

// trustedCount feeds the node COUNT queries through h until its agent
// predicts one, and returns that query.
func trustedCount(t *testing.T, n *Node, h http.Handler) query.Query {
	t.Helper()
	qs := workload.NewQueryStream(workload.NewRNG(82), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 2000; i++ {
		q := qs.Next()
		if _, _, ok := n.Pool().Agent().PredictOnly(q); ok && i >= 400 {
			return q
		}
		if code := serveQuery(h, q); code != http.StatusOK {
			t.Fatalf("query %d: HTTP %d", i, code)
		}
	}
	t.Fatal("the agent never trusted a COUNT query")
	return query.Query{}
}

// serveQuery posts q to h's /v1/query in process and returns the status.
func serveQuery(h http.Handler, q query.Query) int {
	body, _ := json.Marshal(queryToWire(q, ""))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	return w.Code
}

// TestLoneMemberServesEveryRoute is what a seaserve started without
// -peers is: one member, replication factor and write quorum 1, serving
// exact answers, explanations, stats and durable ingest.
func TestLoneMemberServesEveryRoute(t *testing.T) {
	rows := testRows(2_000, 5)
	dir := t.TempDir()
	agent := core.DefaultConfig(2)
	agent.TrainingQueries = 300
	cfg := Config{Agent: agent, DataDir: dir}
	n, ts := loneMember(t, cfg, rows)
	if got := n.Status().Replicas; got != 1 {
		t.Fatalf("lone member replicas = %d, want 1", got)
	}

	// Every answer in training is exact and must match a row-by-row
	// evaluation of the table.
	for _, qs := range aggStreams(3) {
		for i := 0; i < 20; i++ {
			q := qs.Next()
			var got QueryResponse
			if code := postJSON(t, ts.URL+"/v1/query", queryToWire(q, ""), &got); code != http.StatusOK {
				t.Fatalf("%v query %d: HTTP %d", q.Aggregate, i, code)
			}
			if got.Predicted {
				t.Fatalf("%v query %d predicted during training", q.Aggregate, i)
			}
			if want := query.EvalRows(q, rows).Value; !closeEnough(q.Aggregate, got.Value, want) {
				t.Fatalf("%v query %d: %v, want %v", q.Aggregate, i, got.Value, want)
			}
		}
	}

	q := trustedCount(t, n, n.Handler())
	var ex map[string]any
	if code := postJSON(t, ts.URL+"/v1/explain", queryToWire(q, ""), &ex); code != http.StatusOK {
		t.Fatalf("/v1/explain: HTTP %d (%v)", code, ex)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.StatsResponse
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	err = dec.Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: HTTP %d, decode error %v", resp.StatusCode, err)
	}
	if st.Agent.Queries == 0 || st.Serving.Queries == 0 {
		t.Fatalf("/v1/stats counted nothing: %+v", st)
	}

	batch := IngestRequest{Rows: make([]WireRow, 64)}
	for i := range batch.Rows {
		batch.Rows[i] = WireRow{Key: 1<<32 + uint64(i), Vec: []float64{25, 25, 55}}
	}
	var ack IngestResponse
	if code := postJSON(t, ts.URL+"/v1/ingest", batch, &ack); code != http.StatusOK || ack.AckedRows != 64 {
		t.Fatalf("/v1/ingest: HTTP %d, %+v", code, ack)
	}
	want := int64(len(rows) + 64)
	if got := n.Status().RowsHeld; got != want {
		t.Fatalf("rows held after ingest %d, want %d", got, want)
	}

	ts.Close()
	n.Close()
	again, _ := loneMember(t, cfg, rows)
	if got := again.Status().RowsHeld; got != want {
		t.Fatalf("rows held after restart %d, want %d", got, want)
	}
}

// TestNodeQueryAllocsMatchServer holds a cluster member's /v1/query to
// the library front-end's allocation count: the same agent answers the
// same predicted query through Node.Handler, with the drift maintainer
// armed, and through serve.NewServer.
func TestNodeQueryAllocsMatchServer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are noise under the race detector")
	}
	agent := core.DefaultConfig(2)
	agent.TrainingQueries = 300
	n, _ := loneMember(t, Config{Agent: agent, AnswerCache: -1, RequantCheck: time.Hour}, testRows(2_000, 5))
	node := n.Handler()
	q := trustedCount(t, n, node)
	sched := serve.NewScheduler(n.Pool(), serve.SchedulerConfig{})
	t.Cleanup(sched.Close)
	server := serve.NewServer(sched, nil)

	// A collection during a trial empties the sync.Pools both paths
	// draw on and adds allocations to that trial alone, so each side
	// reports its fewest over three trials.
	allocs := func(h http.Handler) float64 {
		fewest := math.Inf(1)
		for trial := 0; trial < 3; trial++ {
			fewest = min(fewest, testing.AllocsPerRun(200, func() {
				if code := serveQuery(h, q); code != http.StatusOK {
					t.Fatalf("HTTP %d", code)
				}
			}))
		}
		return fewest
	}
	nodeAllocs, serverAllocs := allocs(node), allocs(server)
	t.Logf("allocations per predicted query: node %v, server %v", nodeAllocs, serverAllocs)
	if nodeAllocs > serverAllocs {
		t.Fatalf("node allocates %v per predicted query, the library server %v", nodeAllocs, serverAllocs)
	}
}

// TestNewNodeRunsOneAgent: a member runs one agent in front of its
// data, so a config asking for more is refused rather than ignored.
func TestNewNodeRunsOneAgent(t *testing.T) {
	if _, err := NewNode(Config{ID: "solo", Agents: 2}); err == nil {
		t.Fatal("NewNode with Agents 2 must fail")
	}
}
