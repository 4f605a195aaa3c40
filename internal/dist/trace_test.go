package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// rowsOracle is a trivial in-memory exact oracle for the race hammer.
type rowsOracle struct{ rows []storage.Row }

func (o rowsOracle) Answer(q query.Query) (query.Result, metrics.Cost, error) {
	return query.EvalRows(q, o.rows), metrics.Cost{RowsRead: int64(len(o.rows))}, nil
}

func (o rowsOracle) DataVersion() int64 { return 1 }

// traceTestCluster boots a 3-node cluster whose agents never finish
// training, so every query takes the exact scatter-gather path.
func traceTestCluster(t *testing.T, cfg Config) *LocalCluster {
	t.Helper()
	agent := core.DefaultConfig(2)
	agent.TrainingQueries = 1 << 30
	cfg.Agent = agent
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	lc, err := StartLocal(3, cfg, workload.StandardRows(3000, 11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

func postTracedQuery(t *testing.T, url string) QueryResponse {
	t.Helper()
	body, err := json.Marshal(serve.QueryRequest{
		Agg: "count",
		Los: []float64{-100, -100},
		His: []float64{100, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query: HTTP %d", resp.StatusCode)
	}
	return qr
}

func TestTracePropagatesAcrossCluster(t *testing.T) {
	lc := traceTestCluster(t, Config{})
	qr := postTracedQuery(t, lc.URL(lc.IDs()[0]))

	if qr.TraceID == "" || qr.Trace == nil {
		t.Fatalf("?trace=1 returned no trace: %+v", qr)
	}
	w := qr.Trace
	// The whole-space exact query touches every partition, so the tree
	// must stitch spans from more than one node...
	nodes := w.Nodes()
	if len(nodes) < 2 {
		t.Fatalf("trace covers nodes %v, want a multi-node tree", nodes)
	}
	// ...while keeping the message-minimal fan-out: at most ONE
	// partial_rpc span per remote holder.
	if got := w.CountNamed("partial_rpc"); got < 1 || got > 2 {
		t.Fatalf("partial_rpc spans = %d, want 1..2 (one per remote holder)", got)
	}
	// The serving tiers and scatter stages all appear in one tree.
	for _, name := range []string{"sched_wait", "fallback", "oracle", "local_scan", "merge"} {
		if w.CountNamed(name) == 0 {
			t.Fatalf("trace has no %q span:\n%+v", name, w)
		}
	}
	// Remote holders tag their spans with their own node id, and their
	// subtrees carry the remote local_scan.
	if w.CountNamed("local_scan") < 2 {
		t.Fatalf("want local_scan spans from entry and remote holders, got %d", w.CountNamed("local_scan"))
	}

	// Every local_scan span, the coordinator's and the holders', says how
	// its rows were answered: streamed through the kernels (what
	// cost.rows_read adds up) or folded from block summaries. The query
	// holds all 3000 rows, so the two account for every one of them (a
	// hedged partition is scanned twice, hence >=).
	var scanned, summarised int64
	var walk func(*trace.WireSpan)
	walk = func(sp *trace.WireSpan) {
		if sp.Name == "local_scan" {
			sc, err1 := strconv.ParseInt(sp.Attrs["rows_scanned"], 10, 64)
			su, err2 := strconv.ParseInt(sp.Attrs["rows_summarised"], 10, 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("local_scan span on %s has attributes %v, want rows_scanned and rows_summarised", sp.Node, sp.Attrs)
			}
			scanned, summarised = scanned+sc, summarised+su
		}
		for i := range sp.Children {
			walk(&sp.Children[i])
		}
	}
	walk(w)
	if scanned < qr.Cost.RowsRead || summarised == 0 || scanned+summarised < 3000 {
		t.Fatalf("local_scan spans report %d rows scanned and %d summarised; cost.rows_read is %d of 3000 rows held",
			scanned, summarised, qr.Cost.RowsRead)
	}

	// The answering node's ring serves the same tree back by id.
	resp, err := http.Get(lc.URL(qr.Node) + "/v1/debug/trace/" + qr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug trace lookup: HTTP %d", resp.StatusCode)
	}
	var stored map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stored); err != nil {
		t.Fatalf("debug trace body not JSON: %v", err)
	}
}

func TestForwardedQueryKeepsTraceFlag(t *testing.T) {
	lc := traceTestCluster(t, Config{})
	// Ask every member: at least one of them is NOT an owner of this
	// key and must forward — the trace flag has to survive the hop.
	for _, id := range lc.IDs() {
		qr := postTracedQuery(t, lc.URL(id))
		if qr.TraceID == "" || qr.Trace == nil {
			t.Fatalf("entry %s: forwarded ?trace=1 lost the trace", id)
		}
		if qr.Trace.Name != "query" {
			t.Fatalf("entry %s: root span = %q", id, qr.Trace.Name)
		}
	}
}

func TestTracedIngestSpans(t *testing.T) {
	lc := traceTestCluster(t, Config{})
	// A delay in every replicate RPC makes each partition's commit long
	// enough to tell overlapping from consecutive.
	setChaos(lc, []chaos.Rule{{Endpoint: "/v1/replicate", LatencyMS: 40}})
	rows := make([]WireRow, 32)
	for i := range rows {
		rows[i] = WireRow{Key: uint64(1000 + i), Vec: []float64{1, 2, 3}}
	}
	body, err := json.Marshal(IngestRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(lc.URL(lc.IDs()[0])+"/v1/ingest?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced ingest: HTTP %d", resp.StatusCode)
	}
	if ir.AckedRows != len(rows) {
		t.Fatalf("acked %d of %d rows: %+v", ir.AckedRows, len(rows), ir.Parts)
	}
	if len(ir.Spans) != 1 {
		t.Fatalf("traced ingest returned %d span trees, want 1", len(ir.Spans))
	}
	w := &ir.Spans[0]
	if w.Name != "ingest" {
		t.Fatalf("root span = %q", w.Name)
	}
	// Partitions whose primary is elsewhere forward — their forward
	// spans must carry the primary's stitched wal_append/absorb spans.
	if w.CountNamed("absorb") == 0 || w.CountNamed("wal_append") == 0 && w.CountNamed("forward") == 0 {
		t.Fatalf("ingest span tree missing write-path stages:\n%+v", w)
	}
	// The partitions commit concurrently, so their spans are siblings in
	// no particular order: one per response part, found by attribute, and
	// together longer than the root they overlap under.
	partSpans := make(map[string]trace.WireSpan)
	var sum int64
	for _, c := range w.Children {
		if c.Name == "part" {
			partSpans[c.Attrs["part"]] = c
			sum += c.DurNs
		}
	}
	if len(ir.Parts) < 2 || len(partSpans) != len(ir.Parts) {
		t.Fatalf("%d part spans for %d response parts:\n%+v", len(partSpans), len(ir.Parts), w)
	}
	for _, pr := range ir.Parts {
		sp, ok := partSpans[strconv.Itoa(pr.Part)]
		if !ok || sp.Attrs["rows"] != strconv.Itoa(pr.Rows) || sp.CountNamed("replicate") != 1 {
			t.Fatalf("partition %d: no part span with its rows and one replicate fan-out:\n%+v", pr.Part, w)
		}
	}
	if w.DurNs >= sum {
		t.Fatalf("root span %v is not shorter than its part spans together (%v): they did not overlap",
			time.Duration(w.DurNs), time.Duration(sum))
	}
}

func TestClusterMetricsExposition(t *testing.T) {
	lc := traceTestCluster(t, Config{})
	entry := lc.IDs()[0]
	postTracedQuery(t, lc.URL(entry))
	resp, err := http.Get(lc.URL(entry) + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"# TYPE sea_path_latency_seconds histogram",
		"sea_absorbed_version",
		"sea_wal_segments",
		"sea_probation_quanta",
		"sea_sched_queue_depth",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/v1/metrics missing %q:\n%.2000s", want, out)
		}
	}
}

func TestServeTraceRaceHammer(t *testing.T) {
	// Hammer the pool's traced and untraced paths concurrently with
	// metrics scrapes and trace-ring reads: the -race build must stay
	// clean. (The recorder and tracer are the shared mutable state every
	// request now touches.)
	ag, err := core.NewAgent(rowsOracle{rows: workload.StandardRows(500, 3)}, core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(ag, nil)
	pool.EnableCache(256)
	tracer := trace.NewTracer("test", 8)
	pool.EnableTracing(tracer)
	tracer.SetSampleEvery(3)
	tracer.SetSlowThreshold(time.Nanosecond)

	qs := workload.NewQueryStream(workload.NewRNG(42), workload.DefaultRegions(2), query.Count)
	catalog := make([]query.Query, 16)
	for i := range catalog {
		catalog[i] = qs.Next()
	}
	var wg sync.WaitGroup
	const workers = 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(int64(w))
			for i := 0; i < 300; i++ {
				q := catalog[rng.Intn(len(catalog))]
				if i%7 == 0 {
					tr := tracer.Force("query")
					_, _ = pool.AnswerTraced(q, tr)
				} else {
					_, _ = pool.Answer(q)
				}
				if i%31 == 0 {
					var sb strings.Builder
					_ = pool.Recorder().WriteRecorder(&sb)
					_ = tracer.RecentIDs()
					_ = tracer.SlowLog()
				}
			}
		}(w)
	}
	wg.Wait()
	if s := pool.Recorder().Snapshot(); s.Queries != workers*300 {
		t.Fatalf("served %d, want %d", s.Queries, workers*300)
	}
}
