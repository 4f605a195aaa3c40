package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/workload"
)

func reqFromQuery(t *testing.T, q query.Query, tenant string) []byte {
	t.Helper()
	var agg string
	switch q.Aggregate {
	case query.Count:
		agg = "count"
	case query.Sum:
		agg = "sum"
	case query.Avg:
		agg = "avg"
	case query.Var:
		agg = "var"
	case query.Corr:
		agg = "corr"
	case query.RegSlope:
		agg = "slope"
	default:
		t.Fatalf("unmapped aggregate %v", q.Aggregate)
	}
	req := QueryRequest{
		Tenant: tenant,
		Agg:    agg,
		Col:    q.Col,
		Col2:   q.Col2,
	}
	if q.Select.IsRadius() {
		req.Center, req.Radius = q.Select.Center, q.Select.Radius
	} else {
		req.Los, req.His = q.Select.Los, q.Select.His
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postQuery(t *testing.T, url string, body []byte) (QueryResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// TestServerEndToEndMatchesSingleThreaded is the acceptance check: the
// HTTP serving path must return bit-identical results to driving an
// identically-built agent directly on one goroutine.
func TestServerEndToEndMatchesSingleThreaded(t *testing.T) {
	// Two agents built and trained from identical seeds are identical.
	served, _ := newTrainedAgent(t, 4_000, 200, 21, 22)
	direct, _ := newTrainedAgent(t, 4_000, 200, 21, 22)

	pool := NewPool(served, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 4})
	defer sched.Close()
	ts := httptest.NewServer(NewServer(sched, nil))
	defer ts.Close()

	qs := workload.NewQueryStream(workload.NewRNG(77), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 150; i++ {
		q := qs.Next()
		got, code := postQuery(t, ts.URL, reqFromQuery(t, q, "e2e"))
		if code != http.StatusOK {
			t.Fatalf("query %d: HTTP %d", i, code)
		}
		want, err := direct.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.Predicted != want.Predicted ||
			got.EstError != want.EstError || got.Quantum != want.Quantum {
			t.Fatalf("query %d diverged:\n  http   = %+v\n  direct = %+v", i, got, want)
		}
	}
	if pool.Agent().Stats().Queries != direct.Stats().Queries {
		t.Errorf("served agent answered %d queries, direct %d",
			pool.Agent().Stats().Queries, direct.Stats().Queries)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	agent, _ := newTrainedAgent(t, 4_000, 200, 21, 22)
	pool := NewPool(agent, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 8, QueueDepth: 256, TenantInflight: -1})
	defer sched.Close()
	ts := httptest.NewServer(NewServer(sched, nil))
	defer ts.Close()

	const clients = 32
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			cs := workload.NewQueryStream(workload.NewRNG(700+int64(c)), workload.DefaultRegions(2), query.Count)
			for i := 0; i < 10; i++ {
				_, code := postQuery(t, ts.URL, reqFromQuery(t, cs.Next(), "load"))
				if code != http.StatusOK {
					t.Errorf("client %d: HTTP %d", c, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// Stats endpoint reflects the load.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Serving.Queries != clients*10 {
		t.Errorf("stats served %d queries, want %d", stats.Serving.Queries, clients*10)
	}
	if stats.Serving.QPS <= 0 || stats.Serving.P50 <= 0 {
		t.Errorf("missing throughput metrics: %+v", stats.Serving)
	}
}

func TestServerErrorMapping(t *testing.T) {
	agent, _ := newTrainedAgent(t, 2_000, 100, 21, 22)
	pool := NewPool(agent, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 2})
	defer sched.Close()
	ts := httptest.NewServer(NewServer(sched, nil))
	defer ts.Close()

	for name, body := range map[string]string{
		"bad json":     `{"agg":`,
		"unknown agg":  `{"agg":"median","los":[0,0],"his":[1,1]}`,
		"lo above hi":  `{"agg":"count","los":[2,2],"his":[1,1]}`,
		"no selection": `{"agg":"count"}`,
		"NaN bound":    `{"agg":"count","los":[NaN,0],"his":[1,1]}`,
		"NaN centre":   `{"agg":"count","center":[0,NaN],"radius":1}`,
	} {
		_, code := postQuery(t, ts.URL, []byte(body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}

	// JSON has no NaN literal, so the decoder stops the two bodies above;
	// a NaN that reaches a request some other way (an in-process caller, a
	// wire query built by a peer) is stopped by validation, with the error
	// the handlers map to the same 400.
	for name, req := range map[string]QueryRequest{
		"NaN bound":  {Agg: "count", Los: []float64{math.NaN(), 0}, His: []float64{1, 1}},
		"NaN centre": {Agg: "count", Center: []float64{0, math.NaN()}, Radius: 1},
	} {
		if _, err := req.Query(); !errors.Is(err, query.ErrBadQuery) {
			t.Errorf("%s: Query() = %v, want ErrBadQuery", name, err)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}

	// Explanations are disabled when no engine is wired.
	resp2, err := http.Post(ts.URL+"/v1/explain", "application/json",
		bytes.NewReader([]byte(`{"agg":"count","los":[0,0],"his":[1,1]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotImplemented {
		t.Errorf("explain without engine: HTTP %d, want 501", resp2.StatusCode)
	}
}

// TestServerGracefulShutdown verifies the drain path: cancelling the run
// context must let an in-flight request (blocked inside the oracle)
// finish with 200 instead of killing it, then close the scheduler.
func TestServerGracefulShutdown(t *testing.T) {
	agent, oracle := blockedAgent(t)
	pool := NewPool(agent, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 2})
	srv := NewServer(sched, nil)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- RunListener(ctx, l, srv, 5*time.Second, sched.Close) }()
	url := "http://" + l.Addr().String()

	// Park one request inside the (blocked) oracle fallback.
	reqDone := make(chan int, 1)
	go func() {
		_, code := postQuery(t, url, reqFromQuery(t, countAt(1, 1), "drain"))
		reqDone <- code
	}()
	<-oracle.started

	// Shut down while the request is in flight, then let it finish.
	cancel()
	close(oracle.release)
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request during shutdown: HTTP %d, want 200", code)
	}
	if err := <-runDone; err != nil {
		t.Errorf("graceful shutdown returned %v, want nil", err)
	}
	// The scheduler must be closed once the server has drained.
	if _, err := sched.Answer("drain", countAt(2, 2)); err != ErrClosed {
		t.Errorf("after shutdown: err = %v, want ErrClosed", err)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	served, _ := newTrainedAgent(t, 4_000, 200, 21, 22)
	pool := NewPool(served, nil)
	sched := NewScheduler(pool, SchedulerConfig{Workers: 4})
	defer sched.Close()
	ts := httptest.NewServer(NewServer(sched, nil))
	defer ts.Close()

	// Serve some traffic so the counters move.
	qs := workload.NewQueryStream(workload.NewRNG(88), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 20; i++ {
		if _, code := postQuery(t, ts.URL, reqFromQuery(t, qs.Next(), "m")); code != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want Prometheus text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"sea_queries_total 20",
		"# TYPE sea_queries_total counter",
		"sea_ingest_rows_total",
		"sea_drift_invalidations_total",
		"sea_latency_seconds{quantile=\"0.99\"}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestTraceRequested pins ?trace=1 detection to Query().Get("trace")
// == "1" and holds the common request, with no query string, to zero
// allocations.
func TestTraceRequested(t *testing.T) {
	for raw, want := range map[string]bool{
		"":                false,
		"trace=1":         true,
		"trace=0":         false,
		"trace=":          false,
		"x=2&trace=1":     true,
		"trace=1&trace=0": true,
		"trace=0&trace=1": false,
		"trace=%31":       true,
		"tracex=1":        false,
		"trace=1;x=2":     false,
		"TRACE=1":         false,
		"trace=1&x=%zz":   true,
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/query", nil)
		r.URL.RawQuery = raw
		if got := TraceRequested(r); got != want {
			t.Errorf("TraceRequested(?%s) = %v, want %v", raw, got, want)
		}
		if got := r.URL.Query().Get("trace") == "1"; got != want {
			t.Errorf("Query().Get(trace) on ?%s = %v, the table says %v", raw, got, want)
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/query", nil)
	if n := testing.AllocsPerRun(100, func() { TraceRequested(r) }); n != 0 {
		t.Fatalf("TraceRequested allocates %v times with no query string, want 0", n)
	}
}
