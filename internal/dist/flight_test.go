package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/query"
)

// flightCluster is liveCluster with the flight recorder on: a short
// background sampling period so history accrues during the test, the
// anomaly detector armed, and a per-cluster spool directory.
func flightCluster(t *testing.T, nodes int) *LocalCluster {
	t.Helper()
	rows := testRows(2_000, 11)
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	cfg.DriftRowBudget = 200
	lc, err := StartLocal(nodes, Config{
		Agent:        cfg,
		Replicas:     2,
		WriteQuorum:  2,
		DataDir:      t.TempDir(),
		Flight:       true,
		FlightSample: 10 * time.Millisecond,
		FlightSpool:  t.TempDir(),
		Anomaly:      true,
	}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// TestFlightStatusSection checks that a flight-enabled node surfaces
// the recorder in /v1/status and that the series registry includes the
// per-path latency and runtime series the issue calls for.
func TestFlightStatusSection(t *testing.T) {
	lc := flightCluster(t, 3)
	client := lc.Client()
	for i := 0; i < 10; i++ {
		if _, err := client.Answer(wholeSpace(query.Sum, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// The sampler runs in the background; the immediate first tick at
	// Start guarantees at least one sample before we look.
	for _, id := range lc.IDs() {
		st := lc.Node(id).NodeStatus()
		if st.Flight == nil {
			t.Fatalf("node %s: no flight section in status", id)
		}
		if st.Flight.Series == 0 || st.Flight.Ticks == 0 {
			t.Fatalf("node %s: flight section empty: %+v", id, st.Flight)
		}
		names := map[string]bool{}
		for _, m := range lc.Node(id).Flight().Metrics() {
			names[m] = true
		}
		for _, want := range []string{
			"queries", "cache_hit_rate", "lat_p99_all", "lat_p99_exact_scatter",
			"go_goroutines", "replication_lag", "sched_queue_depth", "breaker_state",
			"slo_state",
		} {
			if !names[want] {
				t.Fatalf("node %s: series %q not registered (have %v)", id, want, lc.Node(id).Flight().Metrics())
			}
		}
	}

	// replication_lag is the worst gap over the node's partitions: one
	// lagging partition must keep showing while its siblings commit
	// healthy batches. Take a member that is primary of two partitions.
	primaryOf := map[string][]int{}
	any := lc.Node(lc.IDs()[0])
	for p := 0; p < any.Partitions(); p++ {
		o := any.PartitionOwners(p)[0]
		primaryOf[o] = append(primaryOf[o], p)
	}
	var primary *Node
	for id, parts := range primaryOf {
		if len(parts) >= 2 {
			primary = lc.Node(id)
		}
	}
	if primary == nil {
		t.Fatalf("no member is primary of two partitions: %v", primaryOf)
	}
	lagging, healthy := primaryOf[primary.ID()][0], primaryOf[primary.ID()][1]
	replica := any.PartitionOwners(lagging)[1]
	nextKey := uint64(7_000_000)
	ingestInto := func(p int) IngestResponse {
		t.Helper()
		var rows []WireRow
		for ; len(rows) < 4; nextKey++ {
			if primary.partitionForKey(nextKey) == p {
				rows = append(rows, WireRow{Key: nextKey, Vec: []float64{1, 2, 3}})
			}
		}
		var resp IngestResponse
		if code := postJSON(t, lc.URL(primary.ID())+"/v1/ingest", IngestRequest{Rows: rows}, &resp); code != http.StatusOK {
			t.Fatalf("ingest into partition %d: HTTP %d", p, code)
		}
		return resp
	}
	// The replica misses one batch, then cannot heal the gap the next
	// one reveals: it answers, two sequences behind.
	lc.Chaos(primary.ID()).Set([]chaos.Rule{{Endpoint: "/v1/replicate", ErrorRate: 1}})
	ingestInto(lagging)
	lc.Chaos(primary.ID()).Clear()
	lc.Chaos(replica).Set([]chaos.Rule{{Endpoint: "/v1/walfetch", ErrorRate: 1}})
	if resp := ingestInto(lagging); resp.AckedRows != 0 {
		t.Fatalf("gapped replica acked: %+v", resp)
	}
	if resp := ingestInto(healthy); resp.FailedRows != 0 {
		t.Fatalf("healthy sibling partition missed quorum: %+v", resp)
	}
	after := time.Now().UnixMilli()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, _ := primary.Flight().History("replication_lag", time.Second)
		if n := len(h.Points); n > 0 && h.Points[n-1].TUnixMs > after {
			if got := h.Points[n-1].V; got != 2 {
				t.Fatalf("replication_lag = %v after a healthy sibling batch, want 2 (partition %d lags)", got, lagging)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight recorder took no sample after the ingest")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlightHistoryEndpoint checks the /v1/history wire shape: the
// bare endpoint lists metrics, a valid metric replays points, unknown
// metrics 404 and bad windows 400.
func TestFlightHistoryEndpoint(t *testing.T) {
	lc := flightCluster(t, 3)
	client := lc.Client()
	for i := 0; i < 20; i++ {
		if _, err := client.Answer(wholeSpace(query.Sum, 2)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // a few sampler ticks
	base := lc.URL(lc.IDs()[0])

	resp, err := http.Get(base + "/v1/history")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Metrics []string `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Metrics) == 0 {
		t.Fatal("empty metric listing")
	}

	// The client pins its coordinator to one member, so the queries
	// counter ramps on exactly one node — find it over HTTP.
	var recorded float64
	for _, id := range lc.IDs() {
		resp, err := http.Get(lc.URL(id) + "/v1/history?metric=queries&window=5s")
		if err != nil {
			t.Fatal(err)
		}
		var hist flight.History
		if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if hist.Metric != "queries" || hist.Resolution == "" || len(hist.Points) == 0 {
			t.Fatalf("node %s: bad history replay: %+v", id, hist)
		}
		if last := hist.Points[len(hist.Points)-1]; last.V > recorded {
			recorded = last.V
		}
	}
	if recorded < 20 {
		t.Fatalf("no member's queries series recorded the load (max last point %v)", recorded)
	}

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/history?metric=no_such_series", http.StatusNotFound},
		{"/v1/history?metric=queries&window=banana", http.StatusBadRequest},
	} {
		resp, err := http.Get(base + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("GET %s: HTTP %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}
}

// TestFlightScrapeWhileServingHammer scrapes /v1/history and
// /v1/debug/bundles from every member while queries and ingest batches
// are in flight and the background sampler ticks at 10ms — the ring
// buffers are written lock-free on the sample path and read
// concurrently by the handlers, so this is the test -race cares about.
func TestFlightScrapeWhileServingHammer(t *testing.T) {
	lc := flightCluster(t, 3)
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
			if _, err := client.Ingest(ingestRows(25, 6_000_000+uint64(b*25))); err != nil {
				fail(fmt.Errorf("ingest: %w", err))
				return
			}
		}
	}()

	paths := []string{
		"/v1/history?metric=lat_p99_all&window=10m",
		"/v1/history?metric=queries&window=6h",
		"/v1/history",
		"/v1/debug/bundles",
	}
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
					fail(fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body))
					return
				}
				var decoded any
				if err := json.Unmarshal(body, &decoded); err != nil {
					fail(fmt.Errorf("GET %s: bad JSON: %w", url, err))
					return
				}
			}
		}(paths[s], s)
	}

	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	st := lc.Node(lc.IDs()[0]).NodeStatus()
	if st.Flight == nil || st.Flight.Ticks == 0 {
		t.Fatalf("flight recorder idle through the hammer: %+v", st.Flight)
	}
}
