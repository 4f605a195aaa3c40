package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/workload"
)

// frontEnd is one serving front-end under test: its base URL and its
// flight recorder (ticked by hand).
type frontEnd struct {
	name   string
	url    string
	flight *flight.Recorder
	slo    *metrics.SLOEngine
}

// planeFrontEnds boots both front-ends with every instrument armed and
// manual flight ticks: a LocalCluster member whose pool also carries a
// second scheduler (as the benchmark's traced replay builds one), and a
// single-node serve.Server. Each has served tenant-tagged queries.
func planeFrontEnds(t *testing.T) []frontEnd {
	t.Helper()
	slo := &metrics.SLOConfig{LatencyObjective: time.Millisecond}
	agent := core.DefaultConfig(2)
	agent.TrainingQueries = 1 << 30
	lc, err := StartLocal(3, Config{
		Agent: agent, Replicas: 2, DataDir: t.TempDir(),
		Flight: true, FlightSample: -1, FlightSpool: t.TempDir(), Anomaly: true, SLO: slo,
	}, workload.StandardRows(2_000, 11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	member := lc.Node(lc.IDs()[0])
	second := serve.NewScheduler(member.Pool(), serve.SchedulerConfig{})
	t.Cleanup(second.Close)

	ag, err := core.NewAgent(rowsOracle{rows: workload.StandardRows(500, 3)}, core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := serve.NewPool([]*core.Agent{ag}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := serve.NewScheduler(pool, serve.SchedulerConfig{})
	t.Cleanup(sched.Close)
	plane := serve.NewPlane(pool, serve.PlaneConfig{
		Node: "local", Flight: true, FlightSample: -1, FlightSpool: t.TempDir(), Anomaly: true, SLO: slo,
	})
	t.Cleanup(plane.Close)
	ts := httptest.NewServer(serve.NewServer(sched, nil))
	t.Cleanup(ts.Close)

	fes := []frontEnd{
		{"cluster member", lc.URL(member.ID()), member.Flight(), member.SLO()},
		{"single node", ts.URL, plane.Flight, plane.SLO},
	}
	body, err := json.Marshal(serve.QueryRequest{Agg: "count", Los: []float64{-100, -100}, His: []float64{100, 100}})
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range fes {
		for i := 0; i < 5; i++ {
			req, _ := http.NewRequest(http.MethodPost, fe.url+"/v1/query", bytes.NewReader(body))
			req.Header.Set("X-Tenant", "client-1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: query HTTP %d", fe.name, resp.StatusCode)
			}
		}
		// Burn rates need two engine samples.
		fe.slo.Tick(time.Now())
		fe.slo.Tick(time.Now().Add(time.Second))
	}
	return fes
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d, %v", url, resp.StatusCode, err)
	}
	return body
}

// exposition is one parsed /v1/metrics scrape.
type exposition struct {
	kinds map[string]string // family -> TYPE
	// scalars holds the value of every family whose one sample carries
	// no labels.
	scalars map[string]float64
}

// parseExposition checks a Prometheus text scrape is well formed: each
// family has exactly one HELP and one TYPE line, its lines are not
// split or repeated, and every _total family is a counter.
func parseExposition(t *testing.T, who, text string) exposition {
	t.Helper()
	ex := exposition{kinds: map[string]string{}, scalars: map[string]float64{}}
	helps := map[string]int{}
	types := map[string]int{}
	ended := map[string]bool{}
	cur := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		var fam string
		if f := strings.Fields(line); len(f) >= 4 && f[0] == "#" {
			fam = f[2]
			switch f[1] {
			case "HELP":
				helps[fam]++
			case "TYPE":
				types[fam]++
				ex.kinds[fam] = f[3]
			}
		} else {
			name, value, _ := strings.Cut(line, " ")
			base, _, labelled := strings.Cut(name, "{")
			fam = base
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if b, ok := strings.CutSuffix(base, suffix); ok && ex.kinds[b] == "histogram" {
					fam = b
				}
			}
			if ex.kinds[fam] == "" {
				t.Errorf("%s: sample %q precedes its family's TYPE", who, line)
			}
			if !labelled {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					t.Errorf("%s: bad sample %q", who, line)
				}
				ex.scalars[fam] = v
			}
		}
		if fam != cur {
			if ended[fam] {
				t.Errorf("%s: family %s repeats", who, fam)
			}
			ended[cur], cur = true, fam
		}
	}
	for fam, kind := range ex.kinds {
		if helps[fam] != 1 || types[fam] != 1 {
			t.Errorf("%s: family %s has %d HELP and %d TYPE lines, want one each", who, fam, helps[fam], types[fam])
		}
		if strings.HasSuffix(fam, "_total") && kind != "counter" {
			t.Errorf("%s: family %s is a %s, want counter", who, fam, kind)
		}
	}
	return ex
}

// TestMetricsExpositionWellFormed scrapes both front-ends — a cluster
// member whose pool has a second scheduler, and a single-node server —
// and checks every family is declared once and emitted once.
func TestMetricsExpositionWellFormed(t *testing.T) {
	for _, fe := range planeFrontEnds(t) {
		ex := parseExposition(t, fe.name, string(getBody(t, fe.url+"/v1/metrics")))
		for _, want := range []string{"sea_sched_queue_depth", "sea_queries_total", "sea_go_gc_cycles_total",
			"sea_path_latency_seconds", "sea_tenant_latency_seconds", "sea_slo_state"} {
			if ex.kinds[want] == "" {
				t.Errorf("%s: /v1/metrics has no %s family", fe.name, want)
			}
		}
	}
}

// TestHistoryIsTheMetricsRegistry checks the flight history and
// /v1/metrics read one registry on both front-ends: the scalar history
// series are exactly the unlabelled scalar families under the naming
// rule (sea_<name>, plus _total for counters), of the same kind, and a
// series that holds still reads the same value in both.
func TestHistoryIsTheMetricsRegistry(t *testing.T) {
	derived := func(name string) bool {
		return strings.HasPrefix(name, "lat_") || strings.HasPrefix(name, "slo_") || name == "cache_hit_rate"
	}
	moving := func(name string) bool {
		return strings.HasPrefix(name, "go_") || name == "qps" || name == "uptime_seconds"
	}
	for _, fe := range planeFrontEnds(t) {
		fe.flight.Tick(time.Now())
		ex := parseExposition(t, fe.name, string(getBody(t, fe.url+"/v1/metrics")))
		var listing struct {
			Metrics []string `json:"metrics"`
		}
		if err := json.Unmarshal(getBody(t, fe.url+"/v1/history"), &listing); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range listing.Metrics {
			if seen[name] {
				t.Errorf("%s: history lists %s twice", fe.name, name)
			}
			seen[name] = true
			if derived(name) {
				continue
			}
			// A registry name is bare: a sea_ prefix or _total suffix in
			// history would be a second copy of a metrics family.
			if strings.HasPrefix(name, "sea_") || strings.HasSuffix(name, "_total") {
				t.Errorf("%s: history series %s is not a registry name", fe.name, name)
			}
			var h flight.History
			if err := json.Unmarshal(getBody(t, fe.url+"/v1/history?metric="+name), &h); err != nil {
				t.Fatal(err)
			}
			expo := "sea_" + name
			if h.Kind == "counter" {
				expo += "_total"
			}
			v, ok := ex.scalars[expo]
			if !ok || ex.kinds[expo] != h.Kind {
				t.Errorf("%s: history %s (%s) has no %s family %s on /v1/metrics", fe.name, name, h.Kind, h.Kind, expo)
				continue
			}
			if last := h.Points[len(h.Points)-1].V; !moving(name) && last != v {
				t.Errorf("%s: %s reads %v in history, %v on /v1/metrics", fe.name, name, last, v)
			}
		}
		for expo, kind := range ex.kinds {
			if _, scalar := ex.scalars[expo]; !scalar || kind == "histogram" {
				continue
			}
			name := strings.TrimPrefix(expo, "sea_")
			if kind == "counter" {
				name = strings.TrimSuffix(name, "_total")
			}
			if !seen[name] {
				t.Errorf("%s: /v1/metrics family %s has no history series %s", fe.name, expo, name)
			}
		}
	}
}

// TestPlaneRoutesWithoutFlight checks a node without the flight
// recorder still mounts its routes and answers them 404.
func TestPlaneRoutesWithoutFlight(t *testing.T) {
	lc := traceTestCluster(t, Config{})
	url := lc.URL(lc.IDs()[0])
	if _, err := lc.Client().Answer(wholeSpace(query.Count, 0)); err != nil {
		t.Fatal(err)
	}
	for path, code := range map[string]int{
		"/v1/history":       http.StatusNotFound,
		"/v1/debug/bundles": http.StatusNotFound,
		"/v1/debug/traces":  http.StatusOK,
		"/healthz":          http.StatusOK,
		"/debug/pprof/":     http.StatusNotFound,
	} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("GET %s: HTTP %d, want %d", path, resp.StatusCode, code)
		}
	}
}
