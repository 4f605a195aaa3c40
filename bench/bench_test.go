package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// stubOps is a sequence of n identical queries: the stub servers below
// answer anything.
func stubOps(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{body: []byte(`{}`)}
	}
	return ops
}

// A 200 ms stall in the server must delay every op that came due behind
// it on that connection, and show in the tail of the charged latency —
// a generator that timed ops from their actual send would report one
// slow op and hide the queue (coordinated omission).
func TestStallDelaysTheOpsQueuedBehindIt(t *testing.T) {
	const n, rate, stallAt = 1500, 1000.0, 300
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if served.Add(1) == stallAt {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer srv.Close()
	g := newGenerator(stubOps(n), []string{srv.URL}, 1)
	defer g.close()
	ph := g.openLoop("stall", 0, n, rate)

	lat := sortedValues(ph.latencies(g.ops, false))
	p99, err := percentile(lat, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 < 100 {
		t.Errorf("p99 of the charged latency is %.1f ms; a 200 ms stall with ~200 ops due behind it must show", p99)
	}
	queued := 0
	for _, v := range lat {
		if v > 50 {
			queued++
		}
	}
	if queued < 100 {
		t.Errorf("%d ops were charged more than 50 ms, want the ~150 that came due during the stall", queued)
	}
	if a := ph.achieved(); a < minAchieved {
		t.Errorf("generator kept %.3f of the timetable after the stall", a)
	}
}

// A timer that wakes the generator late while the connection sits idle
// is the generator's lateness, not the system's latency.
func TestLateWakeIsLatenessNotLatency(t *testing.T) {
	const n, rate = 1200, 500.0
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	g := newGenerator(stubOps(n), []string{srv.URL}, 1)
	defer g.close()
	g.sleep = func(d time.Duration) { time.Sleep(d + 5*time.Millisecond) }
	ph := g.openLoop("late", 0, n, rate)

	late, err := lateP99(ph)
	if err != nil {
		t.Fatal(err)
	}
	if late < 3 {
		t.Errorf("gen.late_p99_ms = %.2f, want the 5 ms each wake-up overslept", late)
	}
	lat := sortedValues(ph.latencies(g.ops, false))
	p90, err := percentile(lat, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p90 > 2.5 {
		t.Errorf("p90 of the charged latency is %.2f ms against an instant server: late wake-ups leaked into latency", p90)
	}
}

func TestEqualSeedsGiveIdenticalOps(t *testing.T) {
	for _, sp := range specs {
		n := sp.warmOps + 3000
		a, b := genOps(sp, 7, n), genOps(sp, 7, n)
		other := genOps(sp, 8, n)
		longer := genOps(sp, 7, n+1000)
		same := 0
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: op %d differs between two draws of seed 7", sp.name, i)
			}
			if !bytes.Equal(a[i].body, longer[i].body) {
				t.Fatalf("%s: op %d changes when the sequence is drawn longer", sp.name, i)
			}
			if i < sp.warmOps && !bytes.Equal(a[i].body, other[i].body) {
				t.Fatalf("%s: warm-up op %d depends on the seed", sp.name, i)
			}
			if i >= sp.warmOps && bytes.Equal(a[i].body, other[i].body) {
				same++
			}
		}
		// dash-1n repeats its catalogue on purpose; the other workloads never repeat.
		limit := 0
		if sp.name == "dash-1n" {
			limit = 1600
		}
		if same > limit {
			t.Errorf("%s: seeds 7 and 8 share %d of 3000 timed ops", sp.name, same)
		}
		if sp.ingestEvery > 0 && (!a[sp.warmOps+sp.ingestEvery-1].ingest || a[sp.warmOps].ingest || a[sp.ingestEvery-1].ingest) {
			t.Errorf("%s: ingest batches are not at every %d-th timed op and nowhere in the warm-up", sp.name, sp.ingestEvery)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with exactly ten samples beyond", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples has nine beyond it and must be refused")
	}
	var ts []timed
	for i := 0; i < 900; i++ { // the last third of the span stays thin
		ts = append(ts, timed{at: time.Duration(i%600) * time.Millisecond, v: 1})
	}
	if _, err := windowed(ts, 900*time.Millisecond, 3, 0.9); err == nil {
		t.Error("a window with no samples must refuse its percentile")
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4)
// gives, because the driver computes spreads with that.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestVerdicts(t *testing.T) {
	around := func(centre, step float64) spread {
		var v []float64
		for i := -2; i <= 2; i++ {
			v = append(v, centre+float64(i)*step)
		}
		return spreadOf(v, "ms")
	}
	for _, c := range []struct {
		name        string
		a, b        spread
		lowerBetter bool
		want        string
	}{
		{"equal medians", around(100, 1), around(101, 1), true, "same"},
		{"slower", around(100, 1), around(120, 1), true, "worse"},
		{"faster", around(100, 1), around(80, 1), true, "better"},
		{"more throughput", around(100, 1), around(120, 1), false, "better"},
		{"noisy and overlapping", around(100, 20), around(112, 20), true, "unresolved"},
		{"noisy but every run worse", around(100, 8), around(200, 8), true, "worse"},
	} {
		if got, _ := verdict(c.a, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in
// metrics.go and workloads.go are what the program prints.
func TestManifestMatchesThePrintedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit, Better string }
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	names := func(defs []metricDef) []listed {
		var out []listed
		for _, d := range defs {
			out = append(out, listed{d.name, d.unit, d.better})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return out
	}
	sortListed := func(l []listed) []listed {
		sort.Slice(l, func(i, j int) bool { return l[i].Name < l[j].Name })
		return l
	}
	for _, c := range []struct {
		what string
		code []listed
		file []listed
	}{
		{"end_to_end", names(endToEndDefs), sortListed(man.EndToEnd)},
		{"per_layer", names(perLayerDefs), sortListed(man.PerLayer)},
	} {
		if len(c.code) != len(c.file) {
			t.Errorf("%s: metrics.go lists %d metrics, BENCHMARK.json %d", c.what, len(c.code), len(c.file))
			continue
		}
		for i := range c.code {
			if c.code[i] != c.file[i] {
				t.Errorf("%s: metrics.go has %+v where BENCHMARK.json has %+v", c.what, c.code[i], c.file[i])
			}
		}
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads.go %d", len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in workloads.go", i, w.Name, specs[i].name)
		}
	}
}
