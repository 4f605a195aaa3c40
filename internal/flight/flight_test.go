package flight

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
)

// clock is a synthetic tick clock: every call advances one period.
type clock struct {
	now    time.Time
	period time.Duration
}

func newClock(period time.Duration) *clock {
	return &clock{now: time.Unix(1_700_000_000, 0), period: period}
}

func (c *clock) tick(r *Recorder) time.Time {
	c.now = c.now.Add(c.period)
	r.Tick(c.now)
	return c.now
}

// TestRingWraparound drives a small hi-res ring past capacity and
// checks History replays exactly the retained window, in order.
func TestRingWraparound(t *testing.T) {
	r := New(Config{HiSlots: 8, LoSlots: 4})
	v := 0.0
	r.AddGauge("g", func() float64 { return v })
	ck := newClock(time.Second)
	for i := 1; i <= 20; i++ {
		v = float64(i)
		ck.tick(r)
	}
	h, ok := r.History("g", 0)
	if !ok {
		t.Fatal("series not found")
	}
	if len(h.Points) != 8 {
		t.Fatalf("got %d points after wraparound, want 8", len(h.Points))
	}
	for i, p := range h.Points {
		if want := float64(13 + i); p.V != want {
			t.Fatalf("point %d: v=%v, want %v", i, p.V, want)
		}
		if i > 0 && p.TUnixMs <= h.Points[i-1].TUnixMs {
			t.Fatalf("timestamps not increasing at %d: %v <= %v", i, p.TUnixMs, h.Points[i-1].TUnixMs)
		}
	}
}

// TestHistoryPartialWindow checks a half-filled ring and a trailing
// window narrower than the data.
func TestHistoryPartialWindow(t *testing.T) {
	r := New(Config{HiSlots: 8, LoSlots: 4})
	v := 0.0
	r.AddGauge("g", func() float64 { return v })
	ck := newClock(time.Second)
	for i := 1; i <= 5; i++ {
		v = float64(i)
		ck.tick(r)
	}
	h, _ := r.History("g", 0)
	if len(h.Points) != 5 {
		t.Fatalf("partial ring: got %d points, want 5", len(h.Points))
	}
	h, _ = r.History("g", 2*time.Second)
	if len(h.Points) != 3 { // lastT, lastT-1s, lastT-2s
		t.Fatalf("2s window: got %d points, want 3", len(h.Points))
	}
	if h.Points[0].V != 3 || h.Points[2].V != 5 {
		t.Fatalf("2s window replayed wrong values: %+v", h.Points)
	}
	if _, ok := r.History("nope", 0); ok {
		t.Fatal("unknown metric reported ok")
	}
}

// TestDownsampleSemantics checks the lo-res fold: gauges average the
// window, counters keep the last cumulative value, and wide windows
// select the downsampled resolution.
func TestDownsampleSemantics(t *testing.T) {
	r := New(Config{HiSlots: 8, LoSlots: 4, Downsample: 3})
	var g, c float64
	r.AddGauge("g", func() float64 { return g })
	r.add("c", metrics.KindCounter, -1, false, func() float64 { return c })
	ck := newClock(time.Second)
	gauges := []float64{1, 2, 3, 4, 5, 6}
	counters := []float64{10, 20, 30, 40, 50, 60}
	for i := range gauges {
		g, c = gauges[i], counters[i]
		ck.tick(r)
	}
	wide := 10 * time.Second // > HiSlots*Period: forces the lo ring
	gh, _ := r.History("g", wide)
	if gh.Resolution != "3s" {
		t.Fatalf("lo-res resolution %q, want 3s", gh.Resolution)
	}
	if len(gh.Points) != 2 || gh.Points[0].V != 2 || gh.Points[1].V != 5 {
		t.Fatalf("gauge fold should average (want 2,5): %+v", gh.Points)
	}
	ch, _ := r.History("c", wide)
	if len(ch.Points) != 2 || ch.Points[0].V != 30 || ch.Points[1].V != 60 {
		t.Fatalf("counter fold should keep last cumulative (want 30,60): %+v", ch.Points)
	}
	hi, _ := r.History("g", 4*time.Second)
	if hi.Resolution != "1s" {
		t.Fatalf("narrow window should stay hi-res, got %q", hi.Resolution)
	}
}

// TestAnomalySpike checks the robust detector: a steady series absorbs
// jitter, a spike fires once, and the quiet period holds a sustained
// excursion to a single event.
func TestAnomalySpike(t *testing.T) {
	r := New(Config{Anomaly: true, AnomalyWindow: 10, AnomalyZ: 8})
	v := 0.0
	r.add("g", metrics.KindGauge, -1, true, func() float64 { return v })
	ck := newClock(time.Second)
	for i := 0; i < 20; i++ {
		v = 100 + float64(i%3) // mild jitter
		ck.tick(r)
	}
	if got := r.Status().Anomalies; got != 0 {
		t.Fatalf("steady series fired %d anomalies", got)
	}
	v = 1000
	for i := 0; i < 5; i++ {
		ck.tick(r) // sustained spike inside one quiet window
	}
	evs := r.Anomalies()
	if len(evs) != 1 {
		t.Fatalf("spike fired %d anomalies, want exactly 1: %+v", len(evs), evs)
	}
	if evs[0].Metric != "g" || evs[0].Value != 1000 || evs[0].Z < 8 {
		t.Fatalf("bad anomaly event: %+v", evs[0])
	}
}

// TestCounterResetNoFalseAnomaly restarts a watched counter (cumulative
// value drops to near zero) and checks the detector reads the post-
// reset value as the new rate instead of a huge negative spike.
func TestCounterResetNoFalseAnomaly(t *testing.T) {
	r := New(Config{Anomaly: true, AnomalyWindow: 10, AnomalyZ: 8})
	v := 0.0
	r.add("c", metrics.KindCounter, -1, true, func() float64 { return v })
	ck := newClock(time.Second)
	for i := 0; i < 20; i++ {
		v += 10 // steady 10/tick
		ck.tick(r)
	}
	v = 8 // restart: cumulative value resets, one tick's worth of activity
	ck.tick(r)
	for i := 0; i < 5; i++ {
		v += 10
		ck.tick(r)
	}
	if evs := r.Anomalies(); len(evs) != 0 {
		t.Fatalf("counter reset raised anomalies: %+v", evs)
	}
}

// TestTriggerCapturesBundle fires the SLO-critical trigger and checks
// the spooled bundle is complete: metadata, goroutine dump, CPU and
// heap profiles, trace rings and the status snapshot, all non-empty.
func TestTriggerCapturesBundle(t *testing.T) {
	spool := t.TempDir()
	critical := false
	r := New(Config{
		Node: "n-test", SpoolDir: spool, CPUProfile: 20 * time.Millisecond,
		CriticalFn: func() bool { return critical },
		StatusFn:   func() any { return map[string]string{"node": "n-test"} },
	})
	r.AddGauge("g", func() float64 { return 1 })
	ck := newClock(time.Second)
	ck.tick(r)
	critical = true
	ck.tick(r)
	r.Flush()

	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.Kind != "slo_critical" {
		t.Fatalf("bundle kind %q, want slo_critical", b.Kind)
	}
	for _, file := range []string{
		"meta.json", "goroutines.txt", "cpu.pprof", "heap.pprof",
		"traces.json", "status.json",
	} {
		p, err := r.BundleFile(b.ID, file)
		if err != nil {
			t.Fatalf("bundle missing %s: %v", file, err)
		}
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("bundle file %s empty or unreadable (err=%v)", file, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(spool, b.ID, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Node string `json:"node"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Node != "n-test" || meta.Kind != "slo_critical" {
		t.Fatalf("bad bundle metadata: %+v", meta)
	}
	st := r.Status()
	if st.Triggers != 1 || st.SpoolBundles != 1 || st.SpoolBytes == 0 ||
		st.LastTrigger == "" {
		t.Fatalf("status does not reflect the capture: %+v", st)
	}

	// Path traversal must not resolve.
	for _, bad := range [][2]string{
		{"../" + b.ID, "meta.json"}, {b.ID, "../meta.json"}, {b.ID, "a/b"},
	} {
		if _, err := r.BundleFile(bad[0], bad[1]); err == nil {
			t.Fatalf("BundleFile(%q, %q) resolved", bad[0], bad[1])
		}
	}
}

// TestTriggerCooldown holds the critical signal high across many ticks
// and checks exactly one bundle lands per cooldown window, with the
// suppressed firings counted; advancing the tick clock past the
// cooldown admits the next capture.
func TestTriggerCooldown(t *testing.T) {
	critical := true
	r := New(Config{
		SpoolDir: t.TempDir(), CPUProfile: time.Millisecond,
		Cooldown:   5 * time.Minute,
		CriticalFn: func() bool { return critical },
	})
	r.AddGauge("g", func() float64 { return 1 })
	ck := newClock(time.Second)
	for i := 0; i < 30; i++ {
		ck.tick(r)
	}
	r.Flush()
	if n := len(r.Bundles()); n != 1 {
		t.Fatalf("%d bundles inside one cooldown window, want 1", n)
	}
	if st := r.Status(); st.SuppressedTrigger == 0 {
		t.Fatalf("suppressed firings not counted: %+v", st)
	}

	ck.now = ck.now.Add(6 * time.Minute) // past the cooldown
	ck.tick(r)
	r.Flush()
	if n := len(r.Bundles()); n != 2 {
		t.Fatalf("%d bundles after cooldown expiry, want 2", n)
	}
}

// TestSpoolEviction overflows the spool and checks the oldest bundles
// leave first.
func TestSpoolEviction(t *testing.T) {
	critical := true
	r := New(Config{
		SpoolDir: t.TempDir(), SpoolMax: 2, CPUProfile: time.Millisecond,
		Cooldown:   time.Nanosecond,
		CriticalFn: func() bool { return critical },
	})
	r.AddGauge("g", func() float64 { return 1 })
	ck := newClock(time.Second)
	for i := 0; i < 5; i++ {
		ck.tick(r)
		r.Flush() // serialize captures so eviction order is deterministic
	}
	bundles := r.Bundles()
	if len(bundles) != 2 {
		t.Fatalf("spool holds %d bundles, want 2", len(bundles))
	}
	if bundles[0].AtUnixMs >= bundles[1].AtUnixMs {
		t.Fatalf("bundles out of age order: %+v", bundles)
	}
	// The two newest captures (ticks 4 and 5) must be the survivors.
	if want := ck.now.UnixMilli(); bundles[1].AtUnixMs != want {
		t.Fatalf("newest bundle at %d, want %d", bundles[1].AtUnixMs, want)
	}
}

// TestExemplarLinkage runs the instrumented latency path and checks the
// p99 history point carries the slowest traced query's id.
func TestExemplarLinkage(t *testing.T) {
	rec := metrics.NewServeRecorder()
	r := New(Config{HiSlots: 8})
	r.Instrument(rec)
	rec.ObservePath(5*time.Millisecond, metrics.PathExactScatter)
	rec.ObservePath(9*time.Millisecond, metrics.PathExactScatter)
	r.NoteTraced(metrics.PathExactScatter, 5*time.Millisecond, "tr-fast")
	r.NoteTraced(metrics.PathExactScatter, 9*time.Millisecond, "tr-slow")
	ck := newClock(time.Second)
	ck.tick(r)
	for _, metric := range []string{"lat_p99_exact_scatter", "lat_p99_all"} {
		h, ok := r.History(metric, 0)
		if !ok || len(h.Points) == 0 {
			t.Fatalf("%s: no history", metric)
		}
		last := h.Points[len(h.Points)-1]
		if last.TraceID != "tr-slow" {
			t.Fatalf("%s: exemplar %q, want tr-slow", metric, last.TraceID)
		}
		if last.V <= 0 {
			t.Fatalf("%s: p99 not sampled: %+v", metric, last)
		}
	}
	// The harvest is per tick: the next window has no traced queries,
	// so its point carries no exemplar.
	ck.tick(r)
	h, _ := r.History("lat_p99_exact_scatter", 0)
	if last := h.Points[len(h.Points)-1]; last.TraceID != "" {
		t.Fatalf("stale exemplar leaked into next window: %+v", last)
	}
}
