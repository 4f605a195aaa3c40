package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func lines(buf *bytes.Buffer) []map[string]any {
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if ln == "" {
			continue
		}
		m := map[string]any{}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			panic("bad JSON line " + ln + ": " + err.Error())
		}
		out = append(out, m)
	}
	return out
}

func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	l.Debug("hidden")
	l.Info("served", "trace_id", "t-123", "lat_ms", 42, "ok", true, "frac", 0.5)
	l.Error("boom", "err", "quote\" and\nnewline")
	got := lines(&buf)
	if len(got) != 2 {
		t.Fatalf("got %d lines, want 2 (debug suppressed): %v", len(got), got)
	}
	if got[0]["level"] != "info" || got[0]["msg"] != "served" ||
		got[0]["trace_id"] != "t-123" || got[0]["lat_ms"] != float64(42) ||
		got[0]["ok"] != true || got[0]["frac"] != 0.5 {
		t.Fatalf("info line = %v", got[0])
	}
	if got[1]["err"] != "quote\" and\nnewline" {
		t.Fatalf("escaping mangled value: %v", got[1])
	}
	if _, err := time.Parse(time.RFC3339Nano, got[0]["ts"].(string)); err != nil {
		t.Fatalf("bad ts: %v", err)
	}
}

func TestLoggerWith(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo).With("node", "n1", "part", 3)
	l.Info("replicated", "seq", int64(9))
	got := lines(&buf)
	if got[0]["node"] != "n1" || got[0]["part"] != float64(3) || got[0]["seq"] != float64(9) {
		t.Fatalf("With fields missing: %v", got[0])
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("nothing", "k", "v")
	l.SetLevel(LevelDebug)
	l.SetRateLimit(1, 1)
	if l.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
	if l.With("a", 1) != nil {
		t.Fatal("nil With should stay nil")
	}
	if l.Dropped() != 0 {
		t.Fatal("nil Dropped != 0")
	}
}

func TestLoggerRateLimit(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	l.SetRateLimit(0.001, 2) // 2 burst, then effectively nothing
	for i := 0; i < 10; i++ {
		l.Info("spam", "i", i)
	}
	got := lines(&buf)
	if len(got) != 2 {
		t.Fatalf("rate limit let %d lines through, want 2", len(got))
	}
	if l.Dropped() != 8 {
		t.Fatalf("Dropped = %d, want 8", l.Dropped())
	}
	// The drop count rides on the next emitted line.
	l.SetRateLimit(0, 0)
	l.Info("after")
	got = lines(&buf)
	last := got[len(got)-1]
	if last["dropped"] != float64(8) {
		t.Fatalf("dropped annotation missing: %v", last)
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped counter not reset: %d", l.Dropped())
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Info("m", "g", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	if got := lines(&buf); len(got) != 400 {
		t.Fatalf("got %d intact lines, want 400", len(got))
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"error": LevelError, "off": levelOff, "": LevelInfo, "bogus": LevelInfo,
	} {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestRuntimeSampler(t *testing.T) {
	s := NewRuntimeSampler(time.Hour)
	runtime.GC()
	runtime.GC()
	s.Sample()
	snap := s.Snapshot()
	if snap.Goroutines <= 0 || snap.HeapAlloc == 0 || snap.HeapSys == 0 {
		t.Fatalf("implausible snapshot: %+v", snap)
	}
	if snap.GCCycles == 0 || snap.GCPauseMax == 0 {
		t.Fatalf("GC pauses not folded: %+v", snap)
	}

	rec := metrics.NewServeRecorder()
	s.Register(rec)
	var b strings.Builder
	if err := rec.WriteRecorder(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sea_go_goroutines gauge", "sea_go_heap_alloc_bytes gauge",
		"sea_go_gc_cycles_total counter", "sea_go_gc_pause_p99_seconds gauge",
		"sea_go_gc_percent gauge", "sea_go_heap_goal_bytes gauge"} {
		if !strings.Contains(b.String(), "# TYPE "+name+"\n") {
			t.Fatalf("exposition missing %s", name)
		}
	}
	// The GC gauges read the runtime's own setting and goal.
	defer debug.SetGCPercent(debug.SetGCPercent(37))
	s.Sample()
	b.Reset()
	if err := rec.WriteRecorder(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nsea_go_gc_percent 37\n") {
		t.Fatal("sea_go_gc_percent does not read the GC percent")
	}
	if s.heapGoal.Load() < s.heapAlloc.Load()/2 {
		t.Fatalf("heap goal %d below half the heap in use %d", s.heapGoal.Load(), s.heapAlloc.Load())
	}

	var nilS *RuntimeSampler
	nilS.Sample()
	nilS.Start()
	nilS.Stop()
	nilS.Register(rec)
	if (nilS.Snapshot() != RuntimeSnap{}) {
		t.Fatal("nil sampler snapshot not zero")
	}
}

func TestRuntimeSamplerStartStop(t *testing.T) {
	s := NewRuntimeSampler(time.Millisecond)
	s.Start()
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	s.Stop()
	if s.Snapshot().Goroutines == 0 {
		t.Fatal("background sampler never ran")
	}
}
