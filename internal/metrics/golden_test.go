package metrics

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenRecorder fills a recorder so that every family WriteRecorder
// writes has cells: every answer path, two tenant classes (one with a
// rejection), both audit sources, an SLO engine ticked on a synthetic
// clock and one registered scalar.
func goldenRecorder() *ServeRecorder {
	r := NewServeRecorder()
	ms := time.Millisecond
	for i, p := range []Path{PathCache, PathModel, PathExactLocal, PathExactScatter} {
		r.ObservePath(time.Duration(i+1)*ms, p)
		r.ObservePath(time.Duration(3*(i+1))*ms, p)
	}
	r.DedupPath(7*ms, PathExactLocal)
	r.Reject()
	r.Error()
	r.IngestBatch(64)
	r.DriftInvalidate(2)
	r.Rebuild()
	r.RPCRetry()
	r.Hedge()
	r.DegradedAnswer()

	eng := NewSLOEngine(r, SLOConfig{LatencyObjective: 10 * ms})
	r.SetSLO(eng)
	t0 := time.Unix(1_700_000_000, 0)
	eng.Tick(t0)
	for i := 0; i < 20; i++ {
		r.Tenant("interactive").Observe(time.Duration(i%5+1) * ms)
		r.Tenant("batch").Observe(time.Duration(20*(i%3+1)) * ms)
	}
	r.TenantReject("batch")
	eng.Tick(t0.Add(30 * time.Second))

	r.RecordAudit("avg", "fallback", 0.01)
	r.RecordAudit("avg", "shadow", 0.05)
	r.RecordAudit("count", "fallback", 0.002)

	r.Register(Series{Name: "wal_segments", Help: "WAL segment files.", Read: func() float64 { return 4 }})
	return r
}

// TestWriteRecorderGolden pins the whole exposition of goldenRecorder,
// byte for byte. The two wall-clock series (qps, uptime) are masked.
func TestWriteRecorderGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRecorder().WriteRecorder(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")
	for i, l := range lines {
		for _, name := range []string{"sea_qps ", "sea_uptime_seconds "} {
			if strings.HasPrefix(l, name) {
				lines[i] = name + "<wall clock>"
			}
		}
	}
	got := strings.Join(lines, "\n")
	path := filepath.Join("testdata", "writerecorder.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from %s (rerun with -update to accept):\n%s", path, got)
	}
}

// TestTenantClassBound drives 70 distinct classes: every surface that
// lists classes (the per-class counters and latency histogram, the
// snapshot behind /v1/stats and the SLO engine) shows 64 of them plus
// "other".
func TestTenantClassBound(t *testing.T) {
	r := NewServeRecorder()
	eng := NewSLOEngine(r, SLOConfig{})
	r.SetSLO(eng)
	t0 := time.Unix(1_700_000_000, 0)
	eng.Tick(t0)
	for i := 0; i < 70; i++ {
		class := fmt.Sprintf("class%02d", i)
		r.Tenant(class).Observe(time.Millisecond)
		r.TenantReject(class)
	}
	eng.Tick(t0.Add(time.Second))

	const want = maxTenantClasses + 1
	tenants := r.Snapshot().Tenants
	if len(tenants) != want {
		t.Fatalf("snapshot has %d classes, want %d", len(tenants), want)
	}
	other := tenants["other"]
	if other.Queries != 70-maxTenantClasses || other.Rejected != 70-maxTenantClasses {
		t.Fatalf("other = %+v, want the %d overflow classes' counts", other, 70-maxTenantClasses)
	}
	if n := len(eng.States()); n != want {
		t.Fatalf("SLO engine has %d classes, want %d", n, want)
	}
	var b strings.Builder
	if err := r.WriteRecorder(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, prefix := range []string{
		"sea_tenant_queries_total{",
		"sea_tenant_rejected_total{",
		"sea_tenant_inflight{",
		"sea_tenant_latency_seconds_count{",
		"sea_slo_state{",
	} {
		if n := strings.Count(out, "\n"+prefix); n != want {
			t.Errorf("%s… has %d cells, want %d", prefix, n, want)
		}
	}
	if !strings.Contains(out, `sea_tenant_queries_total{class="other"} 6`) {
		t.Errorf("exposition lacks the overflow cell:\n%s", out)
	}
}
