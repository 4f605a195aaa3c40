package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// observe records a model answer when predicted, an exact local one
// otherwise.
func observe(r *ServeRecorder, lat time.Duration, predicted bool) {
	p := PathExactLocal
	if predicted {
		p = PathModel
	}
	r.ObservePath(lat, p)
}

func TestServeRecorderCountersAndPercentiles(t *testing.T) {
	r := NewServeRecorder()
	for i := 1; i <= 100; i++ {
		observe(r, time.Duration(i)*time.Millisecond, i%10 != 0)
	}
	r.Reject()
	r.DedupPath(2*time.Millisecond, PathExactLocal)
	r.Error()

	s := r.Snapshot()
	// A deduped answer counts as a query but not as a fallback: only
	// the one shared oracle execution does.
	if s.Queries != 101 || s.Predicted != 90 || s.Fallbacks != 10 {
		t.Errorf("counters: %+v", s)
	}
	if s.Rejected != 1 || s.Deduped != 1 || s.Errors != 1 {
		t.Errorf("event counters: %+v", s)
	}
	if want := 10.0 / 101.0; s.FallbackRate != want {
		t.Errorf("fallback rate = %v, want %v", s.FallbackRate, want)
	}
	// 100 samples of 1..100ms: p50 ~ 50ms, p99 ~ 99-100ms, max 100ms.
	if s.P50 < 45*time.Millisecond || s.P50 > 55*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P99 < 95*time.Millisecond || s.P99 > 100*time.Millisecond {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("max = %v", s.Max)
	}
	if s.QPS <= 0 {
		t.Errorf("qps = %v", s.QPS)
	}
}

func TestServeRecorderLifetimeHistogram(t *testing.T) {
	r := NewServeRecorder()
	// The recorder keeps lifetime histograms (not a sliding window): all
	// 20 observations shape the percentiles, and the max stays exact.
	for i := 1; i <= 20; i++ {
		observe(r, time.Duration(i)*time.Second, true)
	}
	s := r.Snapshot()
	if s.Queries != 20 {
		t.Errorf("queries = %d, want 20", s.Queries)
	}
	if s.Max != 20*time.Second {
		t.Errorf("max = %v, want 20s", s.Max)
	}
	if s.P50 < 9*time.Second || s.P50 > 11*time.Second {
		t.Errorf("p50 = %v, want ~10s over the full history", s.P50)
	}
	if s.P99 < 18*time.Second || s.P99 > 20*time.Second {
		t.Errorf("p99 = %v, want near the 20s tail", s.P99)
	}
}

func TestServeRecorderPerPath(t *testing.T) {
	r := NewServeRecorder()
	r.ObservePath(1*time.Millisecond, PathCache)
	r.ObservePath(2*time.Millisecond, PathModel)
	r.ObservePath(80*time.Millisecond, PathExactScatter)
	r.ObservePath(90*time.Millisecond, PathExactScatter)

	s := r.Snapshot()
	if s.Queries != 4 || s.CacheHits != 1 || s.Predicted != 1 || s.Fallbacks != 2 {
		t.Fatalf("path-derived counters: %+v", s)
	}
	ps, ok := s.Paths[PathExactScatter.String()]
	if !ok {
		t.Fatalf("snapshot missing exact_scatter path stats: %v", s.Paths)
	}
	if ps.Count != 2 || ps.Max != 90*time.Millisecond {
		t.Fatalf("exact_scatter stats = %+v", ps)
	}
	if got := s.Paths[PathCache.String()]; got.Count != 1 {
		t.Fatalf("cache path stats = %+v", got)
	}
	// Unused paths stay out of the snapshot map.
	if _, ok := s.Paths[PathExactLocal.String()]; ok {
		t.Fatalf("snapshot has stats for the unused exact_local path")
	}
}

func TestTenantClassStats(t *testing.T) {
	if got := ClassOf("client-17"); got != "client" {
		t.Fatalf("ClassOf(client-17) = %q", got)
	}
	if got := ClassOf(""); got != "default" {
		t.Fatalf("ClassOf(\"\") = %q", got)
	}
	r := NewServeRecorder()
	for i := 0; i < 3; i++ {
		ts := r.Tenant("client")
		ts.Queries.Add(1)
		ts.Lat.RecordDur(time.Duration(i+1) * time.Millisecond)
	}
	r.TenantReject("batch")
	s := r.Snapshot()
	if s.Tenants["client"].Queries != 3 {
		t.Fatalf("tenant snapshot = %+v", s.Tenants)
	}
	if s.Tenants["batch"].Rejected != 1 {
		t.Fatalf("tenant reject not recorded: %+v", s.Tenants)
	}
}

func TestAuditRecorder(t *testing.T) {
	r := NewServeRecorder()
	r.RecordAudit("avg", "fallback", 0.10)
	r.RecordAudit("avg", "fallback", 0.30)
	r.RecordAudit("sum", "shadow", 0.05)
	if n := r.auditSamples.Load(); n != 3 {
		t.Fatalf("samples = %d, want 3", n)
	}
	mape, fn := r.AuditMAPE("fallback")
	if fn != 2 {
		t.Fatalf("fallback sample count = %d, want 2", fn)
	}
	if mape < 0.19 || mape > 0.21 {
		t.Fatalf("fallback MAPE = %v, want ~0.20", mape)
	}
	snaps := r.Snapshot().Audit
	if len(snaps) != 2 {
		t.Fatalf("audit snapshot rows = %d, want 2 (one per key)", len(snaps))
	}
	for _, as := range snaps {
		if as.Source == "shadow" && (as.MAPE < 0.049 || as.MAPE > 0.051) {
			t.Fatalf("shadow MAPE = %v, want ~0.05", as.MAPE)
		}
	}
}

func TestServeRecorderConcurrent(t *testing.T) {
	r := NewServeRecorder()
	var wg sync.WaitGroup
	const workers, each = 16, 200
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				observe(r, time.Microsecond, i%2 == 0)
				r.Tenant(fmt.Sprintf("c%d", (w+i)%8)).Observe(time.Microsecond)
				r.RecordAudit("avg", "shadow", 0.01)
				if i%50 == 0 {
					_ = r.Snapshot()
					if err := r.WriteRecorder(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Queries != workers*each {
		t.Errorf("queries = %d, want %d", s.Queries, workers*each)
	}
	var tenantQueries int64
	for _, ts := range s.Tenants {
		tenantQueries += ts.Queries
	}
	if len(s.Tenants) != 8 || tenantQueries != workers*each {
		t.Errorf("tenants = %d classes, %d queries; want 8, %d", len(s.Tenants), tenantQueries, workers*each)
	}
	if len(s.Audit) != 1 || s.Audit[0].Count != workers*each {
		t.Errorf("audit = %+v, want one cell of %d", s.Audit, workers*each)
	}
}

func TestIngestAndDriftCounters(t *testing.T) {
	r := NewServeRecorder()
	r.IngestBatch(10)
	r.IngestBatch(5)
	r.DriftInvalidate(3)
	r.DriftInvalidate(0) // no-op
	r.Rebuild()
	s := r.Snapshot()
	if s.IngestBatches != 2 || s.IngestRows != 15 {
		t.Fatalf("ingest counters = %d batches / %d rows, want 2/15", s.IngestBatches, s.IngestRows)
	}
	if s.DriftInvalidations != 3 {
		t.Fatalf("DriftInvalidations = %d, want 3", s.DriftInvalidations)
	}
	if s.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", s.Rebuilds)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewServeRecorder()
	observe(r, 2*time.Millisecond, true)
	observe(r, 4*time.Millisecond, false)
	r.IngestBatch(7)
	r.Rebuild()
	var buf strings.Builder
	if err := r.WriteRecorder(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sea_queries_total 2",
		"sea_predicted_total 1",
		"sea_fallbacks_total 1",
		"sea_ingest_rows_total 7",
		"sea_rebuilds_total 1",
		"# TYPE sea_queries_total counter",
		"# TYPE sea_qps gauge",
		"# TYPE sea_audit_samples_total counter",
		`sea_latency_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every sample line belongs to a family with one HELP and one TYPE.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && strings.Contains(out, "# TYPE "+base+" histogram") {
				name = base
			}
		}
		for _, tag := range []string{"# HELP ", "# TYPE "} {
			if n := strings.Count(out, tag+name+" "); n != 1 {
				t.Fatalf("series %s has %d %q lines:\n%s", name, n, tag, out)
			}
		}
	}
}

func TestRegistryKeepsFirstRegistration(t *testing.T) {
	r := NewServeRecorder()
	n := len(r.Series())
	r.Register(Series{Name: "depth", Help: "first", Read: func() float64 { return 1 }})
	r.Register(Series{Name: "depth", Help: "second", Read: func() float64 { return 2 }})
	r.Register(Series{Name: "queries", Help: "shadow", Kind: KindCounter, Read: func() float64 { return 9 }})
	series := r.Series()
	if len(series) != n+1 {
		t.Fatalf("registry grew by %d, want 1", len(series)-n)
	}
	last := series[len(series)-1]
	if last.Name != "depth" || last.Help != "first" || last.Read() != 1 {
		t.Fatalf("later registration replaced the first: %+v", last)
	}
	for _, s := range series {
		if s.Name == "queries" && (s.Read() != 0 || s.ExpoName() != "sea_queries_total") {
			t.Fatalf("builtin queries series shadowed: %+v", s)
		}
	}
}

func TestWriteRecorderHistograms(t *testing.T) {
	r := NewServeRecorder()
	r.ObservePath(2*time.Millisecond, PathModel)
	r.ObservePath(40*time.Millisecond, PathExactScatter)
	ts := r.Tenant("client")
	ts.Queries.Add(1)
	ts.Lat.RecordDur(3 * time.Millisecond)
	r.TenantReject("client")
	r.RecordAudit("avg", "shadow", 0.02)
	r.Register(Series{Name: "wal_segments", Help: "WAL segment files.", Read: func() float64 { return 4 }})

	var buf strings.Builder
	if err := r.WriteRecorder(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sea_path_latency_seconds histogram",
		`sea_path_latency_seconds_bucket{path="model",le="+Inf"} 1`,
		`sea_path_latency_seconds_count{path="exact_scatter"} 1`,
		`sea_tenant_queries_total{class="client"} 1`,
		`sea_tenant_rejected_total{class="client"} 1`,
		"# TYPE sea_tenant_latency_seconds histogram",
		"# TYPE sea_audit_error histogram",
		`sea_audit_error_count{agg="avg",source="shadow"} 1`,
		"sea_audit_samples_total 1",
		"sea_wal_segments 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("recorder exposition missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at the count.
	if !strings.Contains(out, `sea_path_latency_seconds_sum{path="model"} 0.002`) {
		t.Fatalf("model path _sum wrong:\n%s", out)
	}
}
