package geo

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/workload"
)

func buildCore(t *testing.T, nRows int) *exec.Executor {
	t.Helper()
	cl := cluster.New(8, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "core", []string{"x", "y", "z"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(101)
	rows := workload.GaussianMixture(rng, nRows, 3, workload.DefaultMixture(3), 0)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(eng, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func deploy(t *testing.T, policy RoutingPolicy) (*Deployment, *workload.QueryStream) {
	t.Helper()
	ex := buildCore(t, 8000)
	cfg := DefaultConfig(2)
	cfg.Policy = policy
	d, err := Deploy(ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.NewQueryStream(workload.NewRNG(102), workload.DefaultRegions(2), query.Count)
	return d, qs
}

func TestDeployValidation(t *testing.T) {
	ex := buildCore(t, 100)
	cfg := DefaultConfig(2)
	cfg.EdgesPerRegion = 0
	if _, err := Deploy(ex, cfg); err == nil {
		t.Error("zero edges accepted")
	}
}

func TestDistributedModelBuildingAndShipping(t *testing.T) {
	d, qs := deploy(t, CoreOnly)
	if len(d.Edges) != 6 {
		t.Fatalf("edges = %d, want 6", len(d.Edges))
	}
	// Train at core from pooled edge queries.
	if _, err := d.TrainAtCore(qs.Batch(400)); err != nil {
		t.Fatal(err)
	}
	wanBefore := d.WANBytes()
	if wanBefore == 0 {
		t.Error("training forwarded no WAN bytes")
	}
	shipped, err := d.ShipModels([]query.Agg{query.Count}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shipped == 0 {
		t.Fatal("no models shipped")
	}
	// Model shipping must be tiny compared to the data (8000 rows x 32B).
	if shipped > 8000*32/10 {
		t.Errorf("shipped %d bytes of models; data is only %d", shipped, 8000*32)
	}

	// After shipping, edges answer mostly locally.
	queries := qs.Batch(300)
	lats, _, err := d.Latencies(queries)
	if err != nil {
		t.Fatal(err)
	}
	if rate := d.LocalRate(); rate < 0.5 {
		t.Errorf("local answer rate = %v, want >= 0.5 (stats %+v)", rate, d.Stats())
	}
	// Local answers avoid WAN latency: p50 must be far below one WAN RTT.
	p50 := Percentile(lats, 0.5)
	if p50 >= d.cfg.WAN.WANLatency {
		t.Errorf("p50 latency %v >= WAN latency %v", p50, d.cfg.WAN.WANLatency)
	}
}

func TestCoreFallbackForUnknownRegions(t *testing.T) {
	d, qs := deploy(t, CoreOnly)
	if _, err := d.TrainAtCore(qs.Batch(350)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ShipModels([]query.Agg{query.Count}, 0, 0); err != nil {
		t.Fatal(err)
	}
	// A query far outside every trained quantum must fall back and still
	// return the exact answer.
	q := query.Query{
		Select:    query.Selection{Center: []float64{-400, -400}, Radius: 5},
		Aggregate: query.Count,
	}
	ans, err := d.Answer(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Predicted {
		t.Error("far-region query should not be predicted")
	}
	if ans.Cost.BytesWAN == 0 {
		t.Error("core fallback paid no WAN bytes")
	}
	if ans.Cost.Time < d.cfg.WAN.WANLatency {
		t.Errorf("fallback latency %v below WAN latency", ans.Cost.Time)
	}
}

func TestPeerFirstRouting(t *testing.T) {
	d, qs := deploy(t, PeerFirst)
	if _, err := d.TrainAtCore(qs.Batch(400)); err != nil {
		t.Fatal(err)
	}
	// Ship models to edge 0 only, simulating asymmetric placement: other
	// edges must find answers at their peer instead of the core.
	centers := d.CoreAgent.QuantumCenters()
	for qi, c := range centers {
		if w := d.CoreAgent.ExportModel(query.Count, 0, 0, qi); w != nil {
			nq := d.Edges[0].Agent.SeedQuantum(c, 6)
			d.Edges[0].Agent.ImportModel(query.Count, 0, 0, nq, w, 64, 0.05)
		}
	}
	var peerAnswers int
	for i := 0; i < 100; i++ {
		ans, err := d.Answer(3, qs.Next()) // edge 3 holds no models
		if err != nil {
			t.Fatal(err)
		}
		if ans.Predicted {
			peerAnswers++
		}
	}
	if peerAnswers == 0 {
		t.Error("peer-first routing never used the peer's models")
	}
	stats := d.Stats()
	if stats[3].Peer == 0 {
		t.Errorf("edge 3 peer counter = 0: %+v", stats)
	}
}

func TestNotifyDataChangePropagates(t *testing.T) {
	d, qs := deploy(t, CoreOnly)
	if _, err := d.TrainAtCore(qs.Batch(400)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ShipModels([]query.Agg{query.Count}, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Warm up local answering.
	if _, _, err := d.Latencies(qs.Batch(50)); err != nil {
		t.Fatal(err)
	}
	preLocal := d.LocalRate()
	if preLocal == 0 {
		t.Fatal("premise broken: no local answers before invalidation")
	}
	d.NotifyDataChange(nil)
	// Immediately after invalidation, edges must fall back.
	q := qs.Next()
	ans, err := d.Answer(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Predicted {
		t.Error("edge predicted right after global invalidation")
	}
}

func TestPercentile(t *testing.T) {
	lats := []time.Duration{1, 2, 3, 4, 5}
	if Percentile(lats, 0) != 1 || Percentile(lats, 1) != 5 {
		t.Error("percentile endpoints wrong")
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}
