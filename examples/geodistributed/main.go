// Geodistributed: the paper's Fig. 3 scenario. Three regions of edge
// nodes front a data-holding core across a WAN; training queries build
// models at the core, the models (not the data) ship to the edges, and
// subsequent analytics are answered at the edge with WAN fallback only
// when local error estimates are too high.
package main

import (
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geodistributed:", err)
		os.Exit(1)
	}
}

func run() error {
	// The core data centre.
	cl := cluster.New(8, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "core", []string{"x", "y", "z"}, 16)
	if err != nil {
		return err
	}
	rng := workload.NewRNG(11)
	rows := workload.GaussianMixture(rng, 20_000, 3, workload.DefaultMixture(3), 0)
	if err := tbl.Load(rows); err != nil {
		return err
	}
	ex, err := exec.New(eng, tbl)
	if err != nil {
		return err
	}

	// Three regions, two edges each.
	cfg := geo.DefaultConfig(2)
	dep, err := geo.Deploy(ex, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("deployed %d edges in %d regions around 1 core\n",
		len(dep.Edges), cfg.Regions)

	// Phase 1: training queries flow edge -> core over the WAN; the core
	// trains one central agent on the pooled stream (RT5.2).
	qs := workload.NewQueryStream(workload.NewRNG(12), workload.DefaultRegions(2), query.Count)
	if _, err := dep.TrainAtCore(qs.Batch(400)); err != nil {
		return err
	}
	fmt.Printf("core trained %d query-space quanta; WAN so far: %d bytes\n",
		dep.CoreAgent.Quanta(), dep.WANBytes())

	// Phase 2: ship models (not data!) to every edge.
	shipped, err := dep.ShipModels([]query.Agg{query.Count}, 0, 0)
	if err != nil {
		return err
	}
	dataBytes := tbl.Rows() * tbl.RowBytes()
	fmt.Printf("shipped %d bytes of models vs %d bytes of base data (%.0fx smaller)\n",
		shipped, dataBytes, float64(dataBytes)/float64(shipped))

	// Phase 3: edges answer locally; measure latency and WAN traffic.
	before := dep.WANBytes()
	lats, _, err := dep.Latencies(qs.Batch(300))
	if err != nil {
		return err
	}
	fmt.Printf("300 queries: local-answer rate %.0f%%, WAN bytes %d (all-to-core would be %d)\n",
		dep.LocalRate()*100, dep.WANBytes()-before, 300*96)
	fmt.Printf("latency: p50=%v p95=%v (a WAN round trip alone is %v)\n",
		geo.Percentile(lats, 0.5), geo.Percentile(lats, 0.95), 2*cfg.WAN.WANLatency)
	for i, st := range dep.Stats() {
		fmt.Printf("  edge %d (region %d): local=%d peer=%d core=%d\n",
			i, st.Region, st.Local, st.Peer, st.Core)
	}
	return nil
}
