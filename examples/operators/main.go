// Operators: the paper's big-data-less operators (P3) side by side —
// rank-join with a statistical index, kNN with a grid index, and the
// subgraph semantic cache — each contrasted against its MapReduce-era
// baseline on identical data, printing the cost gap the paper claims.
package main

import (
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/knn"
	"repro/internal/rankjoin"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "operators:", err)
		os.Exit(1)
	}
}

func run() error {
	cl := cluster.New(8, cluster.DefaultConfig())
	eng := engine.New(cl)
	rng := workload.NewRNG(21)

	// --- Rank-join (ref [30], claim C2) ---
	r, err := cluster.NewTable(cl, "R", []string{"score"}, 16)
	if err != nil {
		return err
	}
	s, err := cluster.NewTable(cl, "S", []string{"score"}, 16)
	if err != nil {
		return err
	}
	if err := r.Load(workload.ZipfKeys(rng, 50_000, 25_000, 1.2, 64, 0)); err != nil {
		return err
	}
	if err := s.Load(workload.ZipfKeys(rng, 50_000, 25_000, 1.2, 64, 0)); err != nil {
		return err
	}
	rj, err := rankjoin.New(eng, r, s, 0)
	if err != nil {
		return err
	}
	top, mrCost, err := rj.MapReduce(10)
	if err != nil {
		return err
	}
	_, thCost, err := rj.Threshold(10)
	if err != nil {
		return err
	}
	fmt.Println("rank-join top-10 over 2x50k rows:")
	fmt.Printf("  best pair: key=%d combined=%.3f\n", top[0].Key, top[0].Combined())
	fmt.Printf("  mapreduce: %v, %d rows, %d bytes\n", mrCost.Time, mrCost.RowsRead, mrCost.BytesLAN)
	fmt.Printf("  threshold: %v, %d rows, %d bytes  (%.0fx faster)\n\n",
		thCost.Time, thCost.RowsRead, thCost.BytesLAN,
		float64(mrCost.Time)/float64(thCost.Time))

	// --- kNN (ref [33], claim C3) ---
	pts, err := cluster.NewTable(cl, "pts", []string{"x", "y", "z"}, 16)
	if err != nil {
		return err
	}
	if err := pts.Load(workload.GaussianMixture(rng, 50_000, 3, workload.DefaultMixture(3), 0)); err != nil {
		return err
	}
	kop, err := knn.New(eng, pts, 2, 24)
	if err != nil {
		return err
	}
	q := []float64{25, 25}
	nbrs, scanCost, err := kop.Scan(q, 10)
	if err != nil {
		return err
	}
	_, idxCost, err := kop.Indexed(q, 10)
	if err != nil {
		return err
	}
	fmt.Println("10-NN of (25,25) over 50k rows:")
	fmt.Printf("  nearest: key=%d dist=%.3f\n", nbrs[0].Row.Key, nbrs[0].Dist)
	fmt.Printf("  scan:    %v, %d rows\n", scanCost.Time, scanCost.RowsRead)
	fmt.Printf("  indexed: %v, %d rows  (%.0fx faster)\n\n",
		idxCost.Time, idxCost.RowsRead,
		float64(scanCost.Time)/float64(idxCost.Time))

	// --- Subgraph semantic cache (refs [34][35], claim C4) ---
	graphs := make([]*graph.Graph, 400)
	for i := range graphs {
		g, err := graph.RandomGraph(rng, 10+rng.Intn(8), 0.22, 4)
		if err != nil {
			return err
		}
		graphs[i] = g
	}
	store := graph.NewStore(cl, graphs)
	cache := graph.NewCache(store, 32)
	pattern, err := graph.SamplePattern(rng, graphs[5], 4)
	if err != nil {
		return err
	}
	ids, coldCost := cache.Query(pattern)
	_, hotCost := cache.Query(pattern)
	fmt.Println("subgraph query over a 400-graph database:")
	fmt.Printf("  matches: %d graphs\n", len(ids))
	fmt.Printf("  cold: %v    hot (cache hit): %v  (%.0fx faster)\n",
		coldCost.Time, hotCost.Time,
		float64(coldCost.Time)/float64(hotCost.Time))
	return nil
}
