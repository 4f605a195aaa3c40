package experiments

import (
	"math"
	"time"

	"repro/internal/aqp"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/impute"
	"repro/internal/knn"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/rankjoin"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E2CountAccuracy compares the SEA agent against an AQP engine on count
// queries: accuracy (MAPE), per-query base rows touched, and the AQP
// sample's storage footprint (C1 and the §II critique of ref [17]).
func E2CountAccuracy(nRows, training, eval int, sampleFraction float64) (E2Row, error) {
	env, err := NewEnv(nRows, 8, 11)
	if err != nil {
		return E2Row{}, err
	}
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = training
	agent, err := core.NewAgent(exec.CohortOracle{Ex: env.Executor}, cfg)
	if err != nil {
		return E2Row{}, err
	}
	aqpEng, _, err := aqp.Build(env.Engine, env.Table, sampleFraction, true, 12)
	if err != nil {
		return E2Row{}, err
	}
	qs := stream(13, query.Count)
	for i := 0; i < training; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			return E2Row{}, err
		}
	}
	row := E2Row{
		Training:       training,
		SampleFraction: sampleFraction,
		AQPSampleBytes: aqpEng.SampleBytes(),
	}
	var seaErr, aqpErr float64
	var seaN, aqpN int
	var seaRows, aqpRows, exactRows int64
	var predicted int
	for i := 0; i < eval; i++ {
		q := qs.Next()
		truth, exactCost, err := env.Executor.ExactCohort(q)
		if err != nil {
			return E2Row{}, err
		}
		exactRows += exactCost.RowsRead
		ans, err := agent.Answer(q)
		if err != nil {
			return E2Row{}, err
		}
		seaRows += ans.Cost.RowsRead
		if ans.Predicted {
			predicted++
			if truth.Value > 20 {
				seaErr += math.Abs(ans.Value-truth.Value) / truth.Value
				seaN++
			}
		}
		est, _, aqpCost, err := aqpEng.Answer(q)
		if err != nil {
			return E2Row{}, err
		}
		aqpRows += aqpCost.RowsRead
		if truth.Value > 20 {
			aqpErr += math.Abs(est.Value-truth.Value) / truth.Value
			aqpN++
		}
	}
	if seaN > 0 {
		row.SEAMAPE = seaErr / float64(seaN)
	}
	if aqpN > 0 {
		row.AQPMAPE = aqpErr / float64(aqpN)
	}
	row.SEARowsPerQ = float64(seaRows) / float64(eval)
	row.AQPRowsPerQ = float64(aqpRows) / float64(eval)
	row.ExactRowsPerQ = float64(exactRows) / float64(eval)
	row.PredictionRate = float64(predicted) / float64(eval)
	return row, nil
}

// E4Row is one rank-join contrast row (C2: up to 6 orders of magnitude).
type E4Row struct {
	Rows          int
	K             int
	MRTime        time.Duration
	ThresholdTime time.Duration
	SpeedupX      float64
	MRRows        int64
	ThresholdRows int64
	RowRatioX     float64
	MRBytes       int64
	THBytes       int64
	ByteRatioX    float64
	MRDollars     float64
	THDollars     float64
}

// E4RankJoin measures MapReduce vs threshold rank-join.
func E4RankJoin(nRows, k int) (E4Row, error) {
	env, err := NewEnv(100, 8, 21) // env only for the cluster/engine
	if err != nil {
		return E4Row{}, err
	}
	rng := workload.NewRNG(22)
	r, err := cluster.NewTable(env.Cluster, "R", []string{"score"}, 16)
	if err != nil {
		return E4Row{}, err
	}
	s, err := cluster.NewTable(env.Cluster, "S", []string{"score"}, 16)
	if err != nil {
		return E4Row{}, err
	}
	if err := r.Load(workload.ZipfKeys(rng, nRows, uint64(nRows/2), 1.2, 64, 0)); err != nil {
		return E4Row{}, err
	}
	if err := s.Load(workload.ZipfKeys(rng, nRows, uint64(nRows/2), 1.2, 64, 0)); err != nil {
		return E4Row{}, err
	}
	op, err := rankjoin.New(env.Engine, r, s, 0)
	if err != nil {
		return E4Row{}, err
	}
	_, mrCost, err := op.MapReduce(k)
	if err != nil {
		return E4Row{}, err
	}
	_, thCost, err := op.Threshold(k)
	if err != nil {
		return E4Row{}, err
	}
	prices := metrics.DefaultPrices()
	row := E4Row{
		Rows: nRows, K: k,
		MRTime: mrCost.Time, ThresholdTime: thCost.Time,
		MRRows: mrCost.RowsRead, ThresholdRows: thCost.RowsRead,
		MRBytes: mrCost.BytesLAN, THBytes: thCost.BytesLAN,
		MRDollars: prices.Dollars(mrCost), THDollars: prices.Dollars(thCost),
	}
	if thCost.Time > 0 {
		row.SpeedupX = float64(mrCost.Time) / float64(thCost.Time)
	}
	if thCost.RowsRead > 0 {
		row.RowRatioX = float64(mrCost.RowsRead) / float64(thCost.RowsRead)
	}
	if thCost.BytesLAN > 0 {
		row.ByteRatioX = float64(mrCost.BytesLAN) / float64(thCost.BytesLAN)
	}
	return row, nil
}

// E5Row is one kNN contrast row (C3: 3 orders of magnitude).
type E5Row struct {
	Rows        int
	K           int
	ScanTime    time.Duration
	IndexedTime time.Duration
	SpeedupX    float64
	ScanRows    int64
	IndexedRows int64
	RowRatioX   float64
}

// E5KNN measures scan vs indexed kNN, averaged over queries drawn near
// the data clusters.
func E5KNN(nRows, k, queries int) (E5Row, error) {
	env, err := NewEnv(nRows, 8, 31)
	if err != nil {
		return E5Row{}, err
	}
	op, err := knn.New(env.Engine, env.Table, 2, 24)
	if err != nil {
		return E5Row{}, err
	}
	rng := workload.NewRNG(32)
	regions := workload.DefaultRegions(2)
	var scanC, idxC metrics.Counter
	for i := 0; i < queries; i++ {
		q := workload.KNNPoint(rng, regions)
		_, sc, err := op.Scan(q, k)
		if err != nil {
			return E5Row{}, err
		}
		scanC.Observe(sc)
		_, ic, err := op.Indexed(q, k)
		if err != nil {
			return E5Row{}, err
		}
		idxC.Observe(ic)
	}
	row := E5Row{
		Rows: nRows, K: k,
		ScanTime: scanC.MeanTime(), IndexedTime: idxC.MeanTime(),
		ScanRows: scanC.Total().RowsRead, IndexedRows: idxC.Total().RowsRead,
	}
	if idxC.MeanTime() > 0 {
		row.SpeedupX = float64(scanC.MeanTime()) / float64(idxC.MeanTime())
	}
	if row.IndexedRows > 0 {
		row.RowRatioX = float64(row.ScanRows) / float64(row.IndexedRows)
	}
	return row, nil
}

// E6Row is the subgraph-cache contrast (C4: up to 40x).
type E6Row struct {
	Graphs       int
	Queries      int
	NoCacheTime  time.Duration
	CacheTime    time.Duration
	SpeedupX     float64
	ExactHits    int64
	SubHits      int64
	SuperHits    int64
	GraphsTested int64
}

// E6SubgraphCache runs a repeat-heavy pattern stream through the cache
// and the no-cache store.
func E6SubgraphCache(nGraphs, nQueries int, repeatFrac float64) (E6Row, error) {
	rng := workload.NewRNG(41)
	cl := clusterOf(8)
	graphs := make([]*graph.Graph, nGraphs)
	for i := range graphs {
		g, err := graph.RandomGraph(rng, 10+rng.Intn(8), 0.22, 4)
		if err != nil {
			return E6Row{}, err
		}
		graphs[i] = g
	}
	store := graph.NewStore(cl, graphs)
	cache := graph.NewCache(store, 32)

	// Pattern stream: a small pool reused with probability repeatFrac.
	var pool []*graph.Graph
	nextPattern := func() (*graph.Graph, error) {
		if len(pool) > 0 && rng.Float64() < repeatFrac {
			return pool[rng.Intn(len(pool))], nil
		}
		src := graphs[rng.Intn(len(graphs))]
		k := 3 + rng.Intn(4)
		if k > src.N() {
			k = src.N()
		}
		p, err := graph.SamplePattern(rng, src, k)
		if err != nil {
			return nil, err
		}
		pool = append(pool, p)
		return p, nil
	}

	var noCache, withCache metrics.Counter
	var tested int64
	for i := 0; i < nQueries; i++ {
		p, err := nextPattern()
		if err != nil {
			return E6Row{}, err
		}
		_, c1 := store.MatchAll(p)
		noCache.Observe(c1)
		_, c2 := cache.Query(p)
		withCache.Observe(c2)
		tested += c2.RowsRead
	}
	row := E6Row{
		Graphs: nGraphs, Queries: nQueries,
		NoCacheTime: noCache.Total().Time, CacheTime: withCache.Total().Time,
		ExactHits: cache.Hits, SubHits: cache.SubHits, SuperHits: cache.SuperHits,
		GraphsTested: tested,
	}
	if row.CacheTime > 0 {
		row.SpeedupX = float64(row.NoCacheTime) / float64(row.CacheTime)
	}
	return row, nil
}

// E7Row is the imputation contrast (C5).
type E7Row struct {
	Rows         int
	FullTime     time.Duration
	CentroidTime time.Duration
	SpeedupX     float64
	FullRMSE     float64
	CentroidRMSE float64
}

// E7Imputation masks 5% of cells and compares full-scan vs centroid
// imputation.
func E7Imputation(nRows int) (E7Row, error) {
	rng := workload.NewRNG(51)
	truth := workload.GaussianMixture(rng, nRows, 4, workload.DefaultMixture(4), 0)
	masked := make([]storage.Row, len(truth))
	for i, r := range truth {
		masked[i] = storage.Row{Key: r.Key, Vec: append([]float64(nil), r.Vec...)}
	}
	workload.MissingMask(rng, masked, 0.05)
	im := impute.New(clusterOf(8))
	full, fullCost, err := im.FullScan(masked)
	if err != nil {
		return E7Row{}, err
	}
	cent, centCost, err := im.Centroid(masked, 52)
	if err != nil {
		return E7Row{}, err
	}
	row := E7Row{
		Rows:     nRows,
		FullTime: fullCost.Time, CentroidTime: centCost.Time,
		FullRMSE:     impute.RMSE(truth, masked, full),
		CentroidRMSE: impute.RMSE(truth, masked, cent),
	}
	if centCost.Time > 0 {
		row.SpeedupX = float64(fullCost.Time) / float64(centCost.Time)
	}
	return row, nil
}

// E8Row is the optimizer evaluation (C6).
type E8Row struct {
	Accuracy        float64
	LearnedRegret   float64
	AlwaysMRRegret  float64
	AlwaysCCRegret  float64
	BestModelFamily string
}

// E8Optimizer trains the paradigm-selection model and scores it on held-
// out tasks; it also runs the RT3.3 inference-model selection on a
// nonlinear cost surface.
func E8Optimizer(nRows int) (E8Row, error) {
	env, err := NewEnv(nRows, 8, 61)
	if err != nil {
		return E8Row{}, err
	}
	if err := env.Executor.BuildGrid(16); err != nil {
		return E8Row{}, err
	}
	qs := stream(62, query.Count)
	train, _, err := optimizer.CollectRangeCorpus(env.Executor, qs.Batch(40))
	if err != nil {
		return E8Row{}, err
	}
	cm, err := optimizer.Train(train)
	if err != nil {
		return E8Row{}, err
	}
	held, _, err := optimizer.CollectRangeCorpus(env.Executor, qs.Batch(15))
	if err != nil {
		return E8Row{}, err
	}
	var fs []optimizer.Features
	var pairs []map[optimizer.Paradigm]float64
	for i := 0; i < len(held); i += 2 {
		fs = append(fs, held[i].F)
		pairs = append(pairs, map[optimizer.Paradigm]float64{
			held[i].Paradigm:   held[i].Seconds,
			held[i+1].Paradigm: held[i+1].Seconds,
		})
	}
	reg := optimizer.Regret(cm, fs, pairs)
	// Inference-model selection on the measured MapReduce costs.
	var xs [][]float64
	var ys []float64
	for _, smp := range train {
		if smp.Paradigm == optimizer.MapReduce {
			xs = append(xs, []float64{smp.F.Selectivity, math.Log1p(smp.F.Rows)})
			ys = append(ys, smp.Seconds)
		}
	}
	best, _, err := optimizer.SelectInferenceModel(xs, ys, 4, workload.NewRNG(63))
	if err != nil {
		return E8Row{}, err
	}
	return E8Row{
		Accuracy:        optimizer.Accuracy(cm, fs, pairs),
		LearnedRegret:   reg["learned"],
		AlwaysMRRegret:  reg["always-mapreduce"],
		AlwaysCCRegret:  reg["always-cohort"],
		BestModelFamily: best,
	}, nil
}

func clusterOf(n int) *cluster.Cluster {
	return cluster.New(n, cluster.DefaultConfig())
}

// rankjoinNew builds a rank-join operator over env's engine (shared by
// E4 and ablation A4).
func rankjoinNew(env *Env, r, s *cluster.Table) (*rankjoin.Operator, error) {
	return rankjoin.New(env.Engine, r, s, 0)
}

// optimizerSelect runs the RT3.3 inference-model selection (shared by
// E8 and ablation A2).
func optimizerSelect(xs [][]float64, ys []float64) (string, map[string]float64, error) {
	return optimizer.SelectInferenceModel(xs, ys, 4, workload.NewRNG(111))
}
