package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/explain"
	"repro/internal/geo"
	"repro/internal/polystore"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E9Row reports explanation quality (C7).
type E9Row struct {
	ExplainedFrac float64
	MeanR2        float64
	MeanMAPE      float64
	QueriesSaved  int
	QueriesAsked  int
}

// E9Explanations trains an agent, derives explanations for held-out
// queries, and scores their fidelity and queries-saved.
func E9Explanations(nRows int) (E9Row, error) {
	env, err := NewEnv(nRows, 8, 71)
	if err != nil {
		return E9Row{}, err
	}
	oracle := exec.CohortOracle{Ex: env.Executor}
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 300
	agent, err := core.NewAgent(oracle, cfg)
	if err != nil {
		return E9Row{}, err
	}
	qs := stream(72, query.Count)
	for i := 0; i < 400; i++ {
		if _, err := agent.Answer(qs.Next()); err != nil {
			return E9Row{}, err
		}
	}
	eng := explain.New(agent)
	var row E9Row
	var r2Sum, mapeSum float64
	var explained int
	const attempts = 20
	for i := 0; i < attempts; i++ {
		q := qs.Next()
		ex, err := eng.Explain(q)
		if err != nil {
			continue
		}
		explained++
		r2, mape, err := explain.Fidelity(ex, oracle, 8)
		if err != nil {
			return E9Row{}, err
		}
		r2Sum += r2
		mapeSum += mape
		saved, err := explain.QueriesSaved(ex, oracle, 10, 0.3)
		if err != nil {
			return E9Row{}, err
		}
		row.QueriesSaved += saved
		row.QueriesAsked += 10
	}
	row.ExplainedFrac = float64(explained) / float64(attempts)
	if explained > 0 {
		row.MeanR2 = r2Sum / float64(explained)
		row.MeanMAPE = mapeSum / float64(explained)
	}
	return row, nil
}

// E10Row reports the geo-distributed contrast (C8, Fig. 3).
type E10Row struct {
	AllToCoreWAN   int64
	SEAWAN         int64
	WANSavingsX    float64
	LocalRate      float64
	P50            time.Duration
	P95            time.Duration
	AllToCore50    time.Duration
	ModelShipBytes int64
}

// E10Geo deploys edges over a WAN, trains at the core, ships models, and
// compares WAN traffic and latency against the all-queries-to-core
// baseline.
func E10Geo(nRows, trainQueries, evalQueries int) (E10Row, error) {
	env, err := NewEnv(nRows, 8, 81)
	if err != nil {
		return E10Row{}, err
	}
	cfg := geo.DefaultConfig(2)
	d, err := geo.Deploy(env.Executor, cfg)
	if err != nil {
		return E10Row{}, err
	}
	qs := stream(82, query.Count)
	if _, err := d.TrainAtCore(qs.Batch(trainQueries)); err != nil {
		return E10Row{}, err
	}
	shipped, err := d.ShipModels([]query.Agg{query.Count}, 0, 0)
	if err != nil {
		return E10Row{}, err
	}
	wanAfterShip := d.WANBytes()

	queries := qs.Batch(evalQueries)
	lats, _, err := d.Latencies(queries)
	if err != nil {
		return E10Row{}, err
	}
	seaWAN := d.WANBytes() - wanAfterShip

	// Baseline: every evaluation query crosses the WAN to the core
	// (96 B per round trip, as the deployment charges).
	allToCore := int64(evalQueries) * 96
	row := E10Row{
		AllToCoreWAN:   allToCore,
		SEAWAN:         seaWAN,
		LocalRate:      d.LocalRate(),
		P50:            geo.Percentile(lats, 0.5),
		P95:            geo.Percentile(lats, 0.95),
		AllToCore50:    cfg.WAN.WANLatency * 2,
		ModelShipBytes: shipped,
	}
	if seaWAN > 0 {
		row.WANSavingsX = float64(allToCore) / float64(seaWAN)
	} else {
		// No WAN traffic at all during evaluation: savings are bounded
		// only by the baseline's absolute traffic.
		row.WANSavingsX = float64(allToCore)
	}
	return row, nil
}

// E12Row reports the polystore strategy contrast (C10).
type E12Row struct {
	ShipDataBytes  int64
	ShipPairsBytes int64
	ShipModelBytes int64
	ShipPairsErr   float64
	ShipModelErr   float64
}

// E12Polystore compares the three cross-system strategies on a
// trend-structured entity attribute.
func E12Polystore(nEntities int) (E12Row, error) {
	cl := clusterOf(8)
	tbl, err := cluster.NewTable(cl, "entities", []string{"x"}, 8)
	if err != nil {
		return E12Row{}, err
	}
	rng := workload.NewRNG(91)
	ys := make(map[uint64]float64, nEntities)
	var rows []storage.Row
	for i := 0; i < nEntities; i++ {
		key := uint64(i)
		trend := float64(i) * 0.01
		x := trend + rng.NormFloat64()*0.2
		ys[key] = 2*trend + 1 + rng.NormFloat64()*0.2
		rows = append(rows, storage.Row{Key: key, Vec: []float64{x}})
	}
	if err := tbl.Load(rows); err != nil {
		return E12Row{}, err
	}
	a := polystore.New(cl, &polystore.TableSystem{Table: tbl, XCol: 0}, polystore.NewDocSystem(ys))
	lo, hi := uint64(0), uint64(nEntities/4)
	vals, bytes, err := a.CompareStrategies(lo, hi, 6)
	if err != nil {
		return E12Row{}, err
	}
	exact := vals["ship-data"]
	return E12Row{
		ShipDataBytes:  bytes["ship-data"],
		ShipPairsBytes: bytes["ship-pairs"],
		ShipModelBytes: bytes["ship-model"],
		ShipPairsErr:   polystore.AbsError(vals["ship-pairs"], exact),
		ShipModelErr:   polystore.AbsError(vals["ship-model"], exact),
	}, nil
}

// AblationRow is a generic (parameter, metric...) row for A1-A5.
type AblationRow struct {
	Param          float64
	MAPE           float64
	PredictionRate float64
	Extra          float64
}

// A1Quanta sweeps quantisation granularity (spawn distance) and reports
// accuracy and prediction rate (DESIGN.md ablation A1).
func A1Quanta(nRows int, spawnDistances []float64) ([]AblationRow, error) {
	env, err := NewEnv(nRows, 8, 101)
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, sd := range spawnDistances {
		cfg := core.DefaultConfig(2)
		cfg.TrainingQueries = 300
		cfg.SpawnDistance = sd
		agent, err := core.NewAgent(exec.CohortOracle{Ex: env.Executor}, cfg)
		if err != nil {
			return nil, err
		}
		qs := stream(102, query.Count)
		for i := 0; i < 300; i++ {
			if _, err := agent.Answer(qs.Next()); err != nil {
				return nil, err
			}
		}
		mape, rate, err := scoreAgent(env, agent, qs, 150)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Param: sd, MAPE: mape, PredictionRate: rate,
			Extra: float64(agent.Quanta()),
		})
	}
	return out, nil
}

// A2ModelFamily scores the candidate per-quantum model families of
// RT3.3 by cross-validated RMSE on real (query, answer) pairs from one
// interest region (DESIGN.md ablation A2). The returned map is keyed by
// family name.
func A2ModelFamily(nRows int) (map[string]float64, error) {
	env, err := NewEnv(nRows, 8, 109)
	if err != nil {
		return nil, err
	}
	qs := stream(110, query.Count)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		q := qs.Next()
		truth, _, err := env.Executor.ExactCohort(q)
		if err != nil {
			return nil, err
		}
		xs = append(xs, q.Vectorize(2))
		ys = append(ys, truth.Value)
	}
	_, scores, err := optimizerSelect(xs, ys)
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// A3Fallback sweeps the error threshold (DESIGN.md ablation A3):
// accuracy of predictions vs how often base data is touched.
func A3Fallback(nRows int, thresholds []float64) ([]AblationRow, error) {
	env, err := NewEnv(nRows, 8, 103)
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, th := range thresholds {
		cfg := core.DefaultConfig(2)
		cfg.TrainingQueries = 300
		cfg.FallbackThreshold = th
		agent, err := core.NewAgent(exec.CohortOracle{Ex: env.Executor}, cfg)
		if err != nil {
			return nil, err
		}
		qs := stream(104, query.Count)
		for i := 0; i < 300; i++ {
			if _, err := agent.Answer(qs.Next()); err != nil {
				return nil, err
			}
		}
		mape, rate, err := scoreAgent(env, agent, qs, 150)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{Param: th, MAPE: mape, PredictionRate: rate})
	}
	return out, nil
}

// A4RankJoinBatch sweeps the threshold algorithm's pull batch size.
func A4RankJoinBatch(nRows int, batches []int) ([]AblationRow, error) {
	env, err := NewEnv(100, 8, 105)
	if err != nil {
		return nil, err
	}
	rng := workload.NewRNG(106)
	r, err := cluster.NewTable(env.Cluster, "R", []string{"score"}, 16)
	if err != nil {
		return nil, err
	}
	s, err := cluster.NewTable(env.Cluster, "S", []string{"score"}, 16)
	if err != nil {
		return nil, err
	}
	if err := r.Load(workload.ZipfKeys(rng, nRows, uint64(nRows/2), 1.2, 64, 0)); err != nil {
		return nil, err
	}
	if err := s.Load(workload.ZipfKeys(rng, nRows, uint64(nRows/2), 1.2, 64, 0)); err != nil {
		return nil, err
	}
	op, err := rankjoinNew(env, r, s)
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, b := range batches {
		op.BatchRows = b
		_, cost, err := op.Threshold(10)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Param: float64(b),
			MAPE:  cost.Time.Seconds(),
			Extra: float64(cost.RowsRead),
		})
	}
	return out, nil
}

// A5GeoRouting contrasts CoreOnly vs PeerFirst policies when models are
// shipped to only one edge.
func A5GeoRouting(nRows int) (map[string]float64, error) {
	out := make(map[string]float64, 2)
	for _, policy := range []geo.RoutingPolicy{geo.CoreOnly, geo.PeerFirst} {
		env, err := NewEnv(nRows, 8, 107)
		if err != nil {
			return nil, err
		}
		cfg := geo.DefaultConfig(2)
		cfg.Policy = policy
		d, err := geo.Deploy(env.Executor, cfg)
		if err != nil {
			return nil, err
		}
		qs := stream(108, query.Count)
		if _, err := d.TrainAtCore(qs.Batch(400)); err != nil {
			return nil, err
		}
		// Asymmetric placement: only edge 0 receives models.
		centers := d.CoreAgent.QuantumCenters()
		for qi, c := range centers {
			if w := d.CoreAgent.ExportModel(query.Count, 0, 0, qi); w != nil {
				nq := d.Edges[0].Agent.SeedQuantum(c, 6)
				d.Edges[0].Agent.ImportModel(query.Count, 0, 0, nq, w, 64, 0.05)
			}
		}
		before := d.WANBytes()
		if _, _, err := d.Latencies(qs.Batch(200)); err != nil {
			return nil, err
		}
		name := "core-only"
		if policy == geo.PeerFirst {
			name = "peer-first"
		}
		out[name] = float64(d.WANBytes() - before)
	}
	return out, nil
}

func scoreAgent(env *Env, agent *core.Agent, qs *workload.QueryStream, n int) (mape, rate float64, err error) {
	var sum float64
	var cnt, pred int
	for i := 0; i < n; i++ {
		q := qs.Next()
		truth, _, err := env.Executor.ExactCohort(q)
		if err != nil {
			return 0, 0, err
		}
		ans, err := agent.Answer(q)
		if err != nil {
			return 0, 0, err
		}
		if ans.Predicted {
			pred++
			if truth.Value > 20 {
				d := ans.Value - truth.Value
				if d < 0 {
					d = -d
				}
				sum += d / truth.Value
				cnt++
			}
		}
	}
	if cnt > 0 {
		mape = sum / float64(cnt)
	}
	return mape, float64(pred) / float64(n), nil
}
