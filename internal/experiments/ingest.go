package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/workload"
)

// E15Row is one row of the live-data-plane scenario: a WAL-durable
// cluster serves a mixed read/ingest workload while the base data
// drifts, then (optionally) loses a node mid-ingest and recovers it by
// WAL replay + log-tail catch-up + model-snapshot warm-up.
type E15Row struct {
	Nodes    int `json:"nodes"`
	Replicas int `json:"replicas"`
	Quorum   int `json:"write_quorum"`
	Rows     int `json:"rows"`

	// Ingest accounting (the client-side ledger of the write stream).
	IngestBatches int `json:"ingest_batches"`
	AckedRows     int `json:"acked_rows"`
	FailedRows    int `json:"failed_rows"`

	// Read-side health under sustained ingest.
	ReadQueries    int           `json:"read_queries"`
	ReadQPS        float64       `json:"read_qps"`
	ReadP50        time.Duration `json:"read_p50_ns"`
	ReadP99        time.Duration `json:"read_p99_ns"`
	PredictionRate float64       `json:"pred_rate"`
	MaxStaleRows   int           `json:"max_stale_rows"`

	// Model accuracy vs the live exact answer (predicted answers only):
	// before ingest, right after the ingest burst, and after the
	// drift-triggered refresh.
	PreMAPE    float64 `json:"pre_mape"`
	DuringMAPE float64 `json:"during_mape"`
	PostMAPE   float64 `json:"post_mape"`

	// Maintenance accounting summed across members.
	DriftInvalidations int64 `json:"drift_invalidations"`
	Rebuilds           int64 `json:"rebuilds"`

	// Kill-and-recover phase (zero values when the scenario runs
	// without failover).
	LostAckedRows int64         `json:"lost_acked_rows"`
	BitIdentical  bool          `json:"bit_identical"`
	RecoveryTime  time.Duration `json:"recovery_ns"`
}

// e15Ledger tracks client-visible acked rows per partition.
type e15Ledger struct {
	mu    sync.Mutex
	acked map[int]int64
}

func (l *e15Ledger) record(resp dist.IngestResponse) (acked, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, pr := range resp.Parts {
		if pr.Acked {
			l.acked[pr.Part] += int64(pr.Rows)
		}
	}
	return resp.AckedRows, resp.FailedRows
}

// E15LiveIngest runs the live data plane scenario on an in-process
// cluster rooted at dataDir (each member keeps its own WAL tree under
// it): train, measure read accuracy, drive `readers` concurrent readers
// against a sustained ingest stream of `batches` x `batchRows` rows
// drawn from the same clustered distribution (so subspace counts grow
// and stale models are measurably wrong), then measure accuracy again
// after the drift-triggered refresh. With kill=true it also kills one
// member mid-ingest and proves recovery: no acked write lost, and the
// restarted member's partitions bit-identical to the never-killed
// holders'.
func E15LiveIngest(nRows, nodes, readers, perReader, training, batches, batchRows int, dataDir string, kill bool) (E15Row, error) {
	if nodes < 2 {
		nodes = 2
	}
	rows := workload.StandardRows(nRows, 1)
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = training
	agentCfg.DriftRowBudget = 150
	cfg := dist.Config{
		Agent:          agentCfg,
		Replicas:       2,
		WriteQuorum:    2, // every acked batch is on every owner
		DataDir:        dataDir,
		Workers:        4,
		TenantInflight: -1,
		RequantCheck:   250 * time.Millisecond,
	}
	lc, err := dist.StartLocal(nodes, cfg, rows)
	if err != nil {
		return E15Row{}, err
	}
	defer lc.Close()
	row := E15Row{Nodes: nodes, Replicas: 2, Quorum: 2, Rows: nRows}

	// Train one member, ship its models to the rest.
	ids := lc.IDs()
	trainer := lc.Node(ids[0])
	qs := stream(2, query.Count)
	for i := 0; i < training+training/2; i++ {
		if _, err := trainer.Answer("train", qs.Next()); err != nil {
			return row, err
		}
	}
	for _, id := range ids[1:] {
		if _, err := lc.Node(id).WarmFrom(lc.URL(ids[0])); err != nil {
			return row, err
		}
	}
	client := lc.Client()

	// probeMAPE measures predicted answers against the live exact
	// answer over a fixed probe set.
	probes := workload.NewQueryStream(workload.NewRNG(31), workload.DefaultRegions(2), query.Count).Batch(60)
	probeMAPE := func() (float64, error) {
		var sum float64
		var n int
		for _, q := range probes {
			ans, err := client.Answer(q)
			if err != nil {
				return 0, err
			}
			if !ans.Predicted {
				continue
			}
			truth, _, err := trainer.ScatterGather(q)
			if err != nil {
				return 0, err
			}
			if truth.Value > 0 {
				sum += math.Abs(ans.Value-truth.Value) / truth.Value
				n++
			}
		}
		if n == 0 {
			return math.NaN(), nil
		}
		return sum / float64(n), nil
	}
	if row.PreMAPE, err = probeMAPE(); err != nil {
		return row, err
	}

	// Live phase: concurrent readers against a sustained ingest stream.
	// Ingested rows follow the same clustered distribution, so every
	// interest region's COUNT grows — a stale model is measurably wrong.
	ledger := &e15Ledger{acked: make(map[int]int64)}
	ingestBatch := func(b int) error {
		fresh := workload.StandardRows(batchRows, 1000+int64(b))
		for i := range fresh {
			fresh[i].Key = uint64(10_000_000 + b*batchRows + i)
		}
		resp, err := client.Ingest(fresh)
		if err != nil {
			return err
		}
		acked, failed := ledger.record(resp)
		row.AckedRows += acked
		row.FailedRows += failed
		row.IngestBatches++
		return nil
	}

	type obs struct {
		lat       time.Duration
		predicted bool
		stale     int
	}
	all := make([][]obs, readers)
	var wg sync.WaitGroup
	readErrs := make([]error, readers)
	start := time.Now()
	wg.Add(readers)
	for w := 0; w < readers; w++ {
		go func(w int) {
			defer wg.Done()
			cs := workload.NewQueryStream(workload.NewRNG(400+int64(w)), workload.DefaultRegions(2), query.Count)
			for i := 0; i < perReader; i++ {
				t0 := time.Now()
				ans, err := client.Answer(cs.Next())
				if err != nil {
					readErrs[w] = err
					return
				}
				all[w] = append(all[w], obs{lat: time.Since(t0), predicted: ans.Predicted, stale: ans.FreshRows})
			}
		}(w)
	}
	for b := 0; b < batches; b++ {
		if err := ingestBatch(b); err != nil {
			wg.Wait()
			return row, err
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range readErrs {
		if err != nil {
			return row, fmt.Errorf("E15: reader failed during ingest: %w", err)
		}
	}

	var lats []time.Duration
	var predicted int
	for _, ws := range all {
		for _, o := range ws {
			lats = append(lats, o.lat)
			if o.predicted {
				predicted++
			}
			if o.stale > row.MaxStaleRows {
				row.MaxStaleRows = o.stale
			}
		}
	}
	row.ReadQueries = len(lats)
	if elapsed > 0 {
		row.ReadQPS = float64(row.ReadQueries) / elapsed.Seconds()
	}
	if row.ReadQueries > 0 {
		row.PredictionRate = float64(predicted) / float64(row.ReadQueries)
	}
	row.ReadP50, row.ReadP99 = durPercentile(lats, 0.50), durPercentile(lats, 0.99)

	if row.DuringMAPE, err = probeMAPE(); err != nil {
		return row, err
	}
	// Refresh: exact fallbacks on probation quanta plus the background
	// maintainers fold the new data mass into the models.
	refresh := workload.NewQueryStream(workload.NewRNG(61), workload.DefaultRegions(2), query.Count)
	for i := 0; i < 300; i++ {
		if _, err := client.Answer(refresh.Next()); err != nil {
			return row, err
		}
	}
	if row.PostMAPE, err = probeMAPE(); err != nil {
		return row, err
	}

	if kill && nodes >= 3 {
		victim := ids[len(ids)-1]
		// Mid-ingest kill: batches flow, the victim dies, batches keep
		// flowing (partitions with a dead owner miss quorum and are
		// reported unacked — the ledger only counts acked rows).
		for b := batches; b < batches+2; b++ {
			if err := ingestBatch(b); err != nil {
				return row, err
			}
		}
		lc.Kill(victim)
		for b := batches + 2; b < batches+5; b++ {
			if err := ingestBatch(b); err != nil {
				return row, err
			}
		}
		t0 := time.Now()
		if _, err := lc.Revive(victim, ids[0]); err != nil {
			return row, err
		}
		row.RecoveryTime = time.Since(t0)

		lost, identical, err := e15VerifyRecovery(lc, ledger, nRows)
		if err != nil {
			return row, err
		}
		row.LostAckedRows = lost
		row.BitIdentical = identical
	}

	// Maintenance accounting across members.
	for _, id := range ids {
		if node := lc.Node(id); node != nil {
			s := node.Status().Serving
			row.DriftInvalidations += s.DriftInvalidations
			row.Rebuilds += s.Rebuilds
		}
	}
	return row, nil
}

// e15VerifyRecovery checks the durability contract after the kill and
// revive: every holder of every partition has at least the base rows
// plus the acked ingest rows (no acked write lost), and all holders'
// partial aggregate states are bit-identical (the restarted member
// equals the never-killed replicas).
func e15VerifyRecovery(lc *dist.LocalCluster, ledger *e15Ledger, nRows int) (lost int64, identical bool, err error) {
	any := lc.Node(lc.IDs()[0])
	nParts := any.Partitions()
	countProbe := query.Query{
		Select:    query.Selection{Los: []float64{-1e9, -1e9}, His: []float64{1e9, 1e9}},
		Aggregate: query.Count,
	}
	varProbe := query.Query{
		Select:    query.Selection{Los: []float64{-1e9, -1e9}, His: []float64{1e9, 1e9}},
		Aggregate: query.Var, Col: 2,
	}
	identical = true
	ledger.mu.Lock()
	defer ledger.mu.Unlock()
	for p := 0; p < nParts; p++ {
		// Base rows are distributed round-robin by load order.
		expected := int64(nRows / nParts)
		if p < nRows%nParts {
			expected++
		}
		expected += ledger.acked[p]

		var ref []float64
		minCount := int64(math.MaxInt64)
		holders := 0
		for _, id := range any.PartitionOwners(p) {
			node := lc.Node(id)
			if node == nil {
				continue
			}
			holders++
			cnt, ok := node.PartialState(p, countProbe)
			if !ok {
				return 0, false, fmt.Errorf("E15: holder %s lost partition %d", id, p)
			}
			n := int64(query.MergeEval(countProbe, [][]float64{cnt}).Value)
			if n < minCount {
				minCount = n
			}
			st, _ := node.PartialState(p, varProbe)
			if ref == nil {
				ref = st
				continue
			}
			if len(st) != len(ref) {
				identical = false
				continue
			}
			for i := range st {
				if st[i] != ref[i] {
					identical = false
				}
			}
		}
		if holders > 0 && minCount < expected {
			lost += expected - minCount
		}
	}
	return lost, identical, nil
}

// durPercentile returns the p-th percentile of unsorted durations.
func durPercentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p*float64(len(sorted)-1))]
}
