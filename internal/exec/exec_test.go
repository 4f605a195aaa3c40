package exec

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

func buildExec(t *testing.T, nRows, nNodes, nParts int) *Executor {
	t.Helper()
	cl := cluster.New(nNodes, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "data", []string{"x", "y"}, nParts)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(11)
	rows := workload.GaussianMixture(rng, nRows, 2, workload.DefaultMixture(2), 0)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ex, err := New(eng, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestExactPathsAgree(t *testing.T) {
	ex := buildExec(t, 5000, 4, 8)
	queries := []query.Query{
		{Select: query.Selection{Los: []float64{20, 20}, His: []float64{30, 30}}, Aggregate: query.Count},
		{Select: query.Selection{Center: []float64{25, 25}, Radius: 6}, Aggregate: query.Avg, Col: 1},
		{Select: query.Selection{Los: []float64{0, 0}, His: []float64{100, 100}}, Aggregate: query.Corr, Col: 0, Col2: 1},
	}
	for _, q := range queries {
		mr, mrCost, err := ex.ExactMapReduce(q)
		if err != nil {
			t.Fatalf("mapreduce: %v", err)
		}
		cc, ccCost, err := ex.ExactCohort(q)
		if err != nil {
			t.Fatalf("cohort: %v", err)
		}
		if math.Abs(mr.Value-cc.Value) > 1e-9 || mr.Support != cc.Support {
			t.Errorf("%v: mapreduce %+v != cohort %+v", q.Aggregate, mr, cc)
		}
		if ccCost.Time >= mrCost.Time {
			t.Errorf("cohort time %v should beat mapreduce %v", ccCost.Time, mrCost.Time)
		}
	}
}

func TestExactAnswersMatchGroundTruth(t *testing.T) {
	ex := buildExec(t, 3000, 2, 4)
	q := query.Query{
		Select:    query.Selection{Los: []float64{20, 20}, His: []float64{30, 30}},
		Aggregate: query.Count,
	}
	// Compute truth directly over all partitions.
	var truth int64
	for p := 0; p < ex.Table().Partitions(); p++ {
		rows, _, err := ex.Table().ScanPartition(p)
		if err != nil {
			t.Fatal(err)
		}
		truth += query.EvalRows(q, rows).Support
	}
	got, _, err := ex.ExactMapReduce(q)
	if err != nil {
		t.Fatal(err)
	}
	if int64(got.Value) != truth {
		t.Errorf("count = %v, truth %d", got.Value, truth)
	}
	if truth == 0 {
		t.Error("test subspace unexpectedly empty")
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	ex := buildExec(t, 100, 1, 2)
	bad := query.Query{Aggregate: query.Count}
	if _, _, err := ex.ExactMapReduce(bad); err == nil {
		t.Error("mapreduce accepted invalid query")
	}
	if _, _, err := ex.ExactCohort(bad); err == nil {
		t.Error("cohort accepted invalid query")
	}
}

func TestCandidatePartitionsPruning(t *testing.T) {
	// Range-partitioned table on x: a narrow query must prune partitions.
	cl := cluster.New(4, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "ranged", []string{"x", "y"}, 4,
		cluster.WithRangePartitioning([]float64{25, 50, 75}))
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(12)
	rows := workload.Uniform(rng, 4000, 2, []float64{0, 0}, []float64{100, 100}, 0)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ex, err := New(eng, tbl)
	if err != nil {
		t.Fatal(err)
	}
	sel := query.Selection{Los: []float64{10, 0}, His: []float64{20, 100}}
	parts := ex.CandidatePartitions(sel)
	if len(parts) != 1 || parts[0] != 0 {
		t.Errorf("candidates = %v, want [0]", parts)
	}
	// Cohort should therefore read ~1/4 of rows.
	q := query.Query{Select: sel, Aggregate: query.Count}
	res, cost, err := ex.ExactCohort(q)
	if err != nil {
		t.Fatal(err)
	}
	if cost.RowsRead > 1500 {
		t.Errorf("cohort read %d rows, want ~1000", cost.RowsRead)
	}
	if res.Support == 0 {
		t.Error("query found no rows")
	}
	// Radius query pruning too.
	rparts := ex.CandidatePartitions(query.Selection{Center: []float64{12, 50}, Radius: 5})
	if len(rparts) != 1 || rparts[0] != 0 {
		t.Errorf("radius candidates = %v, want [0]", rparts)
	}
}

func TestGridSelectivity(t *testing.T) {
	ex := buildExec(t, 8000, 4, 8)
	if err := ex.BuildGrid(16); err != nil {
		t.Fatal(err)
	}
	sel := query.Selection{Los: []float64{15, 15}, His: []float64{35, 35}}
	est := ex.EstimateSelectivity(sel)
	// Truth.
	q := query.Query{Select: sel, Aggregate: query.Count}
	truth, _, err := ex.ExactMapReduce(q)
	if err != nil {
		t.Fatal(err)
	}
	trueSel := truth.Value / float64(ex.Table().Rows())
	if math.Abs(est-trueSel) > 0.05 {
		t.Errorf("selectivity est %v vs truth %v", est, trueSel)
	}
	// Radius estimate should also be sane (upper-bounds via bounding box).
	rEst := ex.EstimateSelectivity(query.Selection{Center: []float64{25, 25}, Radius: 10})
	if rEst <= 0 || rEst > 1 {
		t.Errorf("radius selectivity = %v", rEst)
	}
}

// TestPruningFollowsUpdateWhere: the storage zone maps every mutation
// keeps current are the only pruning metadata, so a selection over the
// moved data must still find its partitions with nothing rebuilt.
func TestPruningFollowsUpdateWhere(t *testing.T) {
	ex := buildExec(t, 1000, 2, 4)
	// Shift all data +1000 in x; stale bounds would prune wrongly.
	_, _, err := ex.Table().UpdateWhere(
		func(storage.Row) bool { return true },
		func(r *storage.Row) { r.Vec[0] += 1000 },
	)
	if err != nil {
		t.Fatal(err)
	}
	sel := query.Selection{Los: []float64{1000, 0}, His: []float64{1100, 100}}
	if parts := ex.CandidatePartitions(sel); len(parts) == 0 {
		t.Error("no candidates after UpdateWhere; bounds stale")
	}
}

func TestEmptyTableGridError(t *testing.T) {
	cl := cluster.New(1, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, _ := cluster.NewTable(cl, "empty", []string{"x"}, 1)
	ex, err := New(eng, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.BuildGrid(4); err == nil {
		t.Error("BuildGrid on empty table should error")
	}
}
