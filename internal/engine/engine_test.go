package engine

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

func buildTable(t *testing.T, cl *cluster.Cluster, nRows, nParts int) *cluster.Table {
	t.Helper()
	tbl, err := cluster.NewTable(cl, "t", []string{"v"}, nParts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, nRows)
	for i := range rows {
		rows[i] = storage.Row{Key: uint64(i), Vec: []float64{float64(i)}}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestMapReduceSum(t *testing.T) {
	cl := cluster.New(4, cluster.DefaultConfig())
	e := New(cl)
	tbl := buildTable(t, cl, 100, 8)

	mapper := func(row storage.Row, emit func(KV)) {
		emit(KV{Key: 0, Value: []float64{row.Vec[0]}})
	}
	reducer := func(_ uint64, values [][]float64) [][]float64 {
		var s float64
		for _, v := range values {
			s += v[0]
		}
		return [][]float64{{s}}
	}
	out, cost, err := e.MapReduce(tbl, mapper, reducer)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if got, want := out[0].Value[0], float64(99*100/2); got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Every node with data pays framework overhead and all rows scanned.
	if cost.RowsRead != 100 {
		t.Errorf("RowsRead = %d, want 100", cost.RowsRead)
	}
	if cost.NodesTouched != 4 {
		t.Errorf("NodesTouched = %d, want 4", cost.NodesTouched)
	}
	if cost.Time < cluster.DefaultConfig().FrameworkOverhead {
		t.Errorf("Time = %v, want >= framework overhead", cost.Time)
	}
	if cost.BytesLAN == 0 {
		t.Error("shuffle moved no bytes")
	}
}

func TestMapReduceGroupByKey(t *testing.T) {
	cl := cluster.New(2, cluster.DefaultConfig())
	e := New(cl)
	tbl := buildTable(t, cl, 100, 4)
	// Group rows by parity, count each group.
	mapper := func(row storage.Row, emit func(KV)) {
		emit(KV{Key: row.Key % 2, Value: []float64{1}})
	}
	reducer := func(_ uint64, values [][]float64) [][]float64 {
		return [][]float64{{float64(len(values))}}
	}
	out, _, err := e.MapReduce(tbl, mapper, reducer)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %d, want 2", len(out))
	}
	// Keys come back sorted.
	if out[0].Key != 0 || out[1].Key != 1 {
		t.Errorf("keys = %d,%d", out[0].Key, out[1].Key)
	}
	if out[0].Value[0] != 50 || out[1].Value[0] != 50 {
		t.Errorf("counts = %v,%v", out[0].Value[0], out[1].Value[0])
	}
}

func TestCoordinatorGatherSubset(t *testing.T) {
	cl := cluster.New(4, cluster.DefaultConfig())
	e := New(cl)
	tbl := buildTable(t, cl, 400, 8)

	task := func(part []storage.Row) ([][]float64, int64) {
		var s float64
		for _, r := range part {
			s += r.Vec[0]
		}
		return [][]float64{{s}}, int64(len(part))
	}
	results, cost, err := e.CoordinatorGather(tbl, []int{0, 1}, task)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// Only the two partitions' rows should be read, on at most 2 nodes.
	if cost.RowsRead >= 400 {
		t.Errorf("RowsRead = %d, want < 400", cost.RowsRead)
	}
	if cost.NodesTouched > 2 {
		t.Errorf("NodesTouched = %d, want <= 2", cost.NodesTouched)
	}
	// Cohort requests must be far cheaper than a framework launch.
	if cost.Time >= cluster.DefaultConfig().FrameworkOverhead {
		t.Errorf("cohort Time = %v, should beat framework overhead", cost.Time)
	}
}

func TestCoordinatorGatherSurgicalRowCount(t *testing.T) {
	cl := cluster.New(2, cluster.DefaultConfig())
	e := New(cl)
	tbl := buildTable(t, cl, 100, 2)
	// Task claims it only read 3 rows: cost must reflect that.
	task := func(part []storage.Row) ([][]float64, int64) {
		return nil, 3
	}
	_, cost, err := e.CoordinatorGather(tbl, []int{0}, task)
	if err != nil {
		t.Fatal(err)
	}
	if cost.RowsRead != 3 {
		t.Errorf("RowsRead = %d, want 3", cost.RowsRead)
	}
}

func TestCoordinatorPrefixGather(t *testing.T) {
	cl := cluster.New(2, cluster.DefaultConfig())
	e := New(cl)
	tbl := buildTable(t, cl, 100, 2)
	out, cost, err := e.CoordinatorPrefixGather(tbl, map[int]int{0: 5, 1: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 5 || len(out[1]) != 7 {
		t.Errorf("prefix lens = %d,%d", len(out[0]), len(out[1]))
	}
	if cost.RowsRead != 12 {
		t.Errorf("RowsRead = %d, want 12", cost.RowsRead)
	}
}

func TestMapReduceOnFailedNodeUsesReplica(t *testing.T) {
	cl := cluster.New(4, cluster.DefaultConfig())
	e := New(cl)
	tbl := buildTable(t, cl, 100, 4)
	if err := cl.Fail(2); err != nil {
		t.Fatal(err)
	}
	mapper := func(row storage.Row, emit func(KV)) {
		emit(KV{Key: 0, Value: []float64{1}})
	}
	reducer := func(_ uint64, values [][]float64) [][]float64 {
		return [][]float64{{float64(len(values))}}
	}
	out, _, err := e.MapReduce(tbl, mapper, reducer)
	if err != nil {
		t.Fatalf("MapReduce with one failed node: %v", err)
	}
	if out[0].Value[0] != 100 {
		t.Errorf("count = %v, want 100 (no rows lost)", out[0].Value[0])
	}
}

func TestPointGet(t *testing.T) {
	cl := cluster.New(2, cluster.DefaultConfig())
	e := New(cl)
	tbl := buildTable(t, cl, 50, 4)
	row, ok, cost, err := e.PointGet(tbl, 7)
	if err != nil || !ok || row.Key != 7 {
		t.Fatalf("PointGet: %v %v %v", row, ok, err)
	}
	if cost.Messages == 0 {
		t.Error("point get should cost messages")
	}
}

func TestMapReduceVsCohortCostGap(t *testing.T) {
	// The central quantitative premise of the paper: engaging every node
	// through the full stack costs orders of magnitude more than a
	// surgical cohort request. Verify the simulator reproduces that gap.
	cl := cluster.New(16, cluster.DefaultConfig())
	e := New(cl)
	tbl := buildTable(t, cl, 100_000, 16)

	mapper := func(row storage.Row, emit func(KV)) {}
	reducer := func(_ uint64, values [][]float64) [][]float64 { return nil }
	_, mrCost, err := e.MapReduce(tbl, mapper, reducer)
	if err != nil {
		t.Fatal(err)
	}
	task := func(part []storage.Row) ([][]float64, int64) { return nil, 10 }
	_, ccCost, err := e.CoordinatorGather(tbl, []int{3}, task)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(mrCost.Time) / float64(ccCost.Time); ratio < 20 {
		t.Errorf("MapReduce/cohort time ratio = %.1f, want >= 20", ratio)
	}
	if mrCost.RowsRead != 100_000 || ccCost.RowsRead != 10 {
		t.Errorf("rows: mr=%d cc=%d", mrCost.RowsRead, ccCost.RowsRead)
	}
}
