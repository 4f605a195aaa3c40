package knn

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/workload"
)

func buildOp(t *testing.T, nRows int) (*Operator, []storage.Row) {
	t.Helper()
	cl := cluster.New(8, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "pts", []string{"x", "y", "label"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(41)
	rows := workload.GaussianMixture(rng, nRows, 3, workload.DefaultMixture(3), 0)
	// Column 2 becomes a class label: 0 below the diagonal, 1 above.
	for i := range rows {
		if rows[i].Vec[0]+rows[i].Vec[1] > 100 {
			rows[i].Vec[2] = 1
		} else {
			rows[i].Vec[2] = 0
		}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	op, err := New(eng, tbl, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	return op, rows
}

func bruteKNN(rows []storage.Row, q []float64, k int) []uint64 {
	type kd struct {
		key  uint64
		dist float64
	}
	all := make([]kd, len(rows))
	for i, r := range rows {
		dx := r.Vec[0] - q[0]
		dy := r.Vec[1] - q[1]
		all[i] = kd{r.Key, math.Sqrt(dx*dx + dy*dy)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].key < all[j].key
	})
	keys := make([]uint64, 0, k)
	for i := 0; i < k && i < len(all); i++ {
		keys = append(keys, all[i].key)
	}
	return keys
}

func TestScanMatchesBruteForce(t *testing.T) {
	op, rows := buildOp(t, 2000)
	for _, k := range []int{1, 5, 15} {
		q := []float64{30, 30}
		got, _, err := op.Scan(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(rows, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results", k, len(got))
		}
		for i := range got {
			if got[i].Row.Key != want[i] {
				t.Errorf("k=%d rank %d: key %d != %d (dist %v)", k, i, got[i].Row.Key, want[i], got[i].Dist)
			}
		}
	}
}

func TestIndexedMatchesBruteForce(t *testing.T) {
	op, rows := buildOp(t, 2000)
	queries := [][]float64{{30, 30}, {75, 75}, {50, 50}, {10, 90}}
	for _, q := range queries {
		for _, k := range []int{1, 5, 15} {
			got, _, err := op.Indexed(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteKNN(rows, q, k)
			if len(got) != len(want) {
				t.Fatalf("q=%v k=%d: %d results, want %d", q, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Row.Key != want[i] {
					t.Errorf("q=%v k=%d rank %d: key %d != %d", q, k, i, got[i].Row.Key, want[i])
				}
			}
		}
	}
}

func TestIndexedIsSurgical(t *testing.T) {
	op, _ := buildOp(t, 10000)
	q := []float64{25, 25}
	_, scanCost, err := op.Scan(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, idxCost, err := op.Indexed(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if idxCost.RowsRead*10 >= scanCost.RowsRead {
		t.Errorf("indexed read %d rows vs scan %d: not surgical",
			idxCost.RowsRead, scanCost.RowsRead)
	}
	if idxCost.Time >= scanCost.Time {
		t.Errorf("indexed time %v >= scan %v", idxCost.Time, scanCost.Time)
	}
}

func TestBadInputs(t *testing.T) {
	op, _ := buildOp(t, 100)
	if _, _, err := op.Scan([]float64{0, 0}, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("Scan k=0 err = %v", err)
	}
	if _, _, err := op.Indexed([]float64{0, 0}, -1); !errors.Is(err, ErrBadK) {
		t.Errorf("Indexed k=-1 err = %v", err)
	}
	cl := cluster.New(1, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, _ := cluster.NewTable(cl, "e", []string{"x"}, 1)
	if _, err := New(eng, tbl, 0, 4); err == nil {
		t.Error("dims=0 accepted")
	}
	if _, err := New(eng, tbl, 1, 4); err == nil {
		t.Error("empty table accepted (grid cannot build)")
	}
}

func TestRegress(t *testing.T) {
	op, rows := buildOp(t, 3000)
	q := []float64{25, 25}
	got, cost, err := op.Regress(q, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Labels near (25,25) are overwhelmingly 0 (sum < 100).
	if got > 0.2 {
		t.Errorf("Regress near (25,25) = %v, want ~0", got)
	}
	if cost.RowsRead == 0 {
		t.Error("regression read no rows")
	}
	_ = rows
	got2, _, err := op.Regress([]float64{75, 75}, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got2 < 0.8 {
		t.Errorf("Regress near (75,75) = %v, want ~1", got2)
	}
}

func TestClassify(t *testing.T) {
	op, _ := buildOp(t, 3000)
	if got, _, err := op.Classify([]float64{25, 25}, 15, 2); err != nil || got != 0 {
		t.Errorf("Classify(25,25) = %d, %v; want 0", got, err)
	}
	if got, _, err := op.Classify([]float64{75, 75}, 15, 2); err != nil || got != 1 {
		t.Errorf("Classify(75,75) = %d, %v; want 1", got, err)
	}
}

func TestKLargerThanData(t *testing.T) {
	op, rows := buildOp(t, 50)
	got, _, err := op.Indexed([]float64{50, 50}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Errorf("k>n returned %d of %d", len(got), len(rows))
	}
}
