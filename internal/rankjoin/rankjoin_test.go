package rankjoin

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

// buildOp constructs tables R and S with controlled key overlap so joins
// are non-trivial, and returns the operator plus a brute-force truth
// function.
func buildOp(t *testing.T, nRows int) (*Operator, func(k int) []Pair) {
	t.Helper()
	cl := cluster.New(8, cluster.DefaultConfig())
	eng := engine.New(cl)
	r, err := cluster.NewTable(cl, "R", []string{"score"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewTable(cl, "S", []string{"score"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(31)
	rowsR := workload.ZipfKeys(rng, nRows, uint64(nRows/2), 1.2, 1, 0)
	rowsS := workload.ZipfKeys(rng, nRows, uint64(nRows/2), 1.2, 1, 0)
	if err := r.Load(rowsR); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(rowsS); err != nil {
		t.Fatal(err)
	}
	op, err := New(eng, r, s, 0)
	if err != nil {
		t.Fatal(err)
	}

	truth := func(k int) []Pair {
		byKeyS := make(map[uint64][]float64)
		for _, row := range rowsS {
			byKeyS[row.Key] = append(byKeyS[row.Key], row.Vec[0])
		}
		var pairs []Pair
		for _, row := range rowsR {
			for _, ss := range byKeyS[row.Key] {
				pairs = append(pairs, Pair{Key: row.Key, ScoreR: row.Vec[0], ScoreS: ss})
			}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].Combined() != pairs[j].Combined() {
				return pairs[i].Combined() > pairs[j].Combined()
			}
			return pairs[i].Key < pairs[j].Key
		})
		if len(pairs) > k {
			pairs = pairs[:k]
		}
		return pairs
	}
	return op, truth
}

func TestMapReduceMatchesTruth(t *testing.T) {
	op, truth := buildOp(t, 2000)
	for _, k := range []int{1, 5, 20} {
		got, cost, err := op.MapReduce(k)
		if err != nil {
			t.Fatal(err)
		}
		want := truth(k)
		assertPairsEqual(t, got, want)
		if cost.RowsRead < 4000 {
			t.Errorf("k=%d: mapreduce read %d rows, expected full scans", k, cost.RowsRead)
		}
	}
}

func TestThresholdMatchesTruth(t *testing.T) {
	op, truth := buildOp(t, 2000)
	for _, k := range []int{1, 5, 20} {
		got, _, err := op.Threshold(k)
		if err != nil {
			t.Fatal(err)
		}
		want := truth(k)
		assertPairsEqual(t, got, want)
	}
}

// assertPairsEqual compares by combined score (ties can reorder pairs
// with equal scores).
func assertPairsEqual(t *testing.T, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Combined()-want[i].Combined()) > 1e-9 {
			t.Fatalf("rank %d: combined %v != %v", i, got[i].Combined(), want[i].Combined())
		}
	}
}

func TestThresholdIsSurgical(t *testing.T) {
	op, _ := buildOp(t, 5000)
	_, mrCost, err := op.MapReduce(10)
	if err != nil {
		t.Fatal(err)
	}
	_, thCost, err := op.Threshold(10)
	if err != nil {
		t.Fatal(err)
	}
	if thCost.RowsRead >= mrCost.RowsRead/2 {
		t.Errorf("threshold read %d rows vs mapreduce %d: not surgical",
			thCost.RowsRead, mrCost.RowsRead)
	}
	if thCost.Time >= mrCost.Time {
		t.Errorf("threshold time %v >= mapreduce %v", thCost.Time, mrCost.Time)
	}
	if thCost.BytesLAN >= mrCost.BytesLAN {
		t.Errorf("threshold moved %d bytes vs mapreduce %d", thCost.BytesLAN, mrCost.BytesLAN)
	}
}

func TestBadK(t *testing.T) {
	op, _ := buildOp(t, 100)
	if _, _, err := op.MapReduce(0); !errors.Is(err, ErrBadK) {
		t.Errorf("MapReduce(0) err = %v", err)
	}
	if _, _, err := op.Threshold(-1); !errors.Is(err, ErrBadK) {
		t.Errorf("Threshold(-1) err = %v", err)
	}
}

func TestThresholdSmallBatch(t *testing.T) {
	op, truth := buildOp(t, 1000)
	op.BatchRows = 8
	got, _, err := op.Threshold(5)
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, got, truth(5))
}

func TestThresholdKLargerThanJoin(t *testing.T) {
	// With k larger than the number of joinable pairs, both paths return
	// everything.
	cl := cluster.New(2, cluster.DefaultConfig())
	eng := engine.New(cl)
	r, _ := cluster.NewTable(cl, "R", []string{"score"}, 2)
	s, _ := cluster.NewTable(cl, "S", []string{"score"}, 2)
	if err := r.Load([]storage.Row{
		{Key: 1, Vec: []float64{0.9}},
		{Key: 2, Vec: []float64{0.5}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Load([]storage.Row{
		{Key: 1, Vec: []float64{0.8}},
		{Key: 3, Vec: []float64{0.7}},
	}); err != nil {
		t.Fatal(err)
	}
	op, err := New(eng, r, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := op.Threshold(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != 1 {
		t.Errorf("got %v, want single pair key=1", got)
	}
	mr, _, err := op.MapReduce(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr) != 1 || mr[0].Key != 1 {
		t.Errorf("mapreduce got %v", mr)
	}
}
