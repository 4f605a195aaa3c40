package aqp

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

func buildBase(t *testing.T, nRows int) (*engine.Engine, *cluster.Table, *exec.Executor) {
	t.Helper()
	cl := cluster.New(4, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "base", []string{"x", "y", "z"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(51)
	rows := workload.GaussianMixture(rng, nRows, 3, workload.DefaultMixture(3), 0)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(eng, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tbl, ex
}

func TestBuildValidation(t *testing.T) {
	eng, tbl, _ := buildBase(t, 100)
	if _, _, err := Build(eng, tbl, 0, false, 1); !errors.Is(err, ErrBadFraction) {
		t.Errorf("fraction 0 err = %v", err)
	}
	if _, _, err := Build(eng, tbl, 1.5, false, 1); !errors.Is(err, ErrBadFraction) {
		t.Errorf("fraction 1.5 err = %v", err)
	}
}

// TestStratifiedSampleIsSeeded: two builds from one seed hold the same
// rows with the same weights, partition by partition, so an experiment
// that samples reads the same on every run.
func TestStratifiedSampleIsSeeded(t *testing.T) {
	eng, tbl, _ := buildBase(t, 5000)
	var samples [2][][]storage.Row
	for i := range samples {
		aq, _, err := Build(eng, tbl, 0.05, true, 7)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < aq.sample.Partitions(); p++ {
			rows, _, err := aq.sample.ScanPartition(p)
			if err != nil {
				t.Fatal(err)
			}
			samples[i] = append(samples[i], rows)
		}
	}
	if !reflect.DeepEqual(samples[0], samples[1]) {
		t.Fatal("two stratified samples drawn from one seed differ")
	}
}

func TestUniformSampleCountEstimate(t *testing.T) {
	eng, tbl, ex := buildBase(t, 20000)
	aq, buildCost, err := Build(eng, tbl, 0.05, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if buildCost.RowsRead < 20000 {
		t.Error("sample build should scan the base data")
	}
	// Sample should hold ~5% of rows.
	if aq.SampleRows() < 700 || aq.SampleRows() > 1400 {
		t.Errorf("sample rows = %d, want ~1000", aq.SampleRows())
	}
	q := query.Query{
		Select:    query.Selection{Los: []float64{15, 15}, His: []float64{35, 35}},
		Aggregate: query.Count,
	}
	truth, _, err := ex.ExactCohort(q)
	if err != nil {
		t.Fatal(err)
	}
	est, bound, cost, err := aq.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(est.Value-truth.Value) / truth.Value
	if relErr > 0.25 {
		t.Errorf("count estimate %v vs truth %v (rel %v)", est.Value, truth.Value, relErr)
	}
	if bound <= 0 {
		t.Error("count estimate should carry a positive error bound")
	}
	// The AQP query must be much cheaper than the exact one (reads ~5%).
	if cost.RowsRead*10 > 20000 {
		t.Errorf("AQP read %d rows", cost.RowsRead)
	}
}

func TestStratifiedKeepsRareStrata(t *testing.T) {
	eng, tbl, ex := buildBase(t, 20000)
	aqU, _, err := Build(eng, tbl, 0.02, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	aqS, _, err := Build(eng, tbl, 0.02, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A rare region: the tail between clusters.
	q := query.Query{
		Select:    query.Selection{Los: []float64{45, 45}, His: []float64{55, 55}},
		Aggregate: query.Count,
	}
	truth, _, err := ex.ExactCohort(q)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Value == 0 {
		t.Skip("tail region empty; nothing to compare")
	}
	estU, _, _, err := aqU.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	estS, _, _, err := aqS.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	errU := math.Abs(estU.Value - truth.Value)
	errS := math.Abs(estS.Value - truth.Value)
	// Stratification should not be drastically worse on rare regions;
	// typically it is better. Allow slack for randomness.
	if errS > 3*errU+0.3*truth.Value {
		t.Errorf("stratified err %v ≫ uniform err %v (truth %v)", errS, errU, truth.Value)
	}
}

func TestAvgEstimate(t *testing.T) {
	eng, tbl, ex := buildBase(t, 10000)
	aq, _, err := Build(eng, tbl, 0.1, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{
		Select:    query.Selection{Los: []float64{15, 15}, His: []float64{35, 35}},
		Aggregate: query.Avg, Col: 2,
	}
	truth, _, err := ex.ExactCohort(q)
	if err != nil {
		t.Fatal(err)
	}
	est, bound, _, err := aq.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-truth.Value) > math.Max(2*bound, 3) {
		t.Errorf("avg estimate %v vs truth %v (bound %v)", est.Value, truth.Value, bound)
	}
}

func TestInvalidQuery(t *testing.T) {
	eng, tbl, _ := buildBase(t, 200)
	aq, _, err := Build(eng, tbl, 0.5, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := aq.Answer(query.Query{Aggregate: query.Count}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestSampleBytesAccounting(t *testing.T) {
	eng, tbl, _ := buildBase(t, 5000)
	aq, _, err := Build(eng, tbl, 0.1, false, 6)
	if err != nil {
		t.Fatal(err)
	}
	if aq.SampleBytes() != aq.SampleRows()*(8+8*4) {
		t.Errorf("SampleBytes = %d for %d rows", aq.SampleBytes(), aq.SampleRows())
	}
}
