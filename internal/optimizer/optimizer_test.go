package optimizer

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/workload"
)

func buildExec(t *testing.T, nRows, nNodes int) *exec.Executor {
	t.Helper()
	cl := cluster.New(nNodes, cluster.DefaultConfig())
	eng := engine.New(cl)
	tbl, err := cluster.NewTable(cl, "data", []string{"x", "y"}, nNodes*2)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(91)
	rows := workload.GaussianMixture(rng, nRows, 2, workload.DefaultMixture(2), 0)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(eng, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.BuildGrid(16); err != nil {
		t.Fatal(err)
	}
	return ex
}

func corpusQueries(n int) []query.Query {
	rng := workload.NewRNG(92)
	qs := workload.NewQueryStream(rng, workload.DefaultRegions(2), query.Count)
	return qs.Batch(n)
}

func TestTrainEmpty(t *testing.T) {
	if _, err := Train(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("err = %v", err)
	}
}

func TestCollectTrainChoose(t *testing.T) {
	ex := buildExec(t, 4000, 8)
	samples, cost, err := CollectRangeCorpus(ex, corpusQueries(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 60 {
		t.Fatalf("samples = %d, want 60", len(samples))
	}
	if cost.RowsRead == 0 {
		t.Error("corpus collection charged nothing")
	}
	cm, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	// On this simulator cohort wins for small selective queries; the
	// learned model should agree with the measured ordering.
	f := samples[0].F
	mr := cm.Predict(f, MapReduce)
	cc := cm.Predict(f, Cohort)
	if math.IsInf(mr, 1) || math.IsInf(cc, 1) {
		t.Fatal("cost model missing a paradigm")
	}
	if cm.Choose(f) != Cohort {
		t.Errorf("Choose = %v (mr=%v cc=%v), want cohort", cm.Choose(f), mr, cc)
	}
}

func TestRegretAndAccuracy(t *testing.T) {
	ex := buildExec(t, 4000, 8)
	train, _, err := CollectRangeCorpus(ex, corpusQueries(40))
	if err != nil {
		t.Fatal(err)
	}
	cm, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out set.
	held, _, err := CollectRangeCorpus(ex, corpusQueries(20)[10:])
	if err != nil {
		t.Fatal(err)
	}
	var fs []Features
	var pairs []map[Paradigm]float64
	for i := 0; i < len(held); i += 2 {
		fs = append(fs, held[i].F)
		pairs = append(pairs, map[Paradigm]float64{
			held[i].Paradigm:   held[i].Seconds,
			held[i+1].Paradigm: held[i+1].Seconds,
		})
	}
	reg := Regret(cm, fs, pairs)
	if reg["learned"] > reg["always-mapreduce"] {
		t.Errorf("learned regret %v worse than always-mapreduce %v",
			reg["learned"], reg["always-mapreduce"])
	}
	acc := Accuracy(cm, fs, pairs)
	if acc < 0.8 {
		t.Errorf("selection accuracy = %v, want >= 0.8", acc)
	}
}

func TestParadigmString(t *testing.T) {
	if MapReduce.String() != "mapreduce" || Cohort.String() != "coordinator-cohort" {
		t.Error("paradigm names wrong")
	}
	if Paradigm(9).String() == "" {
		t.Error("unknown paradigm should still print")
	}
}

func TestSelectInferenceModelQuadratic(t *testing.T) {
	rng := workload.NewRNG(93)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 150; i++ {
		x := rng.Float64()*6 - 3
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x*x-x+1)
	}
	best, scores, err := SelectInferenceModel(xs, ys, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if best != "quadratic" {
		t.Errorf("best = %q (scores %v), want quadratic", best, scores)
	}
}

func TestRegretEmptyInputs(t *testing.T) {
	cm, err := Train([]Sample{{F: Features{Rows: 10}, Paradigm: Cohort, Seconds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	reg := Regret(cm, nil, nil)
	if reg["learned"] != 0 {
		t.Errorf("empty regret = %v", reg)
	}
	if Accuracy(cm, nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	// Choosing among one paradigm returns it.
	if cm.Choose(Features{Rows: 10}) != Cohort {
		t.Error("single-paradigm choose wrong")
	}
}
