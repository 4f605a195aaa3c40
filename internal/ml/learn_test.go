// The batch learners of internal/learn are tested here, beside the
// online models they share their vector helpers with, under the test
// names they have always had.
package ml_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/learn"
	"repro/internal/ml"
)

func TestCholeskySolve(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
	a := ml.NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	x, err := learn.CholeskySolve(a, []float64{10, 8})
	if err != nil {
		t.Fatalf("CholeskySolve: %v", err)
	}
	if math.Abs(x[0]-1.75) > 1e-9 || math.Abs(x[1]-1.5) > 1e-9 {
		t.Errorf("x = %v, want [1.75 1.5]", x)
	}
}

func TestCholeskySolveSingular(t *testing.T) {
	a := ml.NewMatrix(2, 2) // all zeros: singular
	if _, err := learn.CholeskySolve(a, []float64{1, 1}); err == nil {
		t.Fatal("expected ErrSingular for zero matrix")
	}
}

func TestLinearRegressionRecoversPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		xs = append(xs, x)
		ys = append(ys, 3*x[0]-2*x[1]+7)
	}
	var lr learn.LinearRegression
	if err := lr.Fit(xs, ys); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	w := lr.Weights()
	if math.Abs(w[0]-3) > 1e-6 || math.Abs(w[1]+2) > 1e-6 {
		t.Errorf("weights = %v, want [3 -2]", w)
	}
	if math.Abs(lr.Intercept()-7) > 1e-5 {
		t.Errorf("intercept = %v, want 7", lr.Intercept())
	}
	if got := lr.Predict([]float64{1, 1}); math.Abs(got-8) > 1e-5 {
		t.Errorf("Predict = %v, want 8", got)
	}
}

func TestLinearRegressionNoData(t *testing.T) {
	var lr learn.LinearRegression
	if err := lr.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty fit")
	}
	if got := lr.Predict([]float64{1}); got != 0 {
		t.Errorf("unfitted Predict = %v, want 0", got)
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs [][]float64
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	for i := 0; i < 300; i++ {
		c := centers[i%3]
		xs = append(xs, []float64{
			c[0] + rng.NormFloat64()*0.5,
			c[1] + rng.NormFloat64()*0.5,
		})
	}
	km := learn.KMeans{K: 3}
	if err := km.Fit(xs, rng); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if km.Distortion(xs) > 2 {
		t.Errorf("distortion %v too high; centroids %v", km.Distortion(xs), km.Centroids())
	}
	// Every true centre should have a centroid within distance 1.
	for _, c := range centers {
		_, d2 := ml.NearestCentroid(km.Centroids(), c)
		if d2 > 1 {
			t.Errorf("no centroid near %v (d2=%v)", c, d2)
		}
	}
}

func TestKMeansKLargerThanData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := [][]float64{{1}, {2}}
	km := learn.KMeans{K: 10}
	if err := km.Fit(xs, rng); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(km.Centroids()) > 2 {
		t.Errorf("centroids = %d, want <= 2", len(km.Centroids()))
	}
}

func TestKNNRegressor(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}, {10}, {11}, {12}}
	ys := []float64{0, 0, 0, 100, 100, 100}
	k := learn.KNNRegressor{K: 3}
	if err := k.Fit(xs, ys); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := k.Predict([]float64{1}); got != 0 {
		t.Errorf("Predict(1) = %v, want 0", got)
	}
	if got := k.Predict([]float64{11}); got != 100 {
		t.Errorf("Predict(11) = %v, want 100", got)
	}
}

func TestKNNRegressorWeighted(t *testing.T) {
	xs := [][]float64{{0}, {10}}
	ys := []float64{0, 100}
	k := learn.KNNRegressor{K: 2, Weighted: true}
	if err := k.Fit(xs, ys); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Close to x=0 the weighted estimate should be near 0, not 50.
	if got := k.Predict([]float64{0.1}); got > 10 {
		t.Errorf("weighted Predict(0.1) = %v, want near 0", got)
	}
}

func TestKNNClassifier(t *testing.T) {
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {5, 5}, {5, 6}, {6, 5}}
	labels := []int{0, 0, 0, 1, 1, 1}
	c := learn.KNNClassifier{K: 3}
	if err := c.Fit(xs, labels); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := c.Predict([]float64{0.2, 0.2}); got != 0 {
		t.Errorf("Predict = %d, want 0", got)
	}
	if got := c.Predict([]float64{5.5, 5.5}); got != 1 {
		t.Errorf("Predict = %d, want 1", got)
	}
}

func TestRegressionTreeFitsStep(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		x := float64(i)
		xs = append(xs, []float64{x})
		if x < 50 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 9)
		}
	}
	tr := learn.RegressionTree{MaxDepth: 2}
	if err := tr.Fit(xs, ys); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := tr.Predict([]float64{10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("Predict(10) = %v, want 1", got)
	}
	if got := tr.Predict([]float64{90}); math.Abs(got-9) > 1e-9 {
		t.Errorf("Predict(90) = %v, want 9", got)
	}
	if tr.Depth() < 1 {
		t.Errorf("Depth = %d, want >= 1", tr.Depth())
	}
}

func TestGradientBoostingBeatsMeanOnNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 300; i++ {
		x := rng.Float64() * 6
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(x)*5)
	}
	gb := learn.GradientBoosting{Rounds: 80, LearningRate: 0.2, MaxDepth: 2}
	if err := gb.Fit(xs, ys); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var pred, truth []float64
	for i := 0; i < 100; i++ {
		x := float64(i) * 0.06
		pred = append(pred, gb.Predict([]float64{x}))
		truth = append(truth, math.Sin(x)*5)
	}
	if r2 := ml.R2(pred, truth); r2 < 0.8 {
		t.Errorf("ml.R2 = %v, want >= 0.8 (stages=%d)", r2, gb.Stages())
	}
}

func TestEvalMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 5}
	if got := learn.MAE(pred, truth); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("learn.MAE = %v", got)
	}
	if got := learn.RMSE(pred, truth); math.Abs(got-math.Sqrt(4.0/3)) > 1e-12 {
		t.Errorf("learn.RMSE = %v", got)
	}
	if got := ml.MAPE(pred, truth); math.Abs(got-(2.0/5)/3) > 1e-12 {
		t.Errorf("ml.MAPE = %v", got)
	}
	if got := ml.R2(truth, truth); got != 1 {
		t.Errorf("ml.R2(perfect) = %v, want 1", got)
	}
}

func TestSelectModelPrefersLinearOnLinearData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 120; i++ {
		x := []float64{rng.Float64() * 10}
		xs = append(xs, x)
		ys = append(ys, 4*x[0]+1)
	}
	factories := map[string]func() learn.Regressor{
		"linear": func() learn.Regressor { return &learn.LinearRegression{} },
		"knn":    func() learn.Regressor { return &learn.KNNRegressor{K: 5} },
	}
	best, scores, err := learn.SelectModel(factories, xs, ys, 5, rng)
	if err != nil {
		t.Fatalf("SelectModel: %v", err)
	}
	if best != "linear" {
		t.Errorf("best = %q (scores %v), want linear", best, scores)
	}
}

func TestStandardScaler(t *testing.T) {
	xs := [][]float64{{0, 100}, {10, 200}}
	var s learn.StandardScaler
	if err := s.Fit(xs); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	out := s.Transform([]float64{5, 150})
	if math.Abs(out[0]) > 1e-12 || math.Abs(out[1]) > 1e-12 {
		t.Errorf("Transform(centre) = %v, want zeros", out)
	}
}

// Property: correlation is symmetric and bounded in [-1, 1].
func TestCorrelationProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		c1 := learn.Correlation(x, y)
		c2 := learn.Correlation(y, x)
		return math.Abs(c1-c2) < 1e-12 && c1 >= -1-1e-12 && c1 <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cost of perfectly correlated series is 1.
func TestCorrelationPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := learn.Correlation(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("learn.Correlation = %v, want 1", got)
	}
}
