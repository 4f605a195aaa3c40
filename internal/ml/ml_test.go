package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotAndDistance(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		dot  float64
		d2   float64
	}{
		{"orthogonal", []float64{1, 0}, []float64{0, 1}, 0, 2},
		{"parallel", []float64{1, 2}, []float64{2, 4}, 10, 5},
		{"empty", nil, nil, 0, 0},
		{"mismatched uses prefix", []float64{1, 2, 3}, []float64{1}, 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); got != tt.dot {
				t.Errorf("Dot = %v, want %v", got, tt.dot)
			}
			if got := SquaredDistance(tt.a, tt.b); got != tt.d2 {
				t.Errorf("SquaredDistance = %v, want %v", got, tt.d2)
			}
		})
	}
}

func TestRLSConvergesToPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewRLS(2, 1.0, 1000)
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4}
		y := 5*x[0] + 1*x[1] - 3
		r.Observe(x, y)
	}
	if got := r.Predict([]float64{2, 2}); math.Abs(got-9) > 1e-3 {
		t.Errorf("Predict = %v, want 9", got)
	}
	w := r.Weights()
	if math.Abs(w[0]-5) > 1e-2 || math.Abs(w[1]-1) > 1e-2 {
		t.Errorf("weights = %v, want [5 1 -3]", w)
	}
}

func TestRLSForgettingTracksDrift(t *testing.T) {
	r := NewRLS(1, 0.9, 1000)
	// First regime: y = x.
	for i := 0; i < 200; i++ {
		x := float64(i%10) + 1
		r.Observe([]float64{x}, x)
	}
	// Second regime: y = 10x. With forgetting, the model should follow.
	for i := 0; i < 200; i++ {
		x := float64(i%10) + 1
		r.Observe([]float64{x}, 10*x)
	}
	got := r.Predict([]float64{5})
	if math.Abs(got-50) > 1 {
		t.Errorf("after drift Predict(5) = %v, want ~50", got)
	}
}

func TestRLSSetWeights(t *testing.T) {
	r := NewRLS(2, 1, 100)
	r.SetWeights([]float64{1, 2, 3})
	if got := r.Predict([]float64{1, 1}); got != 6 {
		t.Errorf("Predict = %v, want 6", got)
	}
}

func TestOnlineAVQSpawnsAndPurges(t *testing.T) {
	q := NewOnlineAVQ(4, 10)
	for i := 0; i < 50; i++ {
		q.Observe([]float64{0, 0})
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	q.Observe([]float64{100, 100}) // far away -> spawn
	if q.Len() != 2 {
		t.Fatalf("after far point Len = %d, want 2", q.Len())
	}
	// Keep hitting the first prototype; the second goes stale.
	for i := 0; i < 100; i++ {
		q.Observe([]float64{0, 0})
	}
	removed := q.PurgeStale(50)
	if len(removed) != 1 || q.Len() != 1 {
		t.Errorf("PurgeStale removed %v, Len=%d; want 1 removal", removed, q.Len())
	}
}

func TestOnlineAVQTracksMean(t *testing.T) {
	q := NewOnlineAVQ(0, 1) // no spawning: single prototype
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		q.Observe([]float64{3 + rng.NormFloat64()*0.1, -2 + rng.NormFloat64()*0.1})
	}
	p := q.Prototypes()[0]
	if math.Abs(p[0]-3) > 0.1 || math.Abs(p[1]+2) > 0.1 {
		t.Errorf("prototype = %v, want ~[3 -2]", p)
	}
}

func TestSegmentedRegressionFindsBreak(t *testing.T) {
	var xs, ys []float64
	for i := 0; i < 100; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		if x < 5 {
			ys = append(ys, 2*x)
		} else {
			ys = append(ys, 10-3*(x-5))
		}
	}
	sr := SegmentedRegression{Segments: 2, MinPoints: 5}
	if err := sr.Fit(xs, ys); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	brs := sr.Breakpoints()
	if len(brs) != 1 || math.Abs(brs[0]-5) > 0.5 {
		t.Errorf("breakpoints = %v, want [~5]", brs)
	}
	if got := sr.Predict(2); math.Abs(got-4) > 0.2 {
		t.Errorf("Predict(2) = %v, want ~4", got)
	}
	if got := sr.Predict(8); math.Abs(got-1) > 0.3 {
		t.Errorf("Predict(8) = %v, want ~1", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

// Property: RLS prediction after n observations of an exact linear
// function matches the function on the observed points.
func TestRLSExactRecoveryProperty(t *testing.T) {
	f := func(a, b int8) bool {
		w0 := float64(a) / 8
		w1 := float64(b) / 8
		r := NewRLS(1, 1, 1e6)
		rng := rand.New(rand.NewSource(int64(a)*256 + int64(b)))
		for i := 0; i < 200; i++ {
			x := rng.Float64() * 10
			r.Observe([]float64{x}, w0*x+w1)
		}
		got := r.Predict([]float64{5})
		return math.Abs(got-(w0*5+w1)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPolyFeatures(t *testing.T) {
	got := PolyFeatures([]float64{2, 3})
	want := []float64{2, 3, 4, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PolyFeatures[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if PolyDim(2) != 5 {
		t.Errorf("PolyDim(2) = %d, want 5", PolyDim(2))
	}
}
