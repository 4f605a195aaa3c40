package ml

import "fmt"

// RLS is a recursive-least-squares online linear model with an intercept
// and exponential forgetting. It is the workhorse of the SEA agent's
// per-quantum answer models (RT1.3): each (query, answer) pair observed in
// the training stream refines the model in O(d²) without re-solving.
//
// The forgetting factor lambda in (0, 1] discounts old observations, which
// is what lets models track base-data updates and drifting interests
// (RT1.4): lambda = 1 is ordinary RLS; 0.98 forgets with ~50-sample
// half-life.
type RLS struct {
	dim     int
	lambda  float64
	weights []float64 // last entry is the intercept
	p       *Matrix   // inverse covariance estimate
	n       int64
}

// NewRLS creates an RLS model for dim input features with forgetting
// factor lambda (clamped into (0,1]). delta sets the initial inverse
// covariance scale: large delta (e.g. 1000) means weak priors.
func NewRLS(dim int, lambda, delta float64) *RLS {
	if lambda <= 0 || lambda > 1 {
		lambda = 1
	}
	if delta <= 0 {
		delta = 1000
	}
	k := dim + 1
	p := NewMatrix(k, k)
	for i := 0; i < k; i++ {
		p.Set(i, i, delta)
	}
	return &RLS{
		dim:     dim,
		lambda:  lambda,
		weights: make([]float64, k),
		p:       p,
	}
}

// Observe folds one (x, y) pair into the model and returns the a-priori
// prediction error (the innovation), which callers use for drift
// detection.
func (r *RLS) Observe(x []float64, y float64) float64 {
	k := r.dim + 1
	xi := make([]float64, k)
	copy(xi, x)
	xi[r.dim] = 1

	// px = P x
	px := make([]float64, k)
	for i := 0; i < k; i++ {
		px[i] = Dot(r.p.Row(i), xi)
	}
	denom := r.lambda + Dot(xi, px)
	gain := make([]float64, k)
	for i := 0; i < k; i++ {
		gain[i] = px[i] / denom
	}
	innovation := y - Dot(r.weights, xi)
	AXPY(innovation, gain, r.weights)
	// P = (P - gain * px^T) / lambda
	for i := 0; i < k; i++ {
		row := r.p.Row(i)
		gi := gain[i]
		for j := 0; j < k; j++ {
			row[j] = (row[j] - gi*px[j]) / r.lambda
		}
	}
	r.n++
	return innovation
}

// Predict returns the current estimate w·x + b.
func (r *RLS) Predict(x []float64) float64 {
	s := r.weights[r.dim] // intercept
	d := r.dim
	if len(x) < d {
		d = len(x)
	}
	for i := 0; i < d; i++ {
		s += r.weights[i] * x[i]
	}
	return s
}

// Count returns the number of observations folded in so far.
func (r *RLS) Count() int64 { return r.n }

// Weights returns a copy of [w..., intercept].
func (r *RLS) Weights() []float64 { return CopyVec(r.weights) }

// SetWeights overwrites the coefficient vector (used when a core node
// ships a trained model to an edge agent, RT5.2). The slice must have
// dim+1 entries; extra entries are ignored and missing ones keep their
// old values.
func (r *RLS) SetWeights(w []float64) {
	n := len(w)
	if n > len(r.weights) {
		n = len(r.weights)
	}
	copy(r.weights[:n], w[:n])
}

// Dim returns the model's input dimensionality (excluding intercept).
func (r *RLS) Dim() int { return r.dim }

// RLSState is the complete serialisable state of an RLS model: weights,
// the inverse-covariance estimate and the observation count. A model
// restored from its state continues training exactly where the original
// left off, which is what lets cluster nodes ship warm models instead of
// data (RT1.5, RT5.2).
type RLSState struct {
	Dim     int       `json:"dim"`
	Lambda  float64   `json:"lambda"`
	Weights []float64 `json:"weights"`
	// P is the row-major (dim+1)x(dim+1) inverse covariance estimate.
	P []float64 `json:"p"`
	N int64     `json:"n"`
}

// State exports the model's full state (copies, no aliasing).
func (r *RLS) State() RLSState {
	return RLSState{
		Dim:     r.dim,
		Lambda:  r.lambda,
		Weights: CopyVec(r.weights),
		P:       CopyVec(r.p.Data),
		N:       r.n,
	}
}

// NewRLSFromState rebuilds a model from an exported state. Predictions
// and subsequent Observe calls are bit-identical to the original's.
func NewRLSFromState(st RLSState) (*RLS, error) {
	k := st.Dim + 1
	if st.Dim < 0 || len(st.Weights) != k || len(st.P) != k*k {
		return nil, fmt.Errorf("%w: RLS state dim %d with %d weights, %d P entries",
			ErrDimensionMismatch, st.Dim, len(st.Weights), len(st.P))
	}
	r := NewRLS(st.Dim, st.Lambda, 1)
	copy(r.weights, st.Weights)
	copy(r.p.Data, st.P)
	r.n = st.N
	return r, nil
}

// PolyFeatures expands x into degree-2 polynomial features: the original
// coordinates, all squares, and all pairwise products. SEA's answer models
// use this to capture the quadratic growth of COUNT with subspace volume.
func PolyFeatures(x []float64) []float64 {
	return PolyFeaturesInto(make([]float64, 0, PolyDim(len(x))), x)
}

// PolyFeaturesInto appends the degree-2 polynomial expansion of x to
// dst and returns it — the allocation-free variant serving hot paths
// use with a reusable scratch buffer (pass dst[:0] with capacity
// PolyDim(len(x))).
func PolyFeaturesInto(dst, x []float64) []float64 {
	d := len(x)
	dst = append(dst, x...)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			dst = append(dst, x[i]*x[j])
		}
	}
	return dst
}

// PolyDim returns len(PolyFeatures(x)) for an input of dimension d.
func PolyDim(d int) int { return d + d*(d+1)/2 }
