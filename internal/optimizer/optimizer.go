// Package optimizer implements P4 ("understand the alternatives and
// select optimal processing methods", RT3): it collects a corpus of
// measured execution costs for the alternative processing methods of an
// operator, trains per-alternative learned cost models over workload
// features, and selects the predicted-cheapest alternative on the fly
// (objective O6: "training, learning, and building optimising modules,
// which on-the-fly adopt the best execution method").
//
// It also wraps the per-quantum inference-model selection of RT3.3 /
// ref [48] ("query-driven regression model selection") over the ml
// package's cross-validation machinery.
package optimizer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/exec"
	"repro/internal/learn"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/query"
)

// ErrNoSamples is returned when training on an empty corpus.
var ErrNoSamples = errors.New("optimizer: no samples")

// Paradigm identifies one execution alternative (RT3.2).
type Paradigm int

// The two distributed processing paradigms the paper contrasts.
const (
	// MapReduce engages every data node through the full stack.
	MapReduce Paradigm = iota + 1
	// Cohort has a coordinator surgically engage selected nodes.
	Cohort
)

// String names the paradigm.
func (p Paradigm) String() string {
	switch p {
	case MapReduce:
		return "mapreduce"
	case Cohort:
		return "coordinator-cohort"
	default:
		return fmt.Sprintf("Paradigm(%d)", int(p))
	}
}

// Features describes one task for the cost models. The paper's examples
// (join selectivities and distribution degrees, kNN's k and data
// distribution) map onto these.
type Features struct {
	// Rows is the base data size.
	Rows float64
	// Nodes is the cluster size.
	Nodes float64
	// Selectivity is the estimated fraction of rows the task touches.
	Selectivity float64
	// K is the result-size parameter (top-K, kNN k); 0 when unused.
	K float64
}

func (f Features) vec() []float64 {
	// Log-scaled sizes stabilise the tree splits across magnitudes.
	return []float64{
		math.Log1p(f.Rows),
		f.Nodes,
		f.Selectivity,
		math.Log1p(f.K),
	}
}

// Sample is one measured execution.
type Sample struct {
	// F holds the task features.
	F Features
	// Paradigm is the alternative that was run.
	Paradigm Paradigm
	// Seconds is the measured virtual execution time.
	Seconds float64
}

// CostModel predicts task cost per paradigm.
type CostModel struct {
	models map[Paradigm]learn.Regressor
}

// Train fits one gradient-boosted cost model per paradigm present in the
// corpus, regressing log-seconds on features.
func Train(samples []Sample) (*CostModel, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	byP := make(map[Paradigm][]Sample)
	for _, s := range samples {
		byP[s.Paradigm] = append(byP[s.Paradigm], s)
	}
	cm := &CostModel{models: make(map[Paradigm]learn.Regressor, len(byP))}
	for p, ss := range byP {
		xs := make([][]float64, len(ss))
		ys := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = s.F.vec()
			ys[i] = math.Log1p(s.Seconds)
		}
		m := &learn.GradientBoosting{Rounds: 60, LearningRate: 0.15, MaxDepth: 3}
		if err := m.Fit(xs, ys); err != nil {
			return nil, fmt.Errorf("optimizer train %v: %w", p, err)
		}
		cm.models[p] = m
	}
	return cm, nil
}

// Predict returns the model's cost estimate (seconds) for running f
// under p; +Inf when the paradigm has no model.
func (cm *CostModel) Predict(f Features, p Paradigm) float64 {
	m, ok := cm.models[p]
	if !ok {
		return math.Inf(1)
	}
	return math.Expm1(m.Predict(f.vec()))
}

// Choose returns the predicted-cheapest paradigm for f.
func (cm *CostModel) Choose(f Features) Paradigm {
	ps := make([]Paradigm, 0, len(cm.models))
	for p := range cm.models {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	best := Paradigm(0)
	bestCost := math.Inf(1)
	for _, p := range ps {
		if c := cm.Predict(f, p); c < bestCost {
			bestCost = c
			best = p
		}
	}
	return best
}

// CollectRangeCorpus executes each query under both paradigms on ex and
// returns the measured samples plus the total collection cost — RT3's
// "in-depth experimentation in order to identify costs".
func CollectRangeCorpus(ex *exec.Executor, queries []query.Query) ([]Sample, metrics.Cost, error) {
	var out []Sample
	var total metrics.Cost
	nodes := float64(ex.Engine().Cluster().Size())
	rows := float64(ex.Table().Rows())
	for i, q := range queries {
		sel := ex.EstimateSelectivity(q.Select)
		f := Features{Rows: rows, Nodes: nodes, Selectivity: sel}
		_, mrCost, err := ex.ExactMapReduce(q)
		if err != nil {
			return nil, total, fmt.Errorf("corpus query %d: %w", i, err)
		}
		total = total.Add(mrCost)
		out = append(out, Sample{F: f, Paradigm: MapReduce, Seconds: mrCost.Time.Seconds()})
		_, ccCost, err := ex.ExactCohort(q)
		if err != nil {
			return nil, total, fmt.Errorf("corpus query %d: %w", i, err)
		}
		total = total.Add(ccCost)
		out = append(out, Sample{F: f, Paradigm: Cohort, Seconds: ccCost.Time.Seconds()})
	}
	return out, total, nil
}

// Regret evaluates a trained model on held-out paired measurements:
// pairs[i] holds the measured seconds per paradigm for features fs[i].
// It returns the mean regret (chosen minus best, in seconds) of the
// model's choices and of the two static policies, keyed by policy name —
// the E8 rows.
func Regret(cm *CostModel, fs []Features, pairs []map[Paradigm]float64) map[string]float64 {
	out := map[string]float64{"learned": 0, "always-mapreduce": 0, "always-cohort": 0, "oracle": 0}
	if len(fs) == 0 {
		return out
	}
	for i, f := range fs {
		best := math.Inf(1)
		for _, sec := range pairs[i] {
			if sec < best {
				best = sec
			}
		}
		chosen := cm.Choose(f)
		out["learned"] += pick(pairs[i], chosen) - best
		out["always-mapreduce"] += pick(pairs[i], MapReduce) - best
		out["always-cohort"] += pick(pairs[i], Cohort) - best
	}
	n := float64(len(fs))
	for k := range out {
		out[k] /= n
	}
	return out
}

func pick(m map[Paradigm]float64, p Paradigm) float64 {
	if v, ok := m[p]; ok {
		return v
	}
	return math.Inf(1)
}

// Accuracy returns the fraction of held-out tasks where the model picks
// the truly cheapest paradigm.
func Accuracy(cm *CostModel, fs []Features, pairs []map[Paradigm]float64) float64 {
	if len(fs) == 0 {
		return 0
	}
	correct := 0
	for i, f := range fs {
		best := Paradigm(0)
		bestSec := math.Inf(1)
		for p, sec := range pairs[i] {
			if sec < bestSec {
				bestSec = sec
				best = p
			}
		}
		if cm.Choose(f) == best {
			correct++
		}
	}
	return float64(correct) / float64(len(fs))
}

// StandardRegressorFamilies returns the candidate inference-model
// families of RT3.3 (linear, quadratic via polynomial features, kNN,
// boosted trees) for query-driven model selection (ref [48]).
func StandardRegressorFamilies() map[string]func() learn.Regressor {
	return map[string]func() learn.Regressor{
		"linear": func() learn.Regressor { return &learn.LinearRegression{Ridge: 1e-6} },
		"quadratic": func() learn.Regressor {
			return &polyRegressor{inner: &learn.LinearRegression{Ridge: 1e-6}}
		},
		"knn":     func() learn.Regressor { return &learn.KNNRegressor{K: 7, Weighted: true} },
		"boosted": func() learn.Regressor { return &learn.GradientBoosting{Rounds: 40, MaxDepth: 2} },
	}
}

// polyRegressor lifts a linear model onto degree-2 polynomial features.
type polyRegressor struct {
	inner *learn.LinearRegression
}

// Fit expands features and fits the inner model.
func (p *polyRegressor) Fit(xs [][]float64, ys []float64) error {
	ex := make([][]float64, len(xs))
	for i, x := range xs {
		ex[i] = ml.PolyFeatures(x)
	}
	return p.inner.Fit(ex, ys)
}

// Predict expands features and evaluates the inner model.
func (p *polyRegressor) Predict(x []float64) float64 {
	return p.inner.Predict(ml.PolyFeatures(x))
}

// SelectInferenceModel picks the best regressor family for the given
// training pairs by k-fold cross-validation (RT3.3 / ref [48]).
func SelectInferenceModel(xs [][]float64, ys []float64, folds int, rng *rand.Rand) (string, map[string]float64, error) {
	return learn.SelectModel(StandardRegressorFamilies(), xs, ys, folds, rng)
}
