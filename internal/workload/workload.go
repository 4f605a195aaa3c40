// Package workload generates the synthetic datasets and analyst query
// streams the experiments run on. The paper's claims are workload-shape
// claims — "queries define overlapping data subspaces" (§IV P2, citing
// [17]-[20], [25]) — so the generators expose exactly those knobs:
// clustered data (Gaussian mixtures, Zipf-keyed tables), analyst
// "interest regions" that concentrate queries on small overlapping
// subspaces, and interest drift over time (RT1.4, RT5.3).
//
// All generators are deterministic given a seed.
package workload

import (
	"math"
	"math/rand"

	"repro/internal/query"
	"repro/internal/storage"
)

// NewRNG returns a seeded PRNG; all experiment randomness flows from
// these.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Uniform generates n rows with d attributes uniform in [mins[i],
// maxs[i]). Keys are sequential from firstKey.
func Uniform(rng *rand.Rand, n, d int, mins, maxs []float64, firstKey uint64) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		vec := make([]float64, d)
		for j := 0; j < d; j++ {
			lo, hi := bound(mins, j, 0), bound(maxs, j, 1)
			vec[j] = lo + rng.Float64()*(hi-lo)
		}
		rows[i] = storage.Row{Key: firstKey + uint64(i), Vec: vec}
	}
	return rows
}

func bound(b []float64, j int, def float64) float64 {
	if j < len(b) {
		return b[j]
	}
	return def
}

// MixtureComponent is one Gaussian blob of a mixture.
type MixtureComponent struct {
	// Center is the component mean.
	Center []float64
	// Std is the per-dimension standard deviation.
	Std float64
	// Weight is the relative mass (need not be normalised).
	Weight float64
}

// GaussianMixture generates n rows with d attributes drawn from the given
// mixture. This models the clustered real-world distributions the paper's
// operators exploit ("known properties of real-world data sets (e.g.,
// their distributions)", RT2). The row vectors are carved, in row order,
// from one backing array, each with its capacity pinned to its own d
// values.
func GaussianMixture(rng *rand.Rand, n, d int, comps []MixtureComponent, firstKey uint64) []storage.Row {
	return mixture(rng, n, d, comps, firstKey).Rows()
}

// mixture is GaussianMixture as a table: per row, one draw picks the
// component, then one normal draw per column.
func mixture(rng *rand.Rand, n, d int, comps []MixtureComponent, firstKey uint64) storage.Batch {
	var totalW float64
	for _, c := range comps {
		totalW += c.Weight
	}
	t := storage.Batch{Keys: make([]uint64, n), Vals: make([]float64, n*d), Width: d}
	unit := MixtureComponent{Std: 1, Weight: 1}
	for i := range n {
		c := &unit
		if len(comps) > 0 {
			c = &comps[pickComponent(rng, comps, totalW)]
		}
		row := t.Vec(i)
		for j := range row {
			mu := 0.0
			if j < len(c.Center) {
				mu = c.Center[j]
			}
			row[j] = mu + rng.NormFloat64()*c.Std
		}
		t.Keys[i] = firstKey + uint64(i)
	}
	return t
}

// pickComponent draws the index of one of comps (at least one), each
// with probability proportional to its weight.
func pickComponent(rng *rand.Rand, comps []MixtureComponent, totalW float64) int {
	target := rng.Float64() * totalW
	var cum float64
	for i, c := range comps {
		cum += c.Weight
		if target <= cum {
			return i
		}
	}
	return len(comps) - 1
}

// DefaultMixture returns a 4-component mixture spread over [0,100]^d, a
// convenient standard dataset for the experiments.
func DefaultMixture(d int) []MixtureComponent {
	centers := [][]float64{{25, 25}, {75, 75}, {25, 75}, {75, 25}}
	comps := make([]MixtureComponent, len(centers))
	for i, c2 := range centers {
		c := make([]float64, d)
		for j := range c {
			c[j] = c2[j%2]
		}
		comps[i] = MixtureComponent{Center: c, Std: 8, Weight: 1}
	}
	return comps
}

// StandardTable builds the repo's standard 3-column clustered dataset —
// x, y spatial from the default Gaussian mixture, z = 2x + 5 + noise —
// from a single seed, keys 0..n-1. Cluster members, experiments and
// examples all build it here so equal seeds produce bit-identical data
// everywhere (the distributed cluster's partitioning depends on it).
// The mixture draws every row first; a second pass then draws z's noise
// row by row.
func StandardTable(n int, seed int64) storage.Batch {
	rng := NewRNG(seed)
	t := mixture(rng, n, 3, DefaultMixture(3), 0)
	for i := range n {
		correlate(rng, t.Vec(i), 0, 2, 2, 5, 1)
	}
	return t
}

// StandardRows is StandardTable as rows, their vectors carved from the
// table's one backing array.
func StandardRows(n int, seed int64) []storage.Row {
	return StandardTable(n, seed).Rows()
}

// CorrelatedColumns rewrites columns colY of rows so that
// vec[colY] = slope*vec[colX] + intercept + noise. Used by the
// dependence-statistics experiments (E3): the true regression slope
// inside any subspace is then known by construction.
func CorrelatedColumns(rng *rand.Rand, rows []storage.Row, colX, colY int, slope, intercept, noiseStd float64) {
	for i := range rows {
		correlate(rng, rows[i].Vec, colX, colY, slope, intercept, noiseStd)
	}
}

// correlate is CorrelatedColumns for one vector; a vector too short for
// either column is left alone and draws nothing.
func correlate(rng *rand.Rand, vec []float64, colX, colY int, slope, intercept, noiseStd float64) {
	if colX >= len(vec) || colY >= len(vec) {
		return
	}
	vec[colY] = slope*vec[colX] + intercept + rng.NormFloat64()*noiseStd
}

// ZipfKeys generates n rows whose keys follow a Zipf distribution over
// [0, keySpace) — the skewed join-key distribution of the rank-join
// experiments (E4). Column 0 is the row's score, uniform in [0, 1).
// v >= 1 flattens the distribution head (rand.Zipf's q parameter): v=1
// gives the classic heavy head where the hottest key draws ~20% of rows;
// larger v bounds per-key multiplicity so joins stay near-linear.
func ZipfKeys(rng *rand.Rand, n int, keySpace uint64, s, v float64, extraCols int) []storage.Row {
	if s < 1.001 {
		s = 1.001
	}
	if v < 1 {
		v = 1
	}
	z := rand.NewZipf(rng, s, v, keySpace-1)
	rows := make([]storage.Row, n)
	for i := range rows {
		vec := make([]float64, 1+extraCols)
		vec[0] = rng.Float64()
		for j := 1; j < len(vec); j++ {
			vec[j] = rng.Float64()
		}
		rows[i] = storage.Row{Key: z.Uint64(), Vec: vec}
	}
	return rows
}

// InterestRegion is one analyst focus area: queries cluster around its
// centre with extents near Extent.
type InterestRegion struct {
	// Center is the region's focus point.
	Center []float64
	// Spread is the std-dev of query centres around Center.
	Spread float64
	// Extent is the typical query radius / half-side.
	Extent float64
	// ExtentJitter scales the extent by (1 ± jitter).
	ExtentJitter float64
	// Weight is the region's share of the query stream.
	Weight float64
}

// QueryStream generates analytical queries concentrated on the given
// interest regions: the defining workload property P2 leverages. kind
// selects the aggregate; radiusFrac is the fraction of queries that use
// radius (vs range) selections.
type QueryStream struct {
	// Regions are the active interest regions.
	Regions []InterestRegion
	// Aggregate is the queries' analytical operator.
	Aggregate query.Agg
	// Col/Col2 are the aggregate columns.
	Col, Col2 int
	// RadiusFrac in [0,1] is the share of radius (vs range) selections.
	RadiusFrac float64

	rng *rand.Rand
}

// NewQueryStream builds a stream over the given regions.
func NewQueryStream(rng *rand.Rand, regions []InterestRegion, agg query.Agg) *QueryStream {
	return &QueryStream{Regions: regions, Aggregate: agg, rng: rng, Col: 0, Col2: 1}
}

// Next draws the next query.
func (qs *QueryStream) Next() query.Query {
	var totalW float64
	for _, r := range qs.Regions {
		totalW += r.Weight
	}
	reg := qs.Regions[0]
	target := qs.rng.Float64() * totalW
	var cum float64
	for _, r := range qs.Regions {
		cum += r.Weight
		if target <= cum {
			reg = r
			break
		}
	}
	d := len(reg.Center)
	center := make([]float64, d)
	for j := 0; j < d; j++ {
		center[j] = reg.Center[j] + qs.rng.NormFloat64()*reg.Spread
	}
	extent := reg.Extent * (1 + (qs.rng.Float64()*2-1)*reg.ExtentJitter)
	if extent <= 0 {
		extent = reg.Extent
	}
	var sel query.Selection
	if qs.rng.Float64() < qs.RadiusFrac {
		sel = query.Selection{Center: center, Radius: extent}
	} else {
		los := make([]float64, d)
		his := make([]float64, d)
		for j := 0; j < d; j++ {
			los[j] = center[j] - extent
			his[j] = center[j] + extent
		}
		sel = query.Selection{Los: los, His: his}
	}
	return query.Query{Select: sel, Aggregate: qs.Aggregate, Col: qs.Col, Col2: qs.Col2}
}

// Batch draws n queries.
func (qs *QueryStream) Batch(n int) []query.Query {
	out := make([]query.Query, n)
	for i := range out {
		out[i] = qs.Next()
	}
	return out
}

// Shift moves every region's centre by delta along each dimension —
// the "analysts' interests drift" event of RT1.4 and RT5.3.
func (qs *QueryStream) Shift(delta float64) {
	for i := range qs.Regions {
		for j := range qs.Regions[i].Center {
			qs.Regions[i].Center[j] += delta
		}
	}
}

// DefaultRegions returns two interest regions sitting on two of the
// DefaultMixture blobs (so queries hit dense data), with extents sized to
// select ~1-5% of rows.
func DefaultRegions(d int) []InterestRegion {
	mk := func(base []float64) []float64 {
		c := make([]float64, d)
		for j := range c {
			c[j] = base[j%2]
		}
		return c
	}
	return []InterestRegion{
		{Center: mk([]float64{25, 25}), Spread: 4, Extent: 6, ExtentJitter: 0.5, Weight: 0.6},
		{Center: mk([]float64{75, 75}), Spread: 4, Extent: 6, ExtentJitter: 0.5, Weight: 0.4},
	}
}

// KNNPoint draws a kNN query point near the given interest regions.
func KNNPoint(rng *rand.Rand, regions []InterestRegion) []float64 {
	var totalW float64
	for _, r := range regions {
		totalW += r.Weight
	}
	reg := regions[0]
	target := rng.Float64() * totalW
	var cum float64
	for _, r := range regions {
		cum += r.Weight
		if target <= cum {
			reg = r
			break
		}
	}
	p := make([]float64, len(reg.Center))
	for j := range p {
		p[j] = reg.Center[j] + rng.NormFloat64()*reg.Spread
	}
	return p
}

// MissingMask marks a fraction frac of cells (row, col) as missing by
// setting them to NaN, returning the count masked. Used by the imputation
// experiments (E7).
func MissingMask(rng *rand.Rand, rows []storage.Row, frac float64) int {
	var masked int
	for i := range rows {
		for j := range rows[i].Vec {
			if rng.Float64() < frac {
				rows[i].Vec[j] = math.NaN()
				masked++
			}
		}
	}
	return masked
}
