package query

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

var allAggs = []Agg{Count, Sum, Avg, Var, Corr, RegSlope}

// testTable holds rows the way a serving member does: each partition's
// rows beside its column store. Rows are placed by MixKey, or by ranges
// of the first column when bounds is set (partition i holds values
// below bounds[i]; the last partition holds the rest, NaN included).
type testTable struct {
	width int
	rows  [][]storage.Row
	cols  []*storage.ColStore
}

func newTestTable(width, nParts int, bounds []float64, rows []storage.Row) *testTable {
	tt := &testTable{width: width, rows: make([][]storage.Row, nParts), cols: make([]*storage.ColStore, nParts)}
	for _, r := range rows {
		p := int(storage.MixKey(r.Key) % uint64(nParts))
		if bounds != nil {
			p = nParts - 1
			for i, b := range bounds {
				if r.Vec[0] < b {
					p = i
					break
				}
			}
		}
		tt.rows[p] = append(tt.rows[p], r)
	}
	for p := range tt.cols {
		tt.cols[p] = storage.BuildColStore(width, tt.rows[p])
	}
	return tt
}

// view returns partition p's column view.
func (tt *testTable) view(t testing.TB, p int) storage.ColumnView {
	t.Helper()
	v, ok := tt.cols[p].View()
	if !ok {
		t.Fatalf("partition %d has no columnar view", p)
	}
	return v
}

func vecTestTable(rng *rand.Rand, nRows, width, nParts int, ranged bool) *testTable {
	var bounds []float64
	if ranged {
		bounds = make([]float64, nParts-1)
		for i := range bounds {
			bounds[i] = 100 * float64(i+1) / float64(nParts)
		}
	}
	rows := make([]storage.Row, nRows)
	for i := range rows {
		vec := make([]float64, width)
		for j := range vec {
			vec[j] = rng.Float64() * 100
		}
		rows[i] = storage.Row{Key: uint64(i + 1), Vec: vec}
	}
	return newTestTable(width, nParts, bounds, rows)
}

func randSelection(rng *rand.Rand, width int) Selection {
	dims := 1 + rng.Intn(width)
	if rng.Intn(8) == 0 {
		dims = width + 1 // wider than any row: must match nothing
	}
	if rng.Intn(2) == 0 {
		c := make([]float64, dims)
		for j := range c {
			c[j] = rng.Float64() * 100
		}
		return Selection{Center: c, Radius: 5 + rng.Float64()*40}
	}
	los := make([]float64, dims)
	his := make([]float64, dims)
	for j := range los {
		a, b := rng.Float64()*100, rng.Float64()*100
		if a > b {
			a, b = b, a
		}
		los[j], his[j] = a, b
	}
	return Selection{Los: los, His: his}
}

// rowReference computes the row-at-a-time reference answer and the
// per-partition reference partials (PartialEval merged with MergeEval —
// the retained correctness oracle).
func rowReference(q Query, tbl *testTable) (Result, [][]float64) {
	partials := make([][]float64, len(tbl.rows))
	for p, rows := range tbl.rows {
		partials[p] = PartialEval(q, rows)
	}
	return MergeEval(q, partials), partials
}

// tableEval answers q over every partition of tbl the way the serving
// path does: the columns are checked against the table's width, each
// partition contributes its vectorised partial (PartialEvalView), and
// the partials merge through the wire format (MergeEval). A partition
// whose zone map cannot meet the selection is left out, and must hold no
// match: pruning never drops a row.
func tableEval(t *testing.T, q Query, tbl *testTable) (Result, error) {
	t.Helper()
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	if err := q.ValidateCols(tbl.width); err != nil {
		return Result{}, err
	}
	var partials [][]float64
	for p, cs := range tbl.cols {
		partial := PartialEvalView(q, tbl.view(t, p))
		if !ZoneCanMatch(q.Select, cs.Zone()) {
			if partial[0] != 0 {
				t.Fatalf("partition %d was pruned but holds %v rows matching %+v", p, partial[0], q.Select)
			}
			continue
		}
		partials = append(partials, partial)
	}
	return MergeEval(q, partials), nil
}

// TestVectorizedEquivalenceProperty is the central property of the
// vectorized engine: across random tables (hash- and range-
// partitioned), random selections (rectangles and spheres, including
// ones wider than the rows) and all six aggregates, the vectorized path
// must agree with the row-at-a-time reference — exactly on the count
// (membership is bit-identical to Contains), within pruneTol·Σ|x| on
// the first-order sums (the kernels add them four lanes at a time, the
// reference in row order), and within an explicit 1e-9 relative
// tolerance for VAR/CORR/REGSLOPE, whose second-order moments the
// kernels deliberately accumulate in a shifted frame.
func TestVectorizedEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		width := 2 + rng.Intn(3)
		nParts := 2 + rng.Intn(6)
		ranged := rng.Intn(2) == 0
		tbl := vecTestTable(rng, 300+rng.Intn(1200), width, nParts, ranged)
		q := Query{
			Select:    randSelection(rng, width),
			Aggregate: allAggs[rng.Intn(len(allAggs))],
			Col:       rng.Intn(width),
			Col2:      rng.Intn(width),
		}
		ref, refPartials := rowReference(q, tbl)

		// Per-partition: vectorized partials against the reference.
		var absSum float64 // Σ|x| over the selected rows of the table
		for p := range tbl.cols {
			view := tbl.view(t, p)
			got := PartialEvalView(q, view)
			want := refPartials[p]
			if got[0] != want[0] {
				t.Fatalf("trial %d part %d: n %v != %v (q=%+v)", trial, p, got[0], want[0], q)
			}
			scales := slotScales(q, view)
			absSum += scales[1]
			// Slots the aggregate's finish consumes (the vectorized
			// partial leaves unused slots zero): [1]=sum, [2]=sum2,
			// [3]=sx, [4]=sy, [5]=sxx, [6]=sxy, [7]=syy.
			var first, approx []int
			switch q.Aggregate {
			case Sum, Avg:
				first = []int{1}
			case Var:
				first, approx = []int{1}, []int{2}
			case Corr:
				first, approx = []int{3, 4}, []int{5, 6, 7}
			case RegSlope:
				first, approx = []int{3, 4}, []int{5, 6}
			}
			for _, s := range first {
				if !(math.Abs(got[s]-want[s]) <= pruneTol*scales[s]) {
					t.Fatalf("trial %d part %d slot %d: first-order sum %v != %v, off by %g of Σ|x| = %g (q=%+v)",
						trial, p, s, got[s], want[s], math.Abs(got[s]-want[s])/scales[s], scales[s], q)
				}
			}
			for _, s := range approx {
				if d := math.Abs(got[s] - want[s]); d > 1e-9*math.Max(1, math.Abs(want[s])) {
					t.Fatalf("trial %d part %d slot %d: %v != %v (q=%+v)", trial, p, s, got[s], want[s], q)
				}
			}
		}

		// End to end, with pruning, through the wire format.
		got, err := tableEval(t, q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if got.Support != ref.Support {
			t.Fatalf("trial %d: support %d != %d (q=%+v)", trial, got.Support, ref.Support, q)
		}
		switch q.Aggregate {
		case Count:
			if got.Value != ref.Value {
				t.Fatalf("trial %d: COUNT = %v, want bit-identical %v (q=%+v)", trial, got.Value, ref.Value, q)
			}
		case Sum, Avg:
			scale := absSum
			if q.Aggregate == Avg {
				scale /= math.Max(1, float64(ref.Support))
			}
			if !(math.Abs(got.Value-ref.Value) <= pruneTol*scale) {
				t.Fatalf("trial %d: %s = %v, want %v within %g of scale %g (q=%+v)",
					trial, q.Aggregate, got.Value, ref.Value, pruneTol, scale, q)
			}
		default:
			if d := math.Abs(got.Value - ref.Value); d > 1e-9*math.Max(1, math.Abs(ref.Value)) {
				t.Fatalf("trial %d: %s = %v, want %v within 1e-9 rel (q=%+v)",
					trial, q.Aggregate, got.Value, ref.Value, q)
			}
		}
	}
}

// TestZoneMapPruningComplete asserts the acceptance property on a
// range-partitioned table: zone-map pruning skips 100% of the
// partitions whose data cannot intersect the selection, and never skips
// one holding a matching row.
func TestZoneMapPruningComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nParts = 8
	tbl := vecTestTable(rng, 4000, 3, nParts, true)

	sels := []Selection{
		{Los: []float64{10, 0, 0}, His: []float64{20, 100, 100}},       // one range stripe
		{Los: []float64{40, 20, 0}, His: []float64{70, 60, 100}},       // a few stripes
		{Center: []float64{30, 50, 50}, Radius: 8},                     // sphere
		{Los: []float64{200, 0, 0}, His: []float64{300, 100, 100}},     // off the data: prune all
		{Los: []float64{0, 0, 0, 0}, His: []float64{100, 100, 100, 0}}, // wider than rows: prune all
	}
	for si, sel := range sels {
		for p, rows := range tbl.rows {
			kept := ZoneCanMatch(sel, tbl.cols[p].Zone())
			// Geometric intersection with the partition's actual data box.
			intersects := zoneFromRows(rows, sel)
			hasMatch := false
			for _, r := range rows {
				if sel.Contains(r.Vec) {
					hasMatch = true
					break
				}
			}
			if hasMatch && !kept {
				t.Fatalf("sel %d: partition %d holds matches but was pruned", si, p)
			}
			if !intersects && kept {
				t.Fatalf("sel %d: partition %d cannot intersect but was kept", si, p)
			}
		}
	}
}

// zoneFromRows recomputes, independently of the storage layer, whether
// the rows' bounding box can intersect sel.
func zoneFromRows(rows []storage.Row, sel Selection) bool {
	if len(rows) == 0 {
		return false
	}
	mins := append([]float64(nil), rows[0].Vec...)
	maxs := append([]float64(nil), rows[0].Vec...)
	for _, r := range rows[1:] {
		for j, v := range r.Vec {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	return ZoneCanMatch(sel, storage.ZoneMap{Mins: mins, Maxs: maxs, Rows: len(rows)})
}

// TestShiftedFrameStability is the mean ≫ spread regression: naive
// sum-of-squares arithmetic loses all significant digits (and used to
// go catastrophically negative / NaN). The shifted-frame kernels must
// recover the true statistics, and the clamped raw-moment finish — of
// the row reference and of partials merged through the wire format —
// must never return a negative variance, a NaN or an out-of-range
// correlation.
func TestShiftedFrameStability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 4000
	const mean = 1e9
	rows := make([]storage.Row, n)
	var xs, ys []float64
	for i := range rows {
		x := mean + rng.Float64() // spread 1, mean 1e9
		y := mean/2 + 0.5*(x-mean) + 0.01*rng.NormFloat64()
		rows[i] = storage.Row{Key: uint64(i + 1), Vec: []float64{x, y}}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	tbl := newTestTable(2, 3, nil, rows)
	sel := Selection{Los: []float64{0, 0}, His: []float64{2 * mean, 2 * mean}}

	trueVar := twoPassVar(xs)
	trueCorr := twoPassCorr(xs, ys)

	view, _ := storage.BuildColStore(2, rows).View()
	qv := Query{Select: sel, Aggregate: Var, Col: 0}
	got := EvalView(qv, view)
	if got.Support != n {
		t.Fatalf("support %d != %d", got.Support, n)
	}
	if rel := math.Abs(got.Value-trueVar) / trueVar; rel > 1e-6 {
		t.Fatalf("vectorized Var = %v, truth %v (rel err %v)", got.Value, trueVar, rel)
	}

	qc := Query{Select: sel, Aggregate: Corr, Col: 0, Col2: 1}
	if gotC := EvalView(qc, view); math.Abs(gotC.Value-trueCorr) > 1e-3 {
		t.Fatalf("vectorized Corr = %v, truth %v", gotC.Value, trueCorr)
	}

	// The raw-moment paths: inaccurate at this conditioning by
	// construction, but the finish-time clamp must keep them sane.
	for _, q := range []Query{qv, qc, {Select: sel, Aggregate: RegSlope, Col: 0, Col2: 1}} {
		merged, err := tableEval(t, q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		for path, res := range map[string]Result{"row path": EvalRows(q, rows), "merged partials": merged} {
			if math.IsNaN(res.Value) || math.IsInf(res.Value, 0) {
				t.Fatalf("%s %s = %v, want finite", path, q.Aggregate, res.Value)
			}
			if q.Aggregate == Var && res.Value < 0 {
				t.Fatalf("%s Var = %v, want clamped >= 0", path, res.Value)
			}
			if q.Aggregate == Corr && math.Abs(res.Value) > 1 {
				t.Fatalf("%s Corr = %v, want clamped to [-1, 1]", path, res.Value)
			}
		}
	}
}

func twoPassVar(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

func twoPassCorr(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxx, syy, sxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// TestPivotIgnoresUnselectedRows: the pivot of the shifted frame is a
// SELECTED value. A row outside the selection may hold anything in the
// aggregated columns — a NaN, an Inf, an outlier at 1e300 — and neither a
// whole-view scan nor a pruned one may let it into the frame, whether it
// is the view's first row or a block's.
func TestPivotIgnoresUnselectedRows(t *testing.T) {
	const n = 3*storage.BlockRows + 44
	sels := []Selection{
		{Los: []float64{19, 19}, His: []float64{31, 31}},
		{Center: []float64{25, 25}, Radius: 9},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		for _, at := range []int{0, storage.BlockRows} {
			rng := rand.New(rand.NewSource(int64(at) + 1))
			rows := make([]storage.Row, n)
			for i := range rows {
				x, y := 20+10*rng.Float64(), 20+10*rng.Float64()
				rows[i] = storage.Row{Key: uint64(i), Vec: []float64{x, y, 2*x + 5 + rng.NormFloat64(), 3*y - 1 + rng.NormFloat64()}}
			}
			rows[at].Vec = []float64{90, 90, bad, bad} // outside both selections
			view, _ := storage.BuildColStore(4, rows).View()
			for _, sel := range sels {
				for _, agg := range []Agg{Var, Corr, RegSlope} {
					q := Query{Select: sel, Aggregate: agg, Col: 2, Col2: 3}
					want := EvalRows(q, rows)
					if want.Support < n/2 || want.Value == 0 {
						t.Fatalf("%v: the reference selects %d rows and answers %v", agg, want.Support, want.Value)
					}
					pruned, _, _ := PartialEvalPruned(q, view)
					for name, got := range map[string]Result{
						"EvalView":          EvalView(q, view),
						"PartialEvalView":   MergeEval(q, [][]float64{PartialEvalView(q, view)}),
						"PartialEvalPruned": MergeEval(q, [][]float64{pruned}),
					} {
						if got.Support != want.Support || !(math.Abs(got.Value-want.Value) <= 1e-9*math.Abs(want.Value)) {
							t.Errorf("%v at row %d, %v over %+v: %s = %v (support %d), EvalRows = %v (support %d)",
								bad, at, agg, sel, name, got.Value, got.Support, want.Value, want.Support)
						}
					}
				}
			}
		}
	}
}

// TestNaNParity pins the kernels to the reference's NaN semantics: a
// NaN coordinate fails both exclusion comparisons in Contains and so
// MATCHES any rectangle (and fails the sphere's distance test). The
// vectorized path must agree, and zone maps over NaN-bearing
// partitions must stop pruning (min/max cannot bound NaN).
func TestNaNParity(t *testing.T) {
	nan := math.NaN()
	tbl := newTestTable(2, 2, []float64{50}, []storage.Row{
		{Key: 1, Vec: []float64{10, 10}},
		{Key: 2, Vec: []float64{nan, 10}}, // NaN routes to the last partition (comparisons false)
		{Key: 3, Vec: []float64{90, 90}},
		{Key: 4, Vec: []float64{90, nan}},
	})
	sels := []Selection{
		{Los: []float64{80, 80}, His: []float64{95, 95}},     // away from partition 0's numbers
		{Los: []float64{0, 0}, His: []float64{20, 20}},       //
		{Center: []float64{90, 90}, Radius: 5},               // sphere: NaN never matches
		{Los: []float64{200, 200}, His: []float64{300, 300}}, // matches only via NaN wildcards
	}
	for si, sel := range sels {
		for _, agg := range allAggs {
			q := Query{Select: sel, Aggregate: agg, Col: 1, Col2: 0}
			ref, _ := rowReference(q, tbl)
			got, err := tableEval(t, q, tbl)
			if err != nil {
				t.Fatal(err)
			}
			if got.Support != ref.Support {
				t.Errorf("sel %d %s: support %d != reference %d", si, agg, got.Support, ref.Support)
			}
			// Values may legitimately both be NaN (NaN rows selected into
			// the aggregate column); require agreement in NaN-ness and
			// otherwise tolerance.
			switch {
			case math.IsNaN(ref.Value) != math.IsNaN(got.Value):
				t.Errorf("sel %d %s: NaN-ness differs: vec %v, ref %v", si, agg, got.Value, ref.Value)
			case !math.IsNaN(ref.Value):
				if d := math.Abs(got.Value - ref.Value); d > 1e-9*math.Max(1, math.Abs(ref.Value)) {
					t.Errorf("sel %d %s: %v != %v", si, agg, got.Value, ref.Value)
				}
			}
		}
	}
}

func TestValidateCols(t *testing.T) {
	sel := Selection{Los: []float64{0}, His: []float64{100}}
	cases := []struct {
		q     Query
		width int
		ok    bool
	}{
		{Query{Select: sel, Aggregate: Count, Col: 99}, 3, true}, // Count ignores Col
		{Query{Select: sel, Aggregate: Sum, Col: 2}, 3, true},
		{Query{Select: sel, Aggregate: Sum, Col: 3}, 3, false},
		{Query{Select: sel, Aggregate: Sum, Col: -1}, 3, false},
		{Query{Select: sel, Aggregate: Corr, Col: 0, Col2: 2}, 3, true},
		{Query{Select: sel, Aggregate: Corr, Col: 0, Col2: 3}, 3, false},
		{Query{Select: sel, Aggregate: RegSlope, Col: 5, Col2: 0}, 3, false},
	}
	for i, c := range cases {
		err := c.q.ValidateCols(c.width)
		if c.ok && err != nil {
			t.Errorf("case %d: unexpected error %v", i, err)
		}
		if !c.ok {
			if !errors.Is(err, ErrBadQuery) {
				t.Errorf("case %d: err = %v, want ErrBadQuery", i, err)
			}
		}
	}

	// The evaluation boundary rejects, rather than silently answering 0.
	rng := rand.New(rand.NewSource(3))
	tbl := vecTestTable(rng, 100, 3, 2, false)
	_, err := tableEval(t, Query{Select: Selection{Los: []float64{0, 0}, His: []float64{100, 100}}, Aggregate: Sum, Col: 7}, tbl)
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v, want ErrBadQuery", err)
	}
}

// FuzzSelectIndices cross-checks the block selection kernels against
// Selection.Contains on arbitrary selection geometry.
func FuzzSelectIndices(f *testing.F) {
	f.Add(10.0, 60.0, 30.0, 70.0, 15.0, false)
	f.Add(50.0, 50.0, 10.0, 0.0, 20.0, true)
	f.Add(-5.0, 5.0, 90.0, 120.0, 3.0, true)

	rng := rand.New(rand.NewSource(99))
	scanned := make([]storage.Row, 3000)
	for i := range scanned {
		scanned[i] = storage.Row{Key: uint64(i), Vec: []float64{rng.Float64() * 100, rng.Float64() * 100}}
	}
	view, ok := storage.BuildColStore(2, scanned).View()
	if !ok {
		f.Fatal("no columnar view")
	}

	f.Fuzz(func(t *testing.T, a, b, c, d, r float64, radius bool) {
		var sel Selection
		if radius {
			if math.IsNaN(r) || r <= 0 || r > 1e9 {
				r = 10
			}
			sel = Selection{Center: []float64{a, b}, Radius: r}
		} else {
			if a > c {
				a, c = c, a
			}
			if b > d {
				b, d = d, b
			}
			sel = Selection{Los: []float64{a, b}, His: []float64{c, d}}
		}
		if sel.Validate() != nil {
			t.Skip()
		}
		got := SelectIndices(sel, view)
		var want []int
		for i, row := range scanned {
			if sel.Contains(row.Vec) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("sel %+v: %d selected, want %d", sel, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sel %+v: index %d: %d != %d", sel, i, got[i], want[i])
			}
		}
	})
}

// pruneRows draws n three-column rows (x and y around a 4x4 grid of
// cluster centres, z = 2x + 5 + noise like the standard dataset). One
// row in `every` (none for 0) is one of the values pruning must not trip
// over: a NaN, a ±Inf, or an exact duplicate of the previous row. A low
// `every` puts a NaN into nearly every chunk (nothing is prunable), a
// high one leaves most chunks clean.
func pruneRows(seed int64, n, every int) []storage.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]storage.Row, n)
	for i := range rows {
		x := float64(rng.Intn(4))*25 + rng.NormFloat64()*4
		y := float64(rng.Intn(4))*25 + rng.NormFloat64()*4
		vec := []float64{x, y, 2*x + 5 + rng.NormFloat64()}
		if every > 0 && rng.Intn(every) == 0 {
			switch rng.Intn(4) {
			case 0:
				vec[rng.Intn(3)] = math.NaN()
			case 1:
				vec[rng.Intn(3)] = math.Inf(1)
			case 2:
				vec[rng.Intn(3)] = math.Inf(-1)
			case 3:
				if i > 0 {
					copy(vec, rows[i-1].Vec)
				}
			}
		}
		rows[i] = storage.Row{Key: uint64(i), Vec: vec}
	}
	return rows
}

// pruneView lays rows out in arrival order or clustered (Z-order) and
// returns the view, chunk entries included.
func pruneView(rows []storage.Row, clustered bool) storage.ColumnView {
	c := storage.NewColStore(3)
	if clustered {
		c.AppendClustered(storage.BatchOf(rows), 0, 1)
	} else {
		c.Append(rows...)
	}
	view, _ := c.View()
	return view
}

// pruneTol is the stated bound of the pruned-scan contract: a sum of the
// pruned partial is within pruneTol of the unpruned one, relative to the
// magnitude the sum's rounding error scales with (slotScales).
const pruneTol = 1e-12

// slotScales returns, for each slot of q's 8-slot partial over view, the
// magnitude its rounding error scales with: Σ|x| for a first-order sum,
// and for a second-order one Σ(|x|+|p|)(|y|+|q|) with p, q values at the
// data's scale (the view's first row), because those sums are rebuilt
// from the shifted frame and a pivot — some selected row's value, not
// the same one in every scan — takes part in the rounding.
func slotScales(q Query, view storage.ColumnView) [8]float64 {
	var ax, ay, axx, ayy, axy float64
	for i := 0; i < view.Len(); i++ {
		vec := view.Row(i)
		if !q.Select.Contains(vec) {
			continue
		}
		x, y := math.Abs(colValVec(vec, q.Col)), math.Abs(colValVec(vec, q.Col2))
		px := x + math.Abs(colValVec(view.Row(0), q.Col))
		py := y + math.Abs(colValVec(view.Row(0), q.Col2))
		ax, ay = ax+x, ay+y
		axx, ayy, axy = axx+px*px, ayy+py*py, axy+px*py
	}
	return [8]float64{0, ax, axx, ax, ay, axx, axy, ayy}
}

// colValVec reads column col of vec, 0 out of range, as the reference
// does.
func colValVec(vec []float64, col int) float64 {
	if col < 0 || col >= len(vec) {
		return 0
	}
	return vec[col]
}

// checkPruneParity is the pruned-scan contract against the unpruned scan
// of the SAME view: the count (and so Support) is exact; every sum is
// within pruneTol of its scale, and NaN or ±Inf exactly where the
// unpruned one is; rows streamed plus rows answered from summaries never
// exceed the rows held; and a second evaluation returns the same bits
// and the same counts (a summary is a pure function of the view). It
// returns the rows streamed and the rows summarised.
func checkPruneParity(t *testing.T, q Query, view storage.ColumnView) (scanned, summarised int64) {
	t.Helper()
	want := PartialEvalView(q, view)
	got, scanned, summarised := PartialEvalPruned(q, view)
	if len(got) != len(want) {
		t.Fatalf("%+v: pruned partial has %d slots, unpruned %d", q, len(got), len(want))
	}
	if got[0] != want[0] {
		t.Fatalf("%+v over %d rows: pruned count %v, unpruned %v", q, view.Len(), got[0], want[0])
	}
	scales := slotScales(q, view)
	for i := 1; i < len(got); i++ {
		g, w := got[i], want[i]
		// Not `<=`: a scale that is itself NaN or Inf (a non-finite value in
		// a selected row) bounds nothing.
		ok := !(math.Abs(g-w) > pruneTol*scales[i])
		if math.IsNaN(w) || math.IsNaN(g) {
			ok = math.IsNaN(w) && math.IsNaN(g)
		} else if math.IsInf(w, 0) || math.IsInf(g, 0) {
			ok = g == w
		}
		if !ok {
			t.Fatalf("%+v over %d rows: slot %d: pruned %v, unpruned %v, off by %g of scale %g",
				q, view.Len(), i, g, w, math.Abs(g-w)/scales[i], scales[i])
		}
	}
	if scanned < 0 || summarised < 0 || summarised%storage.BlockRows != 0 || scanned+summarised > int64(view.Len()) {
		t.Fatalf("%+v: streamed %d and summarised %d rows of a %d-row view", q, scanned, summarised, view.Len())
	}
	again, scanned2, summarised2 := PartialEvalPruned(q, view)
	if scanned2 != scanned || summarised2 != summarised {
		t.Fatalf("%+v: second evaluation streamed %d/%d rows, first %d/%d", q, scanned2, summarised2, scanned, summarised)
	}
	for i := range got {
		if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%+v: slot %d differs between two evaluations of one view: %v, %v", q, i, got[i], again[i])
		}
	}
	return scanned, summarised
}

// TestChunkPruneParity runs the contract over both layouts, lengths on
// and off the block and the chunk boundary, rectangles and spheres of
// every dimensionality (including wider than the rows) and every
// aggregate (including columns out of range) — and checks that pruning
// does prune: on the clustered layout selective queries must skip rows,
// selections that meet nothing or cover everything are answered from the
// summaries alone, and a view without summaries must fall through to the
// full scan.
func TestChunkPruneParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i, n := range []int{0, 1, 127, 128, 129, 1023, 1024, 1025, 1152, 4096, 5000, 9999, 9999} {
		every := []int{24, 2000}[i%2] // dirty and nearly clean data by turns
		rows := pruneRows(int64(n), n, every)
		for _, clustered := range []bool{false, true} {
			view := pruneView(rows, clustered)
			for trial := 0; trial < 40; trial++ {
				q := Query{
					Select:    randSelection(rng, 3),
					Aggregate: allAggs[trial%len(allAggs)],
					Col:       rng.Intn(4), // 3 is out of range: read as 0, never summarised
					Col2:      rng.Intn(4),
				}
				if q.Select.IsRadius() && trial%2 == 0 {
					q.Select.Radius = 2 + rng.Float64()*10
				}
				checkPruneParity(t, q, view)
			}
			// Selective queries around the cluster centres, as the serving
			// workloads draw them: on clean clustered data most rows must
			// be skipped.
			var read int64
			for trial := 0; trial < 8; trial++ {
				cx, cy := float64(trial%4)*25, float64(trial/2)*25
				sel := Selection{Los: []float64{cx - 3, cy - 3}, His: []float64{cx + 3, cy + 3}}
				if trial >= 4 {
					sel = Selection{Center: []float64{cx, cy}, Radius: 4}
				}
				scanned, _ := checkPruneParity(t, Query{Select: sel, Aggregate: allAggs[trial%len(allAggs)], Col: 2, Col2: 0}, view)
				read += scanned
			}
			if clustered && every == 2000 && n > 9000 && read > 8*int64(n)/2 {
				t.Errorf("n=%d clustered: selective queries read %d of %d rows: pruning does not prune", n, read, 8*n)
			}
			bare := storage.ColumnView{Keys: view.Keys, Cols: view.Cols}
			q := Query{Select: Selection{Los: []float64{20, 20}, His: []float64{30, 30}}, Aggregate: Var, Col: 2}
			if scanned, summarised := checkPruneParity(t, q, bare); scanned != int64(n) || summarised != 0 {
				t.Errorf("n=%d: a view without summaries streamed %d rows and summarised %d, want all and none", n, scanned, summarised)
			}
		}
	}

	// Clean rows filling whole blocks, in either layout: a selection that
	// meets no row and one that holds them all are both answered without
	// streaming a row, every aggregate. A query whose aggregate column is
	// out of range has nothing to fold and streams what it selects.
	const clean = 4*storage.ChunkRows + 3*storage.BlockRows
	nowhere := Selection{Los: []float64{1e6, 1e6}, His: []float64{2e6, 2e6}}
	everywhere := Selection{Center: []float64{40, 40}, Radius: 1e4}
	for _, clustered := range []bool{false, true} {
		view := pruneView(pruneRows(11, clean, 0), clustered)
		for _, agg := range allAggs {
			q := Query{Select: nowhere, Aggregate: agg, Col: 2, Col2: 1}
			if scanned, summarised := checkPruneParity(t, q, view); scanned != 0 || summarised != 0 {
				t.Errorf("%v, empty selection: streamed %d rows and summarised %d, want 0 and 0", agg, scanned, summarised)
			}
			q.Select = everywhere
			if scanned, summarised := checkPruneParity(t, q, view); scanned != 0 || summarised != clean {
				t.Errorf("%v, all-covering selection: streamed %d rows and summarised %d, want 0 and %d", agg, scanned, summarised, clean)
			}
		}
		q := Query{Select: everywhere, Aggregate: Sum, Col: 3}
		if scanned, summarised := checkPruneParity(t, q, view); scanned != clean || summarised != 0 {
			t.Errorf("aggregate column out of range: streamed %d rows and summarised %d, want all and none", scanned, summarised)
		}
	}

	// The zero-dimension rectangle matches every row: clean blocks fold,
	// dirty blocks and the rows past the last block stream.
	view := pruneView(pruneRows(3, 3000, 24), true)
	scanned, summarised := checkPruneParity(t, Query{Aggregate: Sum, Col: 1}, view)
	if dirty := int64(dirtyBlocks(view)); scanned+summarised != 3000 || scanned != dirty*storage.BlockRows+3000%storage.BlockRows {
		t.Errorf("match-all selection streamed %d rows and summarised %d of 3000 with %d dirty blocks", scanned, summarised, dirty)
	}
}

func dirtyBlocks(view storage.ColumnView) (n int) {
	for _, d := range view.BlockDirty {
		if d {
			n++
		}
	}
	return n
}

// TestBlockSummaryIsTheKernelState: folding a block from its moment
// record leaves the state the kernels leave after streaming the block
// with every row selected — the same count and the same frame (the
// block's first row is the pivot either way), and every sum within
// pruneTol of the magnitude its rounding scales with: storage adds a
// block's moments in row order, the kernels four lanes at a time — for
// every aggregate and column pair.
func TestBlockSummaryIsTheKernelState(t *testing.T) {
	view := pruneView(pruneRows(5, 3*storage.BlockRows, 0), false)
	all := Selection{Los: []float64{math.Inf(-1)}, His: []float64{math.Inf(1)}}
	for b := 0; b < view.FullBlocks(); b++ {
		lo, hi := b*storage.BlockRows, (b+1)*storage.BlockRows
		block := storage.ColumnView{Keys: view.Keys[lo:hi], Cols: make([][]float64, view.Width())}
		for j, c := range view.Cols {
			block.Cols[j] = c[lo:hi]
		}
		for _, agg := range allAggs {
			for col := 0; col < 3; col++ {
				for col2 := 0; col2 < 3; col2++ {
					q := Query{Select: all, Aggregate: agg, Col: col, Col2: col2}
					want := evalView(q, block)
					fold, ok := newSummaryFold(q, view.Width())
					if !ok {
						t.Fatalf("%+v: no fold", q)
					}
					var got vecState
					fold.fold(&got, view.BlockMoments, b)
					if got.n != want.n || got.seeded != want.seeded || got.cx != want.cx || got.cy != want.cy {
						t.Fatalf("block %d, %v(%d,%d): folded %+v, streamed %+v", b, agg, col, col2, got, want)
					}
					// The magnitudes of the block's sums in that frame.
					var ax, ay, adx, ady, axx, ayy, axy float64
					for i := range block.Keys {
						x, y := block.Cols[col][i], block.Cols[col2][i]
						dx, dy := math.Abs(x-want.cx), math.Abs(y-want.cy)
						ax, ay, adx, ady = ax+math.Abs(x), ay+math.Abs(y), adx+dx, ady+dy
						axx, ayy, axy = axx+dx*dx, ayy+dy*dy, axy+dx*dy
					}
					for _, s := range []struct {
						name             string
						got, want, scale float64
					}{
						{"sum", got.sum, want.sum, ax}, {"sumY", got.sumY, want.sumY, ay},
						{"sx", got.sx, want.sx, adx}, {"sy", got.sy, want.sy, ady},
						{"sxx", got.sxx, want.sxx, axx}, {"syy", got.syy, want.syy, ayy}, {"sxy", got.sxy, want.sxy, axy},
					} {
						if !(math.Abs(s.got-s.want) <= pruneTol*s.scale) {
							t.Fatalf("block %d, %v(%d,%d): %s folded %v, streamed %v (scale %g)", b, agg, col, col2, s.name, s.got, s.want, s.scale)
						}
					}
				}
			}
		}
	}
}

// FuzzBoxClass fuzzes the classifier's two promises against
// Selection.Contains, the definition of a match: every finite row inside
// a box classified inside matches, and no finite row inside a box
// classified miss does. Selections are taken as they come, non-finite
// and unvalidated bounds included.
func FuzzBoxClass(f *testing.F) {
	f.Add(int64(1), 20.0, 30.0, 22.0, 28.0, 25.0, 25.0, 10.0, 40.0, 6.0, false, uint8(1))
	f.Add(int64(2), 20.0, 30.0, 22.0, 28.0, 25.0, 25.0, 10.0, 40.0, 6.0, true, uint8(1))
	f.Add(int64(3), 0.0, 1e-9, 0.0, 1e-9, 1e-9, 0.0, 0.0, 0.0, 1.4142135623730951e-9, true, uint8(2))
	f.Add(int64(4), -5.0, 5.0, 1e300, 1.1e300, math.Inf(-1), 0.0, math.Inf(1), 2e300, math.Inf(1), false, uint8(1))
	f.Add(int64(5), 1.0, 2.0, 3.0, 4.0, math.NaN(), 3.5, 9.0, math.NaN(), math.NaN(), true, uint8(2))
	f.Add(int64(6), 0.1, 0.3, 0.1, 0.3, 0.2, 0.2, 0.1, 0.1, 0.14142135623730953, true, uint8(1))

	f.Fuzz(func(t *testing.T, seed int64, b0, b1, b2, b3, s0, s1, s2, s3, r float64, radius bool, dims uint8) {
		k := int(dims)%3 + 1
		corners := []float64{b0, b1, b2, b3, b1, b2}
		mins, maxs := make([]float64, k), make([]float64, k)
		for j := range mins {
			lo, hi := corners[2*j], corners[2*j+1]
			if lo-lo != 0 || hi-hi != 0 {
				t.Skip() // a summarised block holds finite rows only
			}
			mins[j], maxs[j] = min(lo, hi), max(lo, hi)
		}
		var sel Selection
		if radius {
			sel = Selection{Center: []float64{s0, s1, s2}[:k], Radius: r}
		} else {
			los, his := []float64{s0, s1, r}[:k], []float64{s2, s3, s0}[:k]
			for j := range los {
				if los[j] > his[j] {
					los[j], his[j] = his[j], los[j]
				}
			}
			sel = Selection{Los: los, His: his}
		}
		class := classifyBox(&sel, mins, maxs)
		if class == boxStraddles {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		row := make([]float64, k)
		for trial := 0; trial < 64; trial++ {
			for j := range row {
				switch u := rng.Float64(); {
				case trial < 1<<k: // the box's corners first
					row[j] = []float64{mins[j], maxs[j]}[trial>>j&1]
				case u < 0.1:
					row[j] = math.Nextafter(mins[j], maxs[j])
				case u < 0.2:
					row[j] = math.Nextafter(maxs[j], mins[j])
				default:
					row[j] = min(max(mins[j]+rng.Float64()*(maxs[j]-mins[j]), mins[j]), maxs[j])
				}
			}
			if got := sel.Contains(row); got != (class == boxInside) {
				t.Fatalf("box [%v, %v] is class %d against %+v, but row %v: Contains = %v", mins, maxs, class, sel, row, got)
			}
		}
	})
}

// FuzzChunkPrune fuzzes the same contract: arbitrary data seed and
// length, layout, selection geometry (non-finite bounds included, as
// long as Validate lets them through) and aggregate.
func FuzzChunkPrune(f *testing.F) {
	f.Add(int64(1), uint16(5000), true, 20.0, 20.0, 30.0, 30.0, 8.0, false, uint8(2), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint16(4096), true, 50.0, 50.0, 10.0, 0.0, 6.0, true, uint8(2), uint8(1), uint8(0), uint8(2))
	f.Add(int64(3), uint16(1025), false, -5.0, 5.0, 90.0, 120.0, 3.0, true, uint8(3), uint8(4), uint8(2), uint8(1))
	f.Add(int64(4), uint16(3071), true, 75.0, 0.0, 75.0, 1e9, 1.0, false, uint8(1), uint8(5), uint8(0), uint8(2))
	f.Add(int64(5), uint16(2048), true, 0.0, 0.0, 0.0, 0.0, 40.0, true, uint8(4), uint8(2), uint8(1), uint8(1))
	f.Add(int64(6), uint16(0), true, 0.0, 0.0, 1.0, 1.0, 1.0, false, uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(int64(8), uint16(1280), true, -1e3, -1e3, 1e3, 1e3, 1e3, true, uint8(1), uint8(4), uint8(2), uint8(0))
	f.Add(int64(12), uint16(2175), false, math.Inf(-1), 10.0, math.Inf(1), 60.0, 1.0, false, uint8(1), uint8(3), uint8(2), uint8(2))

	f.Fuzz(func(t *testing.T, seed int64, n uint16, clustered bool, a, b, c, d, r float64, radius bool, dims, agg, col, col2 uint8) {
		n %= 6000
		k := int(dims)%4 + 1 // 4 is wider than the rows: matches nothing
		var sel Selection
		if radius {
			sel = Selection{Center: []float64{a, b, c, d}[:k], Radius: r}
		} else {
			los, his := []float64{a, b, a, b}[:k], []float64{c, d, d, c}[:k]
			for j := range los {
				if los[j] > his[j] {
					los[j], his[j] = his[j], los[j]
				}
			}
			sel = Selection{Los: los, His: his}
		}
		if sel.Validate() != nil {
			t.Skip()
		}
		q := Query{Select: sel, Aggregate: allAggs[int(agg)%len(allAggs)], Col: int(col) % 4, Col2: int(col2) % 4}
		every := []int{0, 24, 500, 4000}[uint64(seed)%4]
		checkPruneParity(t, q, pruneView(pruneRows(seed, int(n), every), clustered))
	})
}
