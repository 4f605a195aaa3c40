package query

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

var allAggs = []Agg{Count, Sum, Avg, Var, Corr, RegSlope}

func vecTestTable(t *testing.T, rng *rand.Rand, nRows, width, nParts int, ranged bool) *storage.Table {
	t.Helper()
	cl := cluster.New(4, cluster.DefaultConfig())
	cols := make([]string, width)
	for j := range cols {
		cols[j] = string(rune('a' + j))
	}
	var opts []storage.Option
	if ranged {
		bounds := make([]float64, nParts-1)
		for i := range bounds {
			bounds[i] = 100 * float64(i+1) / float64(nParts)
		}
		opts = append(opts, storage.WithRangePartitioning(bounds))
	}
	tbl, err := storage.NewTable(cl, "vec", cols, nParts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, nRows)
	for i := range rows {
		vec := make([]float64, width)
		for j := range vec {
			vec[j] = rng.Float64() * 100
		}
		rows[i] = storage.Row{Key: uint64(i + 1), Vec: vec}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
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
func rowReference(t *testing.T, q Query, tbl *storage.Table) (Result, [][]float64) {
	t.Helper()
	partials := make([][]float64, tbl.Partitions())
	for p := 0; p < tbl.Partitions(); p++ {
		rows, _, err := tbl.ScanPartition(p)
		if err != nil {
			t.Fatal(err)
		}
		partials[p] = PartialEval(q, rows)
	}
	return MergeEval(q, partials), partials
}

// TestVectorizedEquivalenceProperty is the central property of the
// vectorized engine: across random tables (hash- and range-
// partitioned), random selections (rectangles and spheres, including
// ones wider than the rows) and all six aggregates, the vectorized path
// must agree with the row-at-a-time reference — bit-identically for
// COUNT/SUM/AVG (the kernels accumulate first-order sums in the same
// order), and within an explicit 1e-9 relative tolerance for
// VAR/CORR/REGSLOPE, whose second-order moments the kernels
// deliberately accumulate in a shifted frame.
func TestVectorizedEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		width := 2 + rng.Intn(3)
		nParts := 2 + rng.Intn(6)
		ranged := rng.Intn(2) == 0
		tbl := vecTestTable(t, rng, 300+rng.Intn(1200), width, nParts, ranged)
		q := Query{
			Select:    randSelection(rng, width),
			Aggregate: allAggs[rng.Intn(len(allAggs))],
			Col:       rng.Intn(width),
			Col2:      rng.Intn(width),
		}
		ref, refPartials := rowReference(t, q, tbl)

		// Per-partition: vectorized partials against the reference.
		for p := 0; p < tbl.Partitions(); p++ {
			view, _, err := tbl.ScanColumns(p)
			if err != nil {
				t.Fatal(err)
			}
			got := PartialEvalView(q, view)
			want := refPartials[p]
			if got[0] != want[0] {
				t.Fatalf("trial %d part %d: n %v != %v (q=%+v)", trial, p, got[0], want[0], q)
			}
			// Slots the aggregate's finish consumes (the vectorized
			// partial leaves unused slots zero): [1]=sum, [2]=sum2,
			// [3]=sx, [4]=sy, [5]=sxx, [6]=sxy, [7]=syy.
			var exact, approx []int
			switch q.Aggregate {
			case Sum, Avg:
				exact = []int{1}
			case Var:
				exact, approx = []int{1}, []int{2}
			case Corr:
				exact, approx = []int{3, 4}, []int{5, 6, 7}
			case RegSlope:
				exact, approx = []int{3, 4}, []int{5, 6}
			}
			// Raw first-order sums are order-identical.
			for _, s := range exact {
				if got[s] != want[s] {
					t.Fatalf("trial %d part %d slot %d: first-order sum %v != %v (q=%+v)",
						trial, p, s, got[s], want[s], q)
				}
			}
			for _, s := range approx {
				if d := math.Abs(got[s] - want[s]); d > 1e-9*math.Max(1, math.Abs(want[s])) {
					t.Fatalf("trial %d part %d slot %d: %v != %v (q=%+v)", trial, p, s, got[s], want[s], q)
				}
			}
		}

		// End to end, with pruning and parallel workers.
		got, stats, err := EvalTable(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if got.Support != ref.Support {
			t.Fatalf("trial %d: support %d != %d (q=%+v)", trial, got.Support, ref.Support, q)
		}
		switch q.Aggregate {
		case Count, Sum, Avg:
			if got.Value != ref.Value {
				t.Fatalf("trial %d: %s = %v, want bit-identical %v (q=%+v)",
					trial, q.Aggregate, got.Value, ref.Value, q)
			}
		default:
			if d := math.Abs(got.Value - ref.Value); d > 1e-9*math.Max(1, math.Abs(ref.Value)) {
				t.Fatalf("trial %d: %s = %v, want %v within 1e-9 rel (q=%+v)",
					trial, q.Aggregate, got.Value, ref.Value, q)
			}
		}
		if stats.PartsScanned+stats.PartsPruned != tbl.Partitions() {
			t.Fatalf("trial %d: stats %+v don't cover %d partitions", trial, stats, tbl.Partitions())
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
	tbl := vecTestTable(t, rng, 4000, 3, nParts, true)

	sels := []Selection{
		{Los: []float64{10, 0, 0}, His: []float64{20, 100, 100}},       // one range stripe
		{Los: []float64{40, 20, 0}, His: []float64{70, 60, 100}},       // a few stripes
		{Center: []float64{30, 50, 50}, Radius: 8},                     // sphere
		{Los: []float64{200, 0, 0}, His: []float64{300, 100, 100}},     // off the data: prune all
		{Los: []float64{0, 0, 0, 0}, His: []float64{100, 100, 100, 0}}, // wider than rows: prune all
	}
	for si, sel := range sels {
		candidates, pruned := Prune(tbl, sel)
		if len(candidates)+pruned != nParts {
			t.Fatalf("sel %d: %d candidates + %d pruned != %d", si, len(candidates), pruned, nParts)
		}
		inCand := make(map[int]bool, len(candidates))
		for _, p := range candidates {
			inCand[p] = true
		}
		for p := 0; p < nParts; p++ {
			rows, _, err := tbl.ScanPartition(p)
			if err != nil {
				t.Fatal(err)
			}
			// Geometric intersection with the partition's actual data box.
			intersects := zoneFromRows(rows, sel)
			hasMatch := false
			for _, r := range rows {
				if sel.Contains(r.Vec) {
					hasMatch = true
					break
				}
			}
			if hasMatch && !inCand[p] {
				t.Fatalf("sel %d: partition %d holds matches but was pruned", si, p)
			}
			if !intersects && inCand[p] {
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
// recover the true statistics, and the clamped raw-moment finish must
// never return a negative variance or a NaN correlation.
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
	cl := cluster.New(2, cluster.DefaultConfig())
	tbl, err := storage.NewTable(cl, "highmean", []string{"x", "y"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	sel := Selection{Los: []float64{0, 0}, His: []float64{2 * mean, 2 * mean}}

	trueVar := twoPassVar(xs)
	trueCorr := twoPassCorr(xs, ys)

	qv := Query{Select: sel, Aggregate: Var, Col: 0}
	got, _, err := EvalTable(qv, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if got.Support != n {
		t.Fatalf("support %d != %d", got.Support, n)
	}
	if rel := math.Abs(got.Value-trueVar) / trueVar; rel > 1e-6 {
		t.Fatalf("vectorized Var = %v, truth %v (rel err %v)", got.Value, trueVar, rel)
	}

	qc := Query{Select: sel, Aggregate: Corr, Col: 0, Col2: 1}
	gotC, _, err := EvalTable(qc, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotC.Value-trueCorr) > 1e-3 {
		t.Fatalf("vectorized Corr = %v, truth %v", gotC.Value, trueCorr)
	}

	// The raw-moment reference path: inaccurate at this conditioning by
	// construction, but the finish-time clamp must keep it sane.
	for _, q := range []Query{qv, qc, {Select: sel, Aggregate: RegSlope, Col: 0, Col2: 1}} {
		ref := EvalRows(q, rows)
		if math.IsNaN(ref.Value) || math.IsInf(ref.Value, 0) {
			t.Fatalf("row-path %s = %v, want finite", q.Aggregate, ref.Value)
		}
		if q.Aggregate == Var && ref.Value < 0 {
			t.Fatalf("row-path Var = %v, want clamped >= 0", ref.Value)
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

// TestNaNParity pins the kernels to the reference's NaN semantics: a
// NaN coordinate fails both exclusion comparisons in Contains and so
// MATCHES any rectangle (and fails the sphere's distance test). The
// vectorized path must agree, and zone maps over NaN-bearing
// partitions must stop pruning (min/max cannot bound NaN).
func TestNaNParity(t *testing.T) {
	nan := math.NaN()
	cl := cluster.New(2, cluster.DefaultConfig())
	tbl, err := storage.NewTable(cl, "nan", []string{"x", "y"}, 2,
		storage.WithRangePartitioning([]float64{50}))
	if err != nil {
		t.Fatal(err)
	}
	rows := []storage.Row{
		{Key: 1, Vec: []float64{10, 10}},
		{Key: 2, Vec: []float64{nan, 10}}, // NaN routes to partition 0 (comparisons false)
		{Key: 3, Vec: []float64{90, 90}},
		{Key: 4, Vec: []float64{90, nan}},
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	sels := []Selection{
		{Los: []float64{80, 80}, His: []float64{95, 95}},     // away from partition 0's numbers
		{Los: []float64{0, 0}, His: []float64{20, 20}},       //
		{Center: []float64{90, 90}, Radius: 5},               // sphere: NaN never matches
		{Los: []float64{200, 200}, His: []float64{300, 300}}, // matches only via NaN wildcards
	}
	for si, sel := range sels {
		for _, agg := range allAggs {
			q := Query{Select: sel, Aggregate: agg, Col: 1, Col2: 0}
			ref, _ := rowReference(t, q, tbl)
			got, _, err := EvalTable(q, tbl)
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
	tbl := vecTestTable(t, rng, 100, 3, 2, false)
	_, _, err := EvalTable(Query{Select: Selection{Los: []float64{0, 0}, His: []float64{100, 100}}, Aggregate: Sum, Col: 7}, tbl)
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("EvalTable err = %v, want ErrBadQuery", err)
	}
}

// FuzzSelectIndices cross-checks the block selection kernels against
// Selection.Contains on arbitrary selection geometry.
func FuzzSelectIndices(f *testing.F) {
	f.Add(10.0, 60.0, 30.0, 70.0, 15.0, false)
	f.Add(50.0, 50.0, 10.0, 0.0, 20.0, true)
	f.Add(-5.0, 5.0, 90.0, 120.0, 3.0, true)

	rng := rand.New(rand.NewSource(99))
	cl := cluster.New(2, cluster.DefaultConfig())
	tbl, err := storage.NewTable(cl, "fuzz", []string{"x", "y"}, 1)
	if err != nil {
		f.Fatal(err)
	}
	rows := make([]storage.Row, 3000)
	for i := range rows {
		rows[i] = storage.Row{Key: uint64(i), Vec: []float64{rng.Float64() * 100, rng.Float64() * 100}}
	}
	if err := tbl.Load(rows); err != nil {
		f.Fatal(err)
	}
	view, _, err := tbl.ScanColumns(0)
	if err != nil {
		f.Fatal(err)
	}
	scanned, _, err := tbl.ScanPartition(0)
	if err != nil {
		f.Fatal(err)
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
		c.AppendClustered(rows, 0, 1)
	} else {
		c.Append(rows...)
	}
	view, _ := c.View()
	return view
}

// checkPruneParity is the chunk-pruning contract: the pruned partial of
// a view equals the unpruned partial of the SAME view bit for bit (bits,
// not ==: a selected NaN must come out as the same NaN), and it reads no
// more rows than the view holds. It returns the rows read.
func checkPruneParity(t *testing.T, q Query, view storage.ColumnView) int64 {
	t.Helper()
	want := PartialEvalView(q, view)
	got, rowsRead := PartialEvalPruned(q, view)
	if len(got) != len(want) {
		t.Fatalf("%+v: pruned partial has %d slots, unpruned %d", q, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%+v over %d rows: slot %d: pruned %v (%#x) != unpruned %v (%#x)",
				q, view.Len(), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	if rowsRead < 0 || rowsRead > int64(view.Len()) {
		t.Fatalf("%+v: read %d rows of a %d-row view", q, rowsRead, view.Len())
	}
	return rowsRead
}

// TestChunkPruneParity runs the contract over both layouts, lengths on
// and off the chunk boundary, rectangles and spheres of every
// dimensionality (including wider than the rows) and every aggregate —
// and checks that pruning does prune: on the clustered layout selective
// queries must skip rows, and a view without chunk entries must fall
// through to the full scan.
func TestChunkPruneParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i, n := range []int{0, 1, 1023, 1024, 1025, 4096, 5000, 9999, 9999} {
		every := []int{24, 2000}[i%2] // dirty and nearly clean data by turns
		rows := pruneRows(int64(n), n, every)
		for _, clustered := range []bool{false, true} {
			view := pruneView(rows, clustered)
			for trial := 0; trial < 40; trial++ {
				q := Query{
					Select:    randSelection(rng, 3),
					Aggregate: allAggs[trial%len(allAggs)],
					Col:       rng.Intn(3),
					Col2:      rng.Intn(3),
				}
				if q.Select.IsRadius() {
					q.Select.Radius = 2 + rng.Float64()*10
				}
				checkPruneParity(t, q, view)
			}
			// Selective queries around the cluster centres, as the serving
			// workloads draw them: on clean clustered data most chunks
			// must be skipped.
			var read int64
			for trial := 0; trial < 8; trial++ {
				cx, cy := float64(trial%4)*25, float64(trial/2)*25
				sel := Selection{Los: []float64{cx - 3, cy - 3}, His: []float64{cx + 3, cy + 3}}
				if trial >= 4 {
					sel = Selection{Center: []float64{cx, cy}, Radius: 4}
				}
				read += checkPruneParity(t, Query{Select: sel, Aggregate: allAggs[trial%len(allAggs)], Col: 2, Col2: 0}, view)
			}
			if clustered && every == 2000 && n > 9000 && read > 8*int64(n)/2 {
				t.Errorf("n=%d clustered: selective queries read %d of %d rows: chunk pruning does not prune", n, read, 8*n)
			}
			bare := storage.ColumnView{Keys: view.Keys, Cols: view.Cols}
			q := Query{Select: Selection{Los: []float64{20, 20}, His: []float64{30, 30}}, Aggregate: Var, Col: 2}
			if got := checkPruneParity(t, q, bare); got != int64(n) {
				t.Errorf("n=%d: a view without chunk entries read %d rows, want all", n, got)
			}
		}
	}
	// The zero-dimension rectangle matches every row: nothing to prune.
	view := pruneView(pruneRows(3, 3000, 24), true)
	if got := checkPruneParity(t, Query{Aggregate: Sum, Col: 1}, view); got != 3000 {
		t.Errorf("match-all selection read %d rows, want 3000", got)
	}
}

// FuzzChunkPrune fuzzes the same contract: arbitrary data seed and
// length, layout, selection geometry and aggregate.
func FuzzChunkPrune(f *testing.F) {
	f.Add(int64(1), uint16(5000), true, 20.0, 20.0, 30.0, 30.0, 8.0, false, uint8(2), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint16(4096), true, 50.0, 50.0, 10.0, 0.0, 6.0, true, uint8(2), uint8(1), uint8(0), uint8(2))
	f.Add(int64(3), uint16(1025), false, -5.0, 5.0, 90.0, 120.0, 3.0, true, uint8(3), uint8(4), uint8(2), uint8(1))
	f.Add(int64(4), uint16(3071), true, 75.0, 0.0, 75.0, 1e9, 1.0, false, uint8(1), uint8(5), uint8(0), uint8(2))
	f.Add(int64(5), uint16(2048), true, 0.0, 0.0, 0.0, 0.0, 40.0, true, uint8(4), uint8(2), uint8(1), uint8(1))
	f.Add(int64(6), uint16(0), true, 0.0, 0.0, 1.0, 1.0, 1.0, false, uint8(2), uint8(0), uint8(0), uint8(0))

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
