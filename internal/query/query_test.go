package query

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func TestSelectionValidate(t *testing.T) {
	tests := []struct {
		name    string
		sel     Selection
		wantErr bool
	}{
		{"valid range", Selection{Los: []float64{0}, His: []float64{1}}, false},
		{"valid radius", Selection{Center: []float64{0, 0}, Radius: 1}, false},
		{"lo > hi", Selection{Los: []float64{2}, His: []float64{1}}, true},
		{"width mismatch", Selection{Los: []float64{0}, His: []float64{1, 2}}, true},
		{"radius no centre", Selection{Radius: 1}, true},
		{"empty", Selection{}, true},
		// NaN fails every comparison: it slips past lo > hi and would then
		// match every row on its side.
		{"NaN lo", Selection{Los: []float64{0, math.NaN()}, His: []float64{1, 1}}, true},
		{"NaN hi", Selection{Los: []float64{0, 0}, His: []float64{math.NaN(), 1}}, true},
		{"NaN centre", Selection{Center: []float64{0, math.NaN()}, Radius: 1}, true},
		{"NaN radius", Selection{Center: []float64{0, 0}, Radius: math.NaN()}, true},
		{"NaN radius over a range", Selection{Los: []float64{0}, His: []float64{1}, Radius: math.NaN()}, true},
		{"infinite bounds", Selection{Los: []float64{math.Inf(-1)}, His: []float64{math.Inf(1)}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.sel.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadQuery) {
				t.Errorf("error %v should wrap ErrBadQuery", err)
			}
		})
	}
}

func TestSelectionContains(t *testing.T) {
	rng := Selection{Los: []float64{0, 0}, His: []float64{10, 10}}
	if !rng.Contains([]float64{5, 5}) {
		t.Error("interior point should match")
	}
	if !rng.Contains([]float64{0, 10}) {
		t.Error("boundary point should match (closed box)")
	}
	if rng.Contains([]float64{11, 5}) {
		t.Error("outside point matched")
	}
	if rng.Contains([]float64{5}) {
		t.Error("short vector matched")
	}

	sph := Selection{Center: []float64{0, 0}, Radius: 5}
	if !sph.Contains([]float64{3, 4}) {
		t.Error("point at distance 5 should match (closed ball)")
	}
	if sph.Contains([]float64{4, 4}) {
		t.Error("point outside ball matched")
	}
}

func TestSelectionGeometry(t *testing.T) {
	rng := Selection{Los: []float64{0, 0}, His: []float64{4, 8}}
	c := rng.Center1()
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("Center1 = %v", c)
	}
	if got := rng.Extent(); got != 3 {
		t.Errorf("Extent = %v, want 3 (mean half-side)", got)
	}
	if got := rng.Volume(); got != 32 {
		t.Errorf("Volume = %v, want 32", got)
	}
	sph := Selection{Center: []float64{0, 0}, Radius: 2}
	if got := sph.Volume(); math.Abs(got-math.Pi*4) > 1e-9 {
		t.Errorf("circle Volume = %v, want %v", got, math.Pi*4)
	}
	sph3 := Selection{Center: []float64{0, 0, 0}, Radius: 1}
	if got := sph3.Volume(); math.Abs(got-4.0/3*math.Pi) > 1e-9 {
		t.Errorf("sphere Volume = %v, want %v", got, 4.0/3*math.Pi)
	}
}

func TestQueryVectorize(t *testing.T) {
	q := Query{
		Select:    Selection{Center: []float64{1, 2, 3}, Radius: 0.5},
		Aggregate: Count,
	}
	v := q.Vectorize(3)
	want := []float64{1, 2, 3, 0.5}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vectorize = %v, want %v", v, want)
		}
	}
	// Padding and truncation.
	if got := q.Vectorize(5); len(got) != 6 || got[3] != 0 {
		t.Errorf("padded = %v", got)
	}
	if got := q.Vectorize(2); len(got) != 3 || got[2] != 0.5 {
		t.Errorf("truncated = %v", got)
	}
}

func mkTestRows() []storage.Row {
	// 10 rows: col0 = i, col1 = 2i+1 (exact correlation 1, slope 2).
	rows := make([]storage.Row, 10)
	for i := range rows {
		x := float64(i)
		rows[i] = storage.Row{Key: uint64(i), Vec: []float64{x, 2*x + 1}}
	}
	return rows
}

func TestEvalRowsAggregates(t *testing.T) {
	rows := mkTestRows()
	sel := Selection{Los: []float64{0, 0}, His: []float64{100, 100}}
	tests := []struct {
		name string
		q    Query
		want float64
	}{
		{"count", Query{Select: sel, Aggregate: Count}, 10},
		{"sum", Query{Select: sel, Aggregate: Sum, Col: 0}, 45},
		{"avg", Query{Select: sel, Aggregate: Avg, Col: 0}, 4.5},
		{"var", Query{Select: sel, Aggregate: Var, Col: 0}, 8.25},
		{"corr", Query{Select: sel, Aggregate: Corr, Col: 0, Col2: 1}, 1},
		{"slope", Query{Select: sel, Aggregate: RegSlope, Col: 0, Col2: 1}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := EvalRows(tt.q, rows)
			if math.Abs(got.Value-tt.want) > 1e-9 {
				t.Errorf("Value = %v, want %v", got.Value, tt.want)
			}
			if got.Support != 10 {
				t.Errorf("Support = %d, want 10", got.Support)
			}
		})
	}
}

func TestEvalRowsEmptySubspace(t *testing.T) {
	rows := mkTestRows()
	q := Query{
		Select:    Selection{Los: []float64{500, 500}, His: []float64{600, 600}},
		Aggregate: Avg, Col: 0,
	}
	got := EvalRows(q, rows)
	if got.Support != 0 || got.Value != 0 {
		t.Errorf("empty subspace = %+v", got)
	}
}

func TestPartialMergeMatchesDirect(t *testing.T) {
	rows := mkTestRows()
	sel := Selection{Los: []float64{0, 0}, His: []float64{100, 100}}
	for _, agg := range []Agg{Count, Sum, Avg, Var, Corr, RegSlope} {
		q := Query{Select: sel, Aggregate: agg, Col: 0, Col2: 1}
		direct := EvalRows(q, rows)
		// Split rows across three "nodes".
		partials := [][]float64{
			PartialEval(q, rows[:3]),
			PartialEval(q, rows[3:7]),
			PartialEval(q, rows[7:]),
		}
		merged := MergeEval(q, partials)
		if math.Abs(direct.Value-merged.Value) > 1e-9 || direct.Support != merged.Support {
			t.Errorf("%v: direct %+v != merged %+v", agg, direct, merged)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	good := Query{Select: Selection{Los: []float64{0}, His: []float64{1}}, Aggregate: Count}
	if err := good.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := Query{Select: good.Select, Aggregate: Agg(99)}
	if err := bad.Validate(); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad aggregate err = %v", err)
	}
	if Agg(99).String() == "" || Count.String() != "COUNT" {
		t.Error("Agg.String misbehaves")
	}
}

// Property: merge order never changes the answer.
func TestMergeOrderInvariance(t *testing.T) {
	rows := mkTestRows()
	q := Query{
		Select:    Selection{Los: []float64{0, 0}, His: []float64{100, 100}},
		Aggregate: Var, Col: 1,
	}
	f := func(split uint8) bool {
		s := int(split) % 9
		p1 := PartialEval(q, rows[:s+1])
		p2 := PartialEval(q, rows[s+1:])
		a := MergeEval(q, [][]float64{p1, p2})
		b := MergeEval(q, [][]float64{p2, p1})
		return math.Abs(a.Value-b.Value) < 1e-9 && a.Support == b.Support
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
