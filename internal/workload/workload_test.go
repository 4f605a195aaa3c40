package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
)

func TestUniformBoundsAndKeys(t *testing.T) {
	rng := NewRNG(1)
	rows := Uniform(rng, 100, 3, []float64{0, -5, 10}, []float64{1, 5, 20}, 42)
	if len(rows) != 100 {
		t.Fatalf("n = %d", len(rows))
	}
	if rows[0].Key != 42 || rows[99].Key != 141 {
		t.Errorf("keys = %d..%d", rows[0].Key, rows[99].Key)
	}
	for _, r := range rows {
		if r.Vec[0] < 0 || r.Vec[0] >= 1 || r.Vec[1] < -5 || r.Vec[1] >= 5 ||
			r.Vec[2] < 10 || r.Vec[2] >= 20 {
			t.Fatalf("out of bounds: %v", r.Vec)
		}
	}
}

func TestGaussianMixtureClusters(t *testing.T) {
	rng := NewRNG(2)
	comps := DefaultMixture(2)
	rows := GaussianMixture(rng, 4000, 2, comps, 0)
	// Count rows near each component; all four should be populated.
	for _, c := range comps {
		n := 0
		for _, r := range rows {
			d0 := r.Vec[0] - c.Center[0]
			d1 := r.Vec[1] - c.Center[1]
			if d0*d0+d1*d1 < 24*24 {
				n++
			}
		}
		if n < 400 {
			t.Errorf("component %v holds only %d rows", c.Center, n)
		}
	}
}

func TestCorrelatedColumns(t *testing.T) {
	rng := NewRNG(3)
	rows := Uniform(rng, 500, 2, []float64{0, 0}, []float64{10, 10}, 0)
	CorrelatedColumns(rng, rows, 0, 1, 3, -1, 0)
	for _, r := range rows[:10] {
		want := 3*r.Vec[0] - 1
		if math.Abs(r.Vec[1]-want) > 1e-12 {
			t.Fatalf("col1 = %v, want %v", r.Vec[1], want)
		}
	}
}

func TestZipfKeysSkewed(t *testing.T) {
	rng := NewRNG(4)
	rows := ZipfKeys(rng, 10000, 1000, 1.3, 1, 1)
	counts := map[uint64]int{}
	for _, r := range rows {
		counts[r.Key]++
		if len(r.Vec) != 2 {
			t.Fatalf("vec width = %d", len(r.Vec))
		}
	}
	// Zipf: the most frequent key should dominate.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Errorf("hottest key count = %d, want >= 1000 (skew)", max)
	}
}

func TestQueryStreamConcentration(t *testing.T) {
	rng := NewRNG(5)
	regions := DefaultRegions(2)
	qs := NewQueryStream(rng, regions, query.Count)
	queries := qs.Batch(500)
	if len(queries) != 500 {
		t.Fatalf("batch = %d", len(queries))
	}
	// Query centres should concentrate near the two region centres.
	near := 0
	for _, q := range queries {
		c := q.Select.Center1()
		for _, reg := range regions {
			d0 := c[0] - reg.Center[0]
			d1 := c[1] - reg.Center[1]
			if math.Sqrt(d0*d0+d1*d1) < 4*reg.Spread {
				near++
				break
			}
		}
	}
	if near < 480 {
		t.Errorf("only %d/500 queries near interest regions", near)
	}
	for _, q := range queries {
		if err := q.Validate(); err != nil {
			t.Fatalf("generated invalid query: %v", err)
		}
	}
}

func TestQueryStreamRadiusFraction(t *testing.T) {
	rng := NewRNG(6)
	qs := NewQueryStream(rng, DefaultRegions(2), query.Count)
	qs.RadiusFrac = 1
	for _, q := range qs.Batch(50) {
		if !q.Select.IsRadius() {
			t.Fatal("expected radius selections")
		}
	}
	qs.RadiusFrac = 0
	for _, q := range qs.Batch(50) {
		if q.Select.IsRadius() {
			t.Fatal("expected range selections")
		}
	}
}

func TestShiftMovesRegions(t *testing.T) {
	rng := NewRNG(7)
	regions := DefaultRegions(2)
	before := regions[0].Center[0]
	qs := NewQueryStream(rng, regions, query.Count)
	qs.Shift(10)
	if qs.Regions[0].Center[0] != before+10 {
		t.Errorf("Shift: centre = %v, want %v", qs.Regions[0].Center[0], before+10)
	}
}

func TestKNNPointNearRegions(t *testing.T) {
	rng := NewRNG(8)
	regions := DefaultRegions(2)
	p := KNNPoint(rng, regions)
	if len(p) != 2 {
		t.Fatalf("dims = %d", len(p))
	}
}

func TestMissingMask(t *testing.T) {
	rng := NewRNG(9)
	rows := Uniform(rng, 1000, 4, nil, nil, 0)
	n := MissingMask(rng, rows, 0.05)
	if n < 120 || n > 280 {
		t.Errorf("masked %d cells, want ~200", n)
	}
	found := 0
	for _, r := range rows {
		for _, v := range r.Vec {
			if math.IsNaN(v) {
				found++
			}
		}
	}
	if found != n {
		t.Errorf("NaN count %d != reported %d", found, n)
	}
}

func TestDeterminism(t *testing.T) {
	a := Uniform(NewRNG(42), 10, 2, nil, nil, 0)
	b := Uniform(NewRNG(42), 10, 2, nil, nil, 0)
	for i := range a {
		if a[i].Vec[0] != b[i].Vec[0] || a[i].Vec[1] != b[i].Vec[1] {
			t.Fatal("same seed produced different data")
		}
	}
}

// standardPins are FNV-64a hashes of StandardRows(n, seed) — every key
// and the bits of every value, row by row — recorded from the generator
// that built []storage.Row directly. E1–E12, every benchmark oracle and
// the cluster's golden layouts depend on these values.
var standardPins = []struct {
	n    int
	seed int64
	hash uint64
}{
	{5_000, 1, 0xb60e08c1c333b8c4},
	{200_000, 11, 0x561db48153c29e06},
}

// hashRows hashes rows the way standardPins were recorded.
func hashRows(rows []storage.Row) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, r := range rows {
		put(r.Key)
		for _, v := range r.Vec {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestStandardDatasetPinned: StandardTable and its row view hold the
// standard dataset's recorded bits.
func TestStandardDatasetPinned(t *testing.T) {
	for _, p := range standardPins {
		tbl := StandardTable(p.n, p.seed)
		if tbl.Len() != p.n || tbl.Width != 3 || len(tbl.Vals) != 3*p.n {
			t.Fatalf("StandardTable(%d, %d): %d rows of width %d", p.n, p.seed, tbl.Len(), tbl.Width)
		}
		if got := hashRows(tbl.Rows()); got != p.hash {
			t.Errorf("StandardTable(%d, %d) hashes to %#x, want %#x", p.n, p.seed, got, p.hash)
		}
		if got := hashRows(StandardRows(p.n, p.seed)); got != p.hash {
			t.Errorf("StandardRows(%d, %d) hashes to %#x, want %#x", p.n, p.seed, got, p.hash)
		}
	}
}
