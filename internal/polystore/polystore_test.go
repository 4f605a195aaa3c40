package polystore

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/workload"
)

// buildSystems creates a table system (x per key) and a doc system (y per
// key) where y = f(key) with structure and x correlates with y through a
// shared key-driven trend.
func buildSystems(t *testing.T, n int) (*Analytics, map[uint64]float64, map[uint64]float64) {
	t.Helper()
	cl := cluster.New(4, cluster.DefaultConfig())
	tbl, err := cluster.NewTable(cl, "entities", []string{"x"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(111)
	xs := make(map[uint64]float64, n)
	ys := make(map[uint64]float64, n)
	var rows []storage.Row
	for i := 0; i < n; i++ {
		key := uint64(i)
		trend := float64(i) * 0.01
		x := trend + rng.NormFloat64()*0.2
		y := 2*trend + 1 + rng.NormFloat64()*0.2
		xs[key] = x
		ys[key] = y
		rows = append(rows, storage.Row{Key: key, Vec: []float64{x}})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	a := New(cl, &TableSystem{Table: tbl, XCol: 0}, NewDocSystem(ys))
	return a, xs, ys
}

func exactCorr(xs, ys map[uint64]float64, lo, hi uint64) float64 {
	var xv, yv []float64
	for k, x := range xs {
		if k < lo || k > hi {
			continue
		}
		if y, ok := ys[k]; ok {
			xv = append(xv, x)
			yv = append(yv, y)
		}
	}
	// Pearson.
	n := float64(len(xv))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for i := range xv {
		sx += xv[i]
		sy += yv[i]
		sxx += xv[i] * xv[i]
		syy += yv[i] * yv[i]
		sxy += xv[i] * yv[i]
	}
	num := n*sxy - sx*sy
	den := math.Sqrt(n*sxx-sx*sx) * math.Sqrt(n*syy-sy*sy)
	if den == 0 {
		return 0
	}
	return num / den
}

func TestShipDataExact(t *testing.T) {
	a, xs, ys := buildSystems(t, 2000)
	got, cost, err := a.ShipData(0, 1999)
	if err != nil {
		t.Fatal(err)
	}
	want := exactCorr(xs, ys, 0, 1999)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ShipData corr = %v, want %v", got, want)
	}
	if cost.BytesLAN < 2000*16 {
		t.Errorf("ShipData moved only %d bytes", cost.BytesLAN)
	}
}

func TestShipPairsExactAndCheaper(t *testing.T) {
	a, xs, ys := buildSystems(t, 2000)
	got, cost, err := a.ShipPairs(100, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := exactCorr(xs, ys, 100, 300)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ShipPairs corr = %v, want %v", got, want)
	}
	_, fullCost, err := a.ShipData(100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if cost.BytesLAN >= fullCost.BytesLAN {
		t.Errorf("ShipPairs bytes %d >= ShipData %d", cost.BytesLAN, fullCost.BytesLAN)
	}
}

func TestShipModelApproximatesCheaply(t *testing.T) {
	a, xs, ys := buildSystems(t, 2000)
	got, cost, err := a.ShipModel(0, 1999, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := exactCorr(xs, ys, 0, 1999)
	// The trend dominates, so the model-based correlation should land
	// near the truth.
	if math.Abs(got-want) > 0.15 {
		t.Errorf("ShipModel corr = %v, truth %v", got, want)
	}
	// Bytes: model ≪ pairs ≪ data.
	_, pairCost, err := a.ShipPairs(0, 1999)
	if err != nil {
		t.Fatal(err)
	}
	if cost.BytesLAN*10 >= pairCost.BytesLAN {
		t.Errorf("ShipModel bytes %d not ≪ pairs %d", cost.BytesLAN, pairCost.BytesLAN)
	}
}

func TestCompareStrategies(t *testing.T) {
	// Ship-pairs beats ship-data only on selective ranges: compare on a
	// quarter of the key space.
	a, _, _ := buildSystems(t, 2000)
	vals, bytes, err := a.CompareStrategies(0, 499, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ship-data", "ship-pairs", "ship-model"} {
		if _, ok := vals[name]; !ok {
			t.Fatalf("missing strategy %q", name)
		}
	}
	if !(bytes["ship-model"] < bytes["ship-pairs"] && bytes["ship-pairs"] < bytes["ship-data"]) {
		t.Errorf("byte ordering wrong: %v", bytes)
	}
}

func TestCrossSystemWAN(t *testing.T) {
	a, _, _ := buildSystems(t, 500)
	a.CrossSystemWAN = true
	_, cost, err := a.ShipData(0, 499)
	if err != nil {
		t.Fatal(err)
	}
	if cost.BytesWAN == 0 {
		t.Error("WAN mode moved no WAN bytes")
	}
}

func TestNoOverlap(t *testing.T) {
	cl := cluster.New(1, cluster.DefaultConfig())
	tbl, _ := cluster.NewTable(cl, "t", []string{"x"}, 1)
	if err := tbl.Load([]storage.Row{{Key: 1, Vec: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	a := New(cl, &TableSystem{Table: tbl, XCol: 0}, NewDocSystem(map[uint64]float64{99: 1}))
	if _, _, err := a.ShipPairs(0, 10); !errors.Is(err, ErrNoOverlap) {
		t.Errorf("err = %v, want ErrNoOverlap", err)
	}
}

func TestDocSystemBasics(t *testing.T) {
	d := NewDocSystem(map[uint64]float64{1: 2, 3: 4})
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if v, ok := d.Get(3); !ok || v != 4 {
		t.Errorf("Get(3) = %v, %v", v, ok)
	}
	if _, ok := d.Get(9); ok {
		t.Error("Get(9) should miss")
	}
	if _, err := NewDocSystem(nil).TrainModel(3); !errors.Is(err, ErrNoOverlap) {
		t.Error("empty TrainModel should fail")
	}
}
