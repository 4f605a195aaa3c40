package index

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/storage"
)

func randomPoints(rng *rand.Rand, n, d int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		vec := make([]float64, d)
		for j := range vec {
			vec[j] = rng.Float64() * 100
		}
		pts[i] = Point{Vec: vec, Partition: i % 4, Key: uint64(i)}
	}
	return pts
}

// bruteKNN is the reference implementation the tree is checked against.
func bruteKNN(pts []Point, q []float64, k int) []Neighbor {
	out := make([]Neighbor, 0, len(pts))
	for _, p := range pts {
		out = append(out, Neighbor{Point: p, Dist2: sqDist(p.Vec, q)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dist2 < out[j].Dist2 })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestKDTreeEmpty(t *testing.T) {
	if _, err := NewKDTree(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestKDTreeKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 500, 3)
	tree, err := NewKDTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		k := 1 + rng.Intn(10)
		got, visited := tree.KNN(q, k)
		want := bruteKNN(pts, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d results", k, len(got))
		}
		for i := range got {
			if math.Abs(got[i].Dist2-want[i].Dist2) > 1e-9 {
				t.Fatalf("trial %d rank %d: dist2 %v != %v", trial, i, got[i].Dist2, want[i].Dist2)
			}
		}
		if visited >= len(pts) {
			t.Errorf("k=%d visited %d of %d nodes: no pruning", k, visited, len(pts))
		}
	}
}

func TestKDTreeKNNPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 10000, 2)
	tree, err := NewKDTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, visited := tree.KNN([]float64{50, 50}, 5)
	if visited > 2000 {
		t.Errorf("visited %d of 10000: pruning too weak", visited)
	}
}

func TestKDTreeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 1000, 2)
	tree, err := NewKDTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	los := []float64{20, 20}
	his := []float64{40, 40}
	got, visited := tree.Range(los, his)
	var want int
	for _, p := range pts {
		if p.Vec[0] >= 20 && p.Vec[0] <= 40 && p.Vec[1] >= 20 && p.Vec[1] <= 40 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("range found %d, want %d", len(got), want)
	}
	if visited >= len(pts) {
		t.Error("range visited every node: no pruning")
	}
	for _, p := range got {
		if p.Vec[0] < 20 || p.Vec[0] > 40 || p.Vec[1] < 20 || p.Vec[1] > 40 {
			t.Fatalf("point outside range returned: %v", p.Vec)
		}
	}
}

func TestKDTreeDegenerateK(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(4)), 10, 2)
	tree, _ := NewKDTree(pts)
	if got, _ := tree.KNN([]float64{0, 0}, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	got, _ := tree.KNN([]float64{0, 0}, 100)
	if len(got) != 10 {
		t.Errorf("k>n returned %d", len(got))
	}
	if tree.Len() != 10 || tree.Dims() != 2 {
		t.Errorf("Len/Dims = %d/%d", tree.Len(), tree.Dims())
	}
}

func TestGridIndexRings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 2000, 2)
	g, err := NewGridIndex(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2000 {
		t.Fatalf("Len = %d", g.Len())
	}
	// Union of all rings = all points.
	total := 0
	for ring := 0; ring <= g.MaxRing(); ring++ {
		total += len(g.RingCandidates([]float64{50, 50}, ring))
	}
	if total != 2000 {
		t.Errorf("rings covered %d of 2000 points", total)
	}
	// Ring 0 must contain far fewer than all points.
	if r0 := len(g.RingCandidates([]float64{50, 50}, 0)); r0 > 200 {
		t.Errorf("ring 0 holds %d points; grid too coarse", r0)
	}
}

func TestGridIndexPartitionsInBox(t *testing.T) {
	pts := []Point{
		{Vec: []float64{10, 10}, Partition: 0, Key: 1},
		{Vec: []float64{90, 90}, Partition: 3, Key: 2},
		{Vec: []float64{15, 12}, Partition: 1, Key: 3},
	}
	g, err := NewGridIndex(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	parts := g.PartitionsInBox([]float64{5, 5}, []float64{20, 20})
	if len(parts) != 2 || parts[0] != 0 || parts[1] != 1 {
		t.Errorf("PartitionsInBox = %v, want [0 1]", parts)
	}
}

func TestGridIndexEmpty(t *testing.T) {
	if _, err := NewGridIndex(nil, 4); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestRankIndexDepths(t *testing.T) {
	cl := cluster.New(2, cluster.DefaultConfig())
	tbl, err := cluster.NewTable(cl, "scores", []string{"score"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	rows := make([]storage.Row, 1000)
	for i := range rows {
		rows[i] = storage.Row{Key: uint64(i), Vec: []float64{rng.Float64()}}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ri, err := BuildRankIndex(tbl, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Partitions() != 4 || ri.Col() != 0 {
		t.Fatalf("Partitions/Col = %d/%d", ri.Partitions(), ri.Col())
	}
	// Partitions must now be sorted descending.
	for p := 0; p < 4; p++ {
		got, _, _ := tbl.ScanPartition(p)
		for i := 1; i < len(got); i++ {
			if got[i].Vec[0] > got[i-1].Vec[0] {
				t.Fatalf("partition %d not sorted", p)
			}
		}
		if len(got) > 0 && math.Abs(ri.Top(p)-got[0].Vec[0]) > 1e-12 {
			t.Errorf("Top(%d) = %v, want %v", p, ri.Top(p), got[0].Vec[0])
		}
		if ri.Rows(p) != len(got) {
			t.Errorf("Rows(%d) = %d, want %d", p, ri.Rows(p), len(got))
		}
	}
	// DepthForScore must never underestimate: reading that many rows
	// must cover every row with score >= s.
	for _, s := range []float64{0.9, 0.5, 0.1} {
		for p := 0; p < 4; p++ {
			depth := ri.DepthForScore(p, s)
			got, _, _ := tbl.ScanPartition(p)
			for i, r := range got {
				if r.Vec[0] >= s && i >= depth {
					t.Fatalf("score %v at depth %d beyond DepthForScore(%v)=%d", r.Vec[0], i, s, depth)
				}
			}
		}
	}
	// Out-of-range partition queries are safe.
	if ri.DepthForScore(99, 0.5) != 0 || ri.Top(99) != 0 || ri.Rows(99) != 0 {
		t.Error("out-of-range partition should return zeros")
	}
}

// Property: KNN results are sorted ascending by distance.
func TestKNNSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 300, 2)
	tree, _ := NewKDTree(pts)
	f := func(qx, qy float64, kRaw uint8) bool {
		q := []float64{math.Mod(math.Abs(qx), 100), math.Mod(math.Abs(qy), 100)}
		k := 1 + int(kRaw)%20
		got, _ := tree.KNN(q, k)
		for i := 1; i < len(got); i++ {
			if got[i].Dist2 < got[i-1].Dist2 {
				return false
			}
		}
		return len(got) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
