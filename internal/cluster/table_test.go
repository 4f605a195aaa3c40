package cluster

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func testCluster(n int) *Cluster {
	return New(n, DefaultConfig())
}

func mkRows(n int, d int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		vec := make([]float64, d)
		for j := range vec {
			vec[j] = float64(i*d + j)
		}
		rows[i] = storage.Row{Key: uint64(i), Vec: vec}
	}
	return rows
}

func TestNewTableValidation(t *testing.T) {
	cl := testCluster(2)
	if _, err := NewTable(cl, "t", nil, 2); err == nil {
		t.Error("want error for empty schema")
	}
	if _, err := NewTable(cl, "t", []string{"a"}, 0); err == nil {
		t.Error("want error for zero partitions")
	}
	if _, err := NewTable(cl, "t", []string{"a"}, 3, WithRangePartitioning([]float64{1})); err == nil {
		t.Error("want error for wrong bound count")
	}
}

func TestLoadAndScan(t *testing.T) {
	cl := testCluster(4)
	tbl, err := NewTable(cl, "t", []string{"a", "b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Load(mkRows(1000, 2)); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 1000 {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	var total int
	for p := 0; p < tbl.Partitions(); p++ {
		rows, cost, err := tbl.ScanPartition(p)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
		if cost.RowsRead != int64(len(rows)) {
			t.Errorf("partition %d cost rows %d != %d", p, cost.RowsRead, len(rows))
		}
		if len(rows) > 0 && cost.NodesTouched != 1 {
			t.Errorf("partition %d touched %d nodes", p, cost.NodesTouched)
		}
	}
	if total != 1000 {
		t.Errorf("scanned %d rows total", total)
	}
	// Hash partitioning should be reasonably balanced.
	for p := 0; p < tbl.Partitions(); p++ {
		rows, _, _ := tbl.ScanPartition(p)
		if len(rows) < 60 || len(rows) > 200 {
			t.Errorf("partition %d badly skewed: %d rows", p, len(rows))
		}
	}
}

func TestSchemaMismatch(t *testing.T) {
	cl := testCluster(1)
	tbl, _ := NewTable(cl, "t", []string{"a"}, 1)
	err := tbl.Load([]storage.Row{{Key: 1, Vec: []float64{1, 2}}})
	if !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("err = %v, want ErrSchemaMismatch", err)
	}
	if _, err := tbl.Append(storage.Row{Key: 2, Vec: nil}); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("Append err = %v", err)
	}
}

func TestRangePartitioning(t *testing.T) {
	cl := testCluster(3)
	tbl, err := NewTable(cl, "t", []string{"v"}, 3, WithRangePartitioning([]float64{10, 20}))
	if err != nil {
		t.Fatal(err)
	}
	rows := []storage.Row{
		{Key: 1, Vec: []float64{5}},
		{Key: 2, Vec: []float64{15}},
		{Key: 3, Vec: []float64{25}},
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		got, _, err := tbl.ScanPartition(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Key != uint64(p+1) {
			t.Errorf("partition %d = %v", p, got)
		}
	}
}

func TestGetHashRouted(t *testing.T) {
	cl := testCluster(4)
	tbl, _ := NewTable(cl, "t", []string{"a"}, 8)
	if err := tbl.Load(mkRows(100, 1)); err != nil {
		t.Fatal(err)
	}
	row, ok, cost, err := tbl.Get(42)
	if err != nil || !ok {
		t.Fatalf("Get(42): ok=%v err=%v", ok, err)
	}
	if row.Key != 42 {
		t.Errorf("Get returned key %d", row.Key)
	}
	if cost.RowsRead != 1 {
		t.Errorf("point lookup read %d rows, want 1", cost.RowsRead)
	}
	_, ok, _, err = tbl.Get(10_000)
	if err != nil || ok {
		t.Errorf("Get(missing): ok=%v err=%v", ok, err)
	}
}

func TestAppendBumpsVersion(t *testing.T) {
	cl := testCluster(2)
	tbl, _ := NewTable(cl, "t", []string{"a"}, 2)
	v0 := tbl.Version()
	if _, err := tbl.Append(storage.Row{Key: 1, Vec: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() != v0+1 {
		t.Errorf("version %d, want %d", tbl.Version(), v0+1)
	}
	if tbl.Rows() != 1 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
}

func TestUpdateWhere(t *testing.T) {
	cl := testCluster(2)
	tbl, _ := NewTable(cl, "t", []string{"a"}, 4)
	if err := tbl.Load(mkRows(100, 1)); err != nil {
		t.Fatal(err)
	}
	v0 := tbl.Version()
	n, cost, err := tbl.UpdateWhere(
		func(r storage.Row) bool { return r.Vec[0] < 50 },
		func(r *storage.Row) { r.Vec[0] += 1000 },
	)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("changed %d rows, want 50", n)
	}
	if cost.RowsRead != 100 {
		t.Errorf("update scanned %d rows", cost.RowsRead)
	}
	if tbl.Version() != v0+1 {
		t.Error("version not bumped")
	}
}

func TestFailoverToReplica(t *testing.T) {
	cl := testCluster(4)
	tbl, _ := NewTable(cl, "t", []string{"a"}, 4)
	if err := tbl.Load(mkRows(40, 1)); err != nil {
		t.Fatal(err)
	}
	// Partition 0's primary is node 0; fail it.
	if err := cl.Fail(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.ScanPartition(0); err != nil {
		t.Errorf("scan with replica available failed: %v", err)
	}
	node, err := tbl.HostNode(0)
	if err != nil || node != 1 {
		t.Errorf("HostNode = %d, %v; want replica node 1", node, err)
	}
	// Fail the replica too.
	if err := cl.Fail(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.ScanPartition(0); !errors.Is(err, ErrAllReplicasDown) {
		t.Errorf("err = %v, want ErrAllReplicasDown", err)
	}
}

func TestScanPartitionPrefix(t *testing.T) {
	cl := testCluster(1)
	tbl, _ := NewTable(cl, "t", []string{"a"}, 1)
	if err := tbl.Load(mkRows(100, 1)); err != nil {
		t.Fatal(err)
	}
	rows, cost, err := tbl.ScanPartitionPrefix(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || cost.RowsRead != 10 {
		t.Errorf("prefix scan returned %d rows, cost %d", len(rows), cost.RowsRead)
	}
	// Prefix larger than partition clamps.
	rows, _, err = tbl.ScanPartitionPrefix(0, 1000)
	if err != nil || len(rows) != 100 {
		t.Errorf("oversized prefix = %d rows, err %v", len(rows), err)
	}
	if _, _, err := tbl.ScanPartition(99); !errors.Is(err, ErrNoSuchPartition) {
		t.Errorf("bad partition err = %v", err)
	}
}

func TestSortPartitions(t *testing.T) {
	cl := testCluster(1)
	tbl, _ := NewTable(cl, "t", []string{"score"}, 2)
	if err := tbl.Load(mkRows(50, 1)); err != nil {
		t.Fatal(err)
	}
	tbl.SortPartitions(func(a, b storage.Row) bool { return a.Vec[0] > b.Vec[0] })
	for p := 0; p < tbl.Partitions(); p++ {
		rows, _, _ := tbl.ScanPartition(p)
		for i := 1; i < len(rows); i++ {
			if rows[i].Vec[0] > rows[i-1].Vec[0] {
				t.Fatalf("partition %d not sorted desc at %d", p, i)
			}
		}
	}
}

// Property: every loaded row is found in exactly one partition, and
// PartitionFor is stable.
func TestPartitioningProperty(t *testing.T) {
	cl := testCluster(4)
	tbl, _ := NewTable(cl, "t", []string{"a"}, 8)
	f := func(key uint64) bool {
		v := float64(key % 1000)
		if math.IsNaN(v) {
			return true
		}
		p1 := tbl.PartitionFor(key, []float64{v})
		p2 := tbl.PartitionFor(key, []float64{v})
		return p1 == p2 && p1 >= 0 && p1 < tbl.Partitions()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendBatchSingleVersionBump(t *testing.T) {
	cl := testCluster(4)
	tbl, err := NewTable(cl, "t", []string{"a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Load(mkRows(100, 2)); err != nil {
		t.Fatal(err)
	}
	v0 := tbl.Version()
	batch := make([]storage.Row, 50)
	for i := range batch {
		batch[i] = storage.Row{Key: uint64(1000 + i), Vec: []float64{1, 2}}
	}
	cost, err := tbl.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Version() != v0+1 {
		t.Fatalf("batch bumped version by %d, want 1", tbl.Version()-v0)
	}
	if tbl.Rows() != 150 {
		t.Fatalf("Rows = %d, want 150", tbl.Rows())
	}
	if cost.RowsRead == 0 {
		t.Fatalf("batch append charged no work")
	}
	// A schema-mismatched batch is rejected atomically.
	bad := []storage.Row{{Key: 1, Vec: []float64{1, 2}}, {Key: 2, Vec: []float64{1}}}
	if _, err := tbl.AppendBatch(bad); err == nil {
		t.Fatalf("mismatched batch accepted")
	}
	if tbl.Rows() != 150 || tbl.Version() != v0+1 {
		t.Fatalf("failed batch mutated the table")
	}
}

func colTestTable(t *testing.T, nParts int, opts ...Option) *Table {
	t.Helper()
	cl := New(4, DefaultConfig())
	tbl, err := NewTable(cl, "cols", []string{"x", "y", "z"}, nParts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func randRows(n int, seed int64) []storage.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			Key: uint64(i + 1),
			Vec: []float64{rng.Float64() * 100, rng.Float64() * 100, rng.NormFloat64()},
		}
	}
	return rows
}

// checkProjection asserts every partition's columnar view mirrors its
// rows exactly and its zone map bounds them tightly.
func checkProjection(t *testing.T, tbl *Table) {
	t.Helper()
	zones := tbl.ZoneMaps()
	for p := 0; p < tbl.Partitions(); p++ {
		rows, _, err := tbl.ScanPartition(p)
		if err != nil {
			t.Fatal(err)
		}
		view, _, err := tbl.ScanColumns(p)
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		if view.Len() != len(rows) || view.Width() != 3 {
			t.Fatalf("partition %d: view %dx%d, rows %d", p, view.Len(), view.Width(), len(rows))
		}
		for i, r := range rows {
			if view.Keys[i] != r.Key {
				t.Fatalf("partition %d row %d: key %d != %d", p, i, view.Keys[i], r.Key)
			}
			for j, v := range r.Vec {
				if view.Cols[j][i] != v {
					t.Fatalf("partition %d row %d col %d: %v != %v", p, i, j, view.Cols[j][i], v)
				}
			}
		}
		zm := zones[p]
		if zm.Rows != len(rows) {
			t.Fatalf("partition %d: zone rows %d != %d", p, zm.Rows, len(rows))
		}
		if len(rows) == 0 {
			continue
		}
		for j := 0; j < 3; j++ {
			lo, hi := rows[0].Vec[j], rows[0].Vec[j]
			for _, r := range rows[1:] {
				if r.Vec[j] < lo {
					lo = r.Vec[j]
				}
				if r.Vec[j] > hi {
					hi = r.Vec[j]
				}
			}
			if zm.Mins[j] != lo || zm.Maxs[j] != hi {
				t.Fatalf("partition %d col %d: zone [%v,%v], want [%v,%v]",
					p, j, zm.Mins[j], zm.Maxs[j], lo, hi)
			}
		}
	}
}

func TestColumnarProjectionTracksMutations(t *testing.T) {
	tbl := colTestTable(t, 4)
	if err := tbl.Load(randRows(500, 1)); err != nil {
		t.Fatal(err)
	}
	checkProjection(t, tbl)

	if _, err := tbl.Append(storage.Row{Key: 9001, Vec: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AppendBatch(randRows(100, 2)); err != nil {
		t.Fatal(err)
	}
	checkProjection(t, tbl)

	if _, _, err := tbl.UpdateWhere(
		func(r storage.Row) bool { return r.Vec[0] < 50 },
		func(r *storage.Row) { r.Vec[2] += 1000 },
	); err != nil {
		t.Fatal(err)
	}
	checkProjection(t, tbl)

	tbl.SortPartitions(func(a, b storage.Row) bool { return a.Vec[2] < b.Vec[2] })
	checkProjection(t, tbl)
}

func TestScanSnapshotSemantics(t *testing.T) {
	tbl := colTestTable(t, 2)
	if err := tbl.Load(randRows(200, 3)); err != nil {
		t.Fatal(err)
	}
	rows, _, err := tbl.ScanPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := tbl.ScanColumns(0)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(rows)
	wantFirst := rows[0].Vec[2]
	wantCol := view.Cols[2][0]

	// Appends must not grow an already-taken snapshot.
	if _, err := tbl.AppendBatch(randRows(50, 4)); err != nil {
		t.Fatal(err)
	}
	// Updates must not mutate it either (copy-on-write epochs).
	if _, _, err := tbl.UpdateWhere(
		func(storage.Row) bool { return true },
		func(r *storage.Row) { r.Vec[2] = -12345 },
	); err != nil {
		t.Fatal(err)
	}
	if len(rows) != wantLen || view.Len() != wantLen {
		t.Fatalf("snapshot grew: rows %d, view %d, want %d", len(rows), view.Len(), wantLen)
	}
	if rows[0].Vec[2] != wantFirst {
		t.Fatalf("row snapshot mutated: %v != %v", rows[0].Vec[2], wantFirst)
	}
	if view.Cols[2][0] != wantCol {
		t.Fatalf("column snapshot mutated: %v != %v", view.Cols[2][0], wantCol)
	}
	// The table itself sees the update.
	fresh, _, err := tbl.ScanPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0].Vec[2] != -12345 {
		t.Fatalf("update not visible in fresh scan: %v", fresh[0].Vec[2])
	}
}

// TestScanWhileIngest is the -race regression for the scan-aliasing
// hazard: readers scan (rows and columns) while writers append batches
// and run in-place updates. Every observed snapshot must be internally
// consistent (keys match the mirrored columns) and the race detector
// must stay quiet.
func TestScanWhileIngest(t *testing.T) {
	tbl := colTestTable(t, 4)
	if err := tbl.Load(randRows(1000, 5)); err != nil {
		t.Fatal(err)
	}
	const writers, readers, batches = 2, 4, 50

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := randRows(20, seed*1000+int64(b))
				for i := range rows {
					rows[i].Key = uint64(seed)*1_000_000 + uint64(b)*100 + uint64(i)
				}
				if _, err := tbl.AppendBatch(rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 10))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, _, err := tbl.UpdateWhere(
				func(r storage.Row) bool { return r.Key%97 == uint64(i) },
				func(r *storage.Row) { r.Vec[1] += 1 },
			); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := i % tbl.Partitions()
				rows, _, err := tbl.ScanPartition(p)
				if err != nil {
					t.Error(err)
					return
				}
				view, _, err := tbl.ScanColumns(p)
				if err != nil {
					t.Error(err)
					return
				}
				// A view is a consistent epoch: keys mirror rows written
				// together with their vectors.
				for i := 0; i < view.Len(); i++ {
					_ = view.Keys[i]
					for j := 0; j < view.Width(); j++ {
						_ = view.Cols[j][i]
					}
				}
				for _, r := range rows {
					_ = r.Vec[0]
				}
				if _, _, _, err := tbl.Get(uint64(i + 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkProjection(t, tbl)
	if got, want := tbl.Rows(), int64(1000+writers*batches*20); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
}

// TestRaggedPartitionFallsBack poisons a partition's projection by
// resizing row vectors through UpdateWhere and asserts ScanColumns
// reports ErrNoColumns while ScanPartition and zone maps stay usable.
func TestRaggedPartitionFallsBack(t *testing.T) {
	tbl := colTestTable(t, 2)
	if err := tbl.Load(randRows(100, 7)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.UpdateWhere(
		func(r storage.Row) bool { return true },
		func(r *storage.Row) { r.Vec = r.Vec[:2] },
	); err != nil {
		t.Fatal(err)
	}
	raggedSeen := false
	for p := 0; p < tbl.Partitions(); p++ {
		_, _, err := tbl.ScanColumns(p)
		rows, _, serr := tbl.ScanPartition(p)
		if serr != nil {
			t.Fatal(serr)
		}
		if len(rows) == 0 {
			continue
		}
		if !errors.Is(err, ErrNoColumns) {
			t.Fatalf("partition %d: err = %v, want ErrNoColumns", p, err)
		}
		raggedSeen = true
		zm := tbl.ZoneMaps()[p]
		if zm.Rows != len(rows) || zm.Mins != nil {
			t.Fatalf("partition %d: ragged zone = %+v, want rows=%d nil bounds", p, zm, len(rows))
		}
	}
	if !raggedSeen {
		t.Fatal("no non-empty partition exercised the ragged path")
	}
}
