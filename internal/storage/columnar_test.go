package storage

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
)

func colTestTable(t *testing.T, nParts int, opts ...Option) *Table {
	t.Helper()
	cl := cluster.New(4, cluster.DefaultConfig())
	tbl, err := NewTable(cl, "cols", []string{"x", "y", "z"}, nParts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func randRows(n int, seed int64) []Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
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

	if _, err := tbl.Append(Row{Key: 9001, Vec: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AppendBatch(randRows(100, 2)); err != nil {
		t.Fatal(err)
	}
	checkProjection(t, tbl)

	if _, _, err := tbl.UpdateWhere(
		func(r Row) bool { return r.Vec[0] < 50 },
		func(r *Row) { r.Vec[2] += 1000 },
	); err != nil {
		t.Fatal(err)
	}
	checkProjection(t, tbl)

	tbl.SortPartitions(func(a, b Row) bool { return a.Vec[2] < b.Vec[2] })
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
		func(Row) bool { return true },
		func(r *Row) { r.Vec[2] = -12345 },
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
				func(r Row) bool { return r.Key%97 == uint64(i) },
				func(r *Row) { r.Vec[1] += 1 },
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
		func(r Row) bool { return true },
		func(r *Row) { r.Vec = r.Vec[:2] },
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

// TestColumnViewRows: Rows materialises the suffix [from:] in insertion
// order as private copies — editing them must not reach the store.
func TestColumnViewRows(t *testing.T) {
	rows := randRows(50, 3)
	cs := BuildColStore(-1, rows)
	view, ok := cs.View()
	if !ok {
		t.Fatal("no view")
	}
	for _, from := range []int{0, 17, 49, 50, 80} {
		got := view.Rows(from)
		var want []Row
		if from < len(rows) {
			want = rows[from:]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Rows(%d) = %d rows, want %d equal to the appended ones", from, len(got), len(want))
		}
	}
	got := view.Rows(0)
	got[3].Vec[0] += 1
	got[3].Vec = append(got[3].Vec, 9) // must not spill into row 4's vector
	if again := view.Rows(0); !reflect.DeepEqual(again, rows) {
		t.Fatal("editing materialised rows changed the store")
	}
}

// TestChunkZonesBoundTheirRows: every full chunk's entry is the tight
// min/max box of exactly its ChunkRows rows, whatever the batch sizes
// the rows arrived in, and the trailing partial chunk has no entry.
func TestChunkZonesBoundTheirRows(t *testing.T) {
	rows := randRows(3*ChunkRows+317, 5)
	c := NewColStore(-1)
	for from, step := 0, 1; from < len(rows); from, step = from+step, step*3+1 {
		c.Append(rows[from:min(from+step, len(rows))]...)
	}
	view, ok := c.View()
	if !ok || view.Len() != len(rows) {
		t.Fatalf("view: ok=%v len=%d", ok, view.Len())
	}
	if view.FullChunks() != 3 {
		t.Fatalf("%d rows carry %d chunk entries, want 3", len(rows), view.FullChunks())
	}
	for ch := 0; ch < view.FullChunks(); ch++ {
		zm := view.ChunkZone(ch)
		if zm.Rows != ChunkRows || len(zm.Mins) != 3 || len(zm.Maxs) != 3 {
			t.Fatalf("chunk %d: zone %+v", ch, zm)
		}
		for j := 0; j < 3; j++ {
			lo, hi := rows[ch*ChunkRows].Vec[j], rows[ch*ChunkRows].Vec[j]
			for _, r := range rows[ch*ChunkRows : (ch+1)*ChunkRows] {
				lo, hi = min(lo, r.Vec[j]), max(hi, r.Vec[j])
			}
			if zm.Mins[j] != lo || zm.Maxs[j] != hi {
				t.Fatalf("chunk %d col %d: zone [%v,%v], rows span [%v,%v]", ch, j, zm.Mins[j], zm.Maxs[j], lo, hi)
			}
		}
	}
}

// TestChunkZonesPinnedUnderAppends: the entries a view pinned keep their
// values while later appends fill the chunk that was partial at snapshot
// time, open new ones and force the entry arrays to grow.
func TestChunkZonesPinnedUnderAppends(t *testing.T) {
	rows := randRows(2*ChunkRows+100, 6)
	c := BuildColStore(3, rows)
	view, _ := c.View()
	if view.FullChunks() != 2 {
		t.Fatalf("%d chunk entries, want 2", view.FullChunks())
	}
	mins := append([]float64(nil), view.ChunkMins...)
	maxs := append([]float64(nil), view.ChunkMaxs...)

	wide := make([]Row, 3*ChunkRows)
	for i := range wide {
		wide[i] = Row{Key: uint64(1_000_000 + i), Vec: []float64{-1e9, 1e9, math.NaN()}}
	}
	c.Append(wide...)

	if view.FullChunks() != 2 || !reflect.DeepEqual(view.ChunkMins, mins) || !reflect.DeepEqual(view.ChunkMaxs, maxs) {
		t.Fatal("a pinned view's chunk entries changed under later appends")
	}
	if view.ChunkNaN[0] || view.ChunkNaN[1] {
		t.Fatal("a pinned view's chunks turned unbounded under later appends")
	}
	if cap(view.ChunkMins) != len(mins) || cap(view.ChunkNaN) != 2 {
		t.Fatalf("chunk entries not capacity-pinned: cap %d and %d", cap(view.ChunkMins), cap(view.ChunkNaN))
	}
	after, _ := c.View()
	if after.FullChunks() != 5 {
		t.Fatalf("%d chunk entries after the appends, want 5", after.FullChunks())
	}
	// Chunk 2 was partial at the first snapshot: it now holds the old
	// tail and the first wide rows, so its box must cover both.
	if zm := after.ChunkZone(2); zm.Mins != nil {
		t.Fatalf("chunk 2 holds NaN rows but reports bounds %+v", zm)
	}
	if !reflect.DeepEqual(after.ChunkMins[:len(mins)], mins) {
		t.Fatal("full chunks' entries were rewritten by later appends")
	}
}

// TestChunkZoneNaNIsUnbounded: a chunk that holds a NaN reports no
// bounds (min/max cannot see NaN, yet a NaN coordinate matches any
// range), and only that chunk does.
func TestChunkZoneNaNIsUnbounded(t *testing.T) {
	rows := randRows(3*ChunkRows, 7)
	rows[ChunkRows+17].Vec[1] = math.NaN()
	view, _ := BuildColStore(3, rows).View()
	for ch, wantNaN := range []bool{false, true, false} {
		zm := view.ChunkZone(ch)
		if zm.Rows != ChunkRows || (zm.Mins == nil) != wantNaN || (zm.Maxs == nil) != wantNaN {
			t.Fatalf("chunk %d: zone %+v, want unbounded=%v", ch, zm, wantNaN)
		}
	}
}
