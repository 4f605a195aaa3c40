package storage

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

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

// TestBlockSummariesAreTheRowOrderMoments: every full block's summary is
// the tight box of exactly its BlockRows rows and the moments a
// row-at-a-time fold of them leaves — raw sums, sums of deviations from
// the block's first row, and their products for every column pair, each
// added in row order (what the batch kernels of internal/query accumulate
// with every row selected) — bit for bit, whatever the batch sizes the
// rows arrived in; the rows past the last full block have none.
func TestBlockSummariesAreTheRowOrderMoments(t *testing.T) {
	const w = 3
	rows := randRows(ChunkRows+3*BlockRows+57, 8)
	c := NewColStore(-1)
	for from, step := 0, 1; from < len(rows); from, step = from+step, step*3+1 {
		c.Append(rows[from:min(from+step, len(rows))]...)
	}
	view, _ := c.View()
	if view.FullBlocks() != len(rows)/BlockRows || view.FullChunks() != 1 {
		t.Fatalf("%d rows carry %d block summaries and %d chunk entries", len(rows), view.FullBlocks(), view.FullChunks())
	}
	if len(view.BlockMins) != view.FullBlocks()*w || len(view.BlockMoments) != view.FullBlocks()*MomentStride(w) {
		t.Fatalf("summary arrays hold %d box and %d moment values", len(view.BlockMins), len(view.BlockMoments))
	}
	for b := 0; b < view.FullBlocks(); b++ {
		block := rows[b*BlockRows : (b+1)*BlockRows]
		p := block[0].Vec
		want := make([]float64, MomentStride(w))
		copy(want, p)
		mins, maxs := append([]float64(nil), p...), append([]float64(nil), p...)
		for _, r := range block {
			for j, v := range r.Vec {
				mins[j], maxs[j] = min(mins[j], v), max(maxs[j], v)
				want[w+j] += v
				want[2*w+j] += v - p[j]
				for k := j; k < w; k++ {
					want[3*w+CrossOffset(w, k, j)] += (v - p[j]) * (r.Vec[k] - p[k])
				}
			}
		}
		if view.BlockDirty[b] {
			t.Fatalf("block %d of finite rows is flagged dirty", b)
		}
		if !reflect.DeepEqual(view.BlockMins[b*w:(b+1)*w], mins) || !reflect.DeepEqual(view.BlockMaxs[b*w:(b+1)*w], maxs) {
			t.Fatalf("block %d: box [%v, %v], rows span [%v, %v]", b, view.BlockMins[b*w:(b+1)*w], view.BlockMaxs[b*w:(b+1)*w], mins, maxs)
		}
		if got := view.BlockMoments[b*MomentStride(w) : (b+1)*MomentStride(w)]; !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d: moments %v, row-order fold %v", b, got, want)
		}
	}
}

// TestBlockSummariesPinnedUnderAppends: the summaries a view pinned are
// read by one goroutine while another appends past them — filling the
// block that was partial at snapshot time, opening new blocks and chunks
// and forcing every summary array to grow — and they neither change nor
// race (run with -race).
func TestBlockSummariesPinnedUnderAppends(t *testing.T) {
	rows := randRows(ChunkRows+2*BlockRows+100, 9)
	c := BuildColStore(3, rows)
	view, _ := c.View()
	if view.FullBlocks() != ChunkRows/BlockRows+2 {
		t.Fatalf("%d block summaries, want %d", view.FullBlocks(), ChunkRows/BlockRows+2)
	}
	pinned := ColumnView{
		BlockMins:    append([]float64(nil), view.BlockMins...),
		BlockMaxs:    append([]float64(nil), view.BlockMaxs...),
		BlockDirty:   append([]bool(nil), view.BlockDirty...),
		BlockMoments: append([]float64(nil), view.BlockMoments...),
	}
	unchanged := func() bool {
		return reflect.DeepEqual(view.BlockMins, pinned.BlockMins) && reflect.DeepEqual(view.BlockMaxs, pinned.BlockMaxs) &&
			reflect.DeepEqual(view.BlockDirty, pinned.BlockDirty) && reflect.DeepEqual(view.BlockMoments, pinned.BlockMoments)
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if !unchanged() {
					t.Error("a pinned view's block summaries changed under later appends")
					return
				}
			}
		}
	}()
	wide := make([]Row, 3*ChunkRows)
	for i := range wide {
		wide[i] = Row{Key: uint64(1_000_000 + i), Vec: []float64{-1e9, 1e9, math.NaN()}}
	}
	for from := 0; from < len(wide); from += 100 {
		c.Append(wide[from:min(from+100, len(wide))]...)
	}
	close(stop)
	reader.Wait()

	if !unchanged() {
		t.Fatal("a pinned view's block summaries changed under later appends")
	}
	if cap(view.BlockMins) != len(view.BlockMins) || cap(view.BlockDirty) != len(view.BlockDirty) || cap(view.BlockMoments) != len(view.BlockMoments) {
		t.Fatal("block summaries are not capacity-pinned")
	}
	after, _ := c.View()
	if after.FullBlocks() != (len(rows)+len(wide))/BlockRows {
		t.Fatalf("%d block summaries after the appends, want %d", after.FullBlocks(), (len(rows)+len(wide))/BlockRows)
	}
	if !reflect.DeepEqual(after.BlockMoments[:len(pinned.BlockMoments)], pinned.BlockMoments) {
		t.Fatal("full blocks' summaries were rewritten by later appends")
	}
	// The block that was partial at the first snapshot now holds the old
	// tail and the first NaN rows.
	if b := view.FullBlocks(); !after.BlockDirty[b] {
		t.Fatalf("block %d holds NaN rows but is not flagged", b)
	}
}

// TestNonFiniteBlockIsFlagged: a block that holds a NaN, a +Inf or a
// −Inf is flagged dirty, and only that block is; of the three only the
// NaN makes the chunk around it unbounded, since min/max do bound ±Inf.
func TestNonFiniteBlockIsFlagged(t *testing.T) {
	rows := randRows(3*ChunkRows, 10)
	perChunk := ChunkRows / BlockRows
	rows[2*BlockRows+5].Vec[0] = math.Inf(1)            // chunk 0, block 2
	rows[ChunkRows+BlockRows-1].Vec[2] = math.NaN()     // chunk 1, block 0 (its last row)
	rows[2*ChunkRows+7*BlockRows].Vec[1] = math.Inf(-1) // chunk 2, block 7 (its first row: the pivot)
	view, _ := BuildColStore(3, rows).View()
	dirty := map[int]bool{2: true, perChunk: true, 2*perChunk + 7: true}
	for b, got := range view.BlockDirty {
		if got != dirty[b] {
			t.Errorf("block %d: dirty=%v, want %v", b, got, dirty[b])
		}
	}
	for ch, wantNaN := range []bool{false, true, false} {
		if view.ChunkNaN[ch] != wantNaN {
			t.Errorf("chunk %d: NaN flag %v, want %v", ch, view.ChunkNaN[ch], wantNaN)
		}
	}
	if zm := view.ChunkZone(0); zm.Maxs[0] != math.Inf(1) {
		t.Errorf("chunk 0 holds a +Inf in column 0 but its box stops at %v", zm.Maxs[0])
	}
	if zm := view.ChunkZone(2); zm.Mins[1] != math.Inf(-1) {
		t.Errorf("chunk 2 holds a -Inf in column 1 but its box starts at %v", zm.Mins[1])
	}
}
