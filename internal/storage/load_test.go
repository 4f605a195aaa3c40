package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// loadRows builds n rows of width w whose values stress the loader:
// ties (values drawn from a small grid, so Morton keys repeat), a
// constant column when w > 2, and NaN, ±Inf and -0 sprinkled at rate
// special. With odd >= 0, row odd is one column short.
func loadRows(rng *rand.Rand, n, w int, special float64, odd int) []Row {
	flat := make([]float64, n*w)
	rows := make([]Row, n)
	for i := range rows {
		vec := flat[i*w : (i+1)*w : (i+1)*w]
		for j := range vec {
			switch {
			case j == 2:
				vec[j] = 7
			case rng.Float64() < special:
				vec[j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(4)]
			default:
				vec[j] = float64(rng.Intn(40)) * 2.5
			}
		}
		if i == odd {
			vec = vec[:w-1]
		}
		rows[i] = Row{Key: uint64(1000 + i), Vec: vec}
	}
	return rows
}

// refClustered is the test-side statement of the clustered order
// (zorder.go): over the rows handed in, all of one width, each of the
// first min(width, 4) columns is quantised on its finite min and max to
// cell = trunc(min((v-min) * (65535/(max-min)), 65535)) where that
// product is positive, else 0; the key takes the cells' bits from the
// top bit down, column 0 leading; a stable sort on the key keeps arrival
// order for ties. It shares no code with AppendClustered.
func refClustered(rows []Row) []Row {
	if len(rows) == 0 {
		return nil
	}
	dims := min(len(rows[0].Vec), 4)
	keys := make([]uint64, len(rows))
	for j := 0; j < dims; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			if v := r.Vec[j]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		scale := 0.0
		if hi > lo && !math.IsInf(hi-lo, 0) {
			scale = 65535 / (hi - lo)
		}
		for i, r := range rows {
			var cell uint64
			if f := (r.Vec[j] - lo) * scale; f > 0 {
				cell = uint64(min(f, 65535))
			}
			for bit := 15; bit >= 0; bit-- {
				keys[i] |= (cell >> bit & 1) << (bit*dims + dims - 1 - j)
			}
		}
	}
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	out := make([]Row, len(rows))
	for k, i := range order {
		out[k] = rows[i]
	}
	return out
}

// rowByRow builds a store of the given width one Append call per row.
func rowByRow(width int, rows []Row) *ColStore {
	c := NewColStore(width)
	for _, r := range rows {
		c.Append(r)
	}
	return c
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameStore reports how two stores differ in anything a reader can see
// (View, Zone, Ragged, Len), comparing floats by their bits; "" when
// they do not.
func sameStore(got, want *ColStore) string {
	if got.Ragged() != want.Ragged() || got.Len() != want.Len() {
		return fmt.Sprintf("ragged %v len %d, want ragged %v len %d", got.Ragged(), got.Len(), want.Ragged(), want.Len())
	}
	gz, wz := got.Zone(), want.Zone()
	if gz.Rows != wz.Rows || !sameFloats(gz.Mins, wz.Mins) || !sameFloats(gz.Maxs, wz.Maxs) {
		return fmt.Sprintf("zone %+v, want %+v", gz, wz)
	}
	gv, gok := got.View()
	wv, wok := want.View()
	if gok != wok {
		return fmt.Sprintf("view ok %v, want %v", gok, wok)
	}
	if len(gv.Keys) != len(wv.Keys) || len(gv.Cols) != len(wv.Cols) {
		return fmt.Sprintf("view %dx%d, want %dx%d", gv.Len(), gv.Width(), wv.Len(), wv.Width())
	}
	for i := range gv.Keys {
		if gv.Keys[i] != wv.Keys[i] {
			return fmt.Sprintf("key %d: %d, want %d", i, gv.Keys[i], wv.Keys[i])
		}
	}
	for j := range gv.Cols {
		if !sameFloats(gv.Cols[j], wv.Cols[j]) {
			return fmt.Sprintf("column %d differs", j)
		}
	}
	for name, pair := range map[string][2][]float64{
		"ChunkMins": {gv.ChunkMins, wv.ChunkMins}, "ChunkMaxs": {gv.ChunkMaxs, wv.ChunkMaxs},
		"BlockMins": {gv.BlockMins, wv.BlockMins}, "BlockMaxs": {gv.BlockMaxs, wv.BlockMaxs},
		"BlockMoments": {gv.BlockMoments, wv.BlockMoments},
	} {
		if !sameFloats(pair[0], pair[1]) {
			return name + " differ"
		}
	}
	if !slices.Equal(gv.ChunkNaN, wv.ChunkNaN) || !slices.Equal(gv.BlockDirty, wv.BlockDirty) {
		return "ChunkNaN or BlockDirty differ"
	}
	return ""
}

// randomSplit cuts rows into pieces whose sizes mix 1, the block and
// chunk sizes and their neighbours, and arbitrary lengths, so pieces
// start mid-block and cross block and chunk edges.
func randomSplit(rng *rand.Rand, rows []Row) [][]Row {
	sizes := []int{1, BlockRows - 1, BlockRows, BlockRows + 1, ChunkRows - 1, ChunkRows, ChunkRows + 1}
	var out [][]Row
	for len(rows) > 0 {
		n := sizes[rng.Intn(len(sizes))]
		if rng.Intn(3) == 0 {
			n = 1 + rng.Intn(3*ChunkRows)
		}
		n = min(n, len(rows))
		out = append(out, rows[:n])
		rows = rows[n:]
	}
	return out
}

// checkLoads builds rows every way a store can be built and compares
// each with the one-row-per-call store. When the rows share one width
// they are also loaded as a table through AppendClustered, at strides 1
// and 6, after the first prefix rows went in through Append in random
// pieces, so the clustered load starts mid-block.
func checkLoads(t *testing.T, rng *rand.Rand, width int, rows []Row, prefix int) {
	t.Helper()
	want := rowByRow(width, rows)
	batch := NewColStore(width)
	batch.Append(rows...)
	if d := sameStore(batch, want); d != "" {
		t.Fatalf("one batch vs one row per call: %s", d)
	}
	for trial := 0; trial < 3; trial++ {
		split := NewColStore(width)
		for _, piece := range randomSplit(rng, rows) {
			split.Append(piece...)
		}
		if d := sameStore(split, want); d != "" {
			t.Fatalf("random split %d vs one row per call: %s", trial, d)
		}
	}
	for _, r := range rows {
		if len(r.Vec) != len(rows[0].Vec) {
			return // no table holds rows of two widths
		}
	}
	prefix = min(prefix, len(rows))
	head, tail := rows[:prefix], BatchOf(rows[prefix:])
	for _, stride := range []int{1, 6} {
		for first := 0; first < stride; first++ {
			var dealt []Row
			for i := first; i < tail.Len(); i += stride {
				dealt = append(dealt, Row{Key: tail.Keys[i], Vec: tail.Vec(i)})
			}
			// A store without a width adopts its first row's: the head's,
			// or else the table's.
			adopted := width
			if adopted < 0 && len(rows) > 0 {
				adopted = len(rows[0].Vec)
			}
			want := rowByRow(adopted, append(append([]Row(nil), head...), refClustered(dealt)...))
			got := NewColStore(width)
			for _, piece := range randomSplit(rng, head) {
				got.Append(piece...)
			}
			got.AppendClustered(tail, first, stride)
			if d := sameStore(got, want); d != "" {
				t.Fatalf("clustered stride %d first %d after %d rows vs stable-sort reference: %s",
					stride, first, prefix, d)
			}
		}
	}
}

// TestAppendSplitInvariant: a store's bytes depend on the rows and their
// order alone, not on how the rows were batched, and AppendClustered
// lays down exactly the stable sort of the documented Morton order.
func TestAppendSplitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 5; width++ {
		for _, tc := range []struct {
			name    string
			n       int
			special float64
			odd     int
		}{
			{"finite", 5*ChunkRows + 77, 0, -1},
			{"nonfinite", 3*ChunkRows + 5, 0.002, -1},
			{"wrong width mid batch", 2*ChunkRows + 300, 0, ChunkRows + 200},
			{"short", BlockRows - 3, 0.05, -1},
		} {
			if tc.odd >= 0 && width == 1 {
				continue // a one-column row has no shorter row but the empty one
			}
			t.Run(fmt.Sprintf("w%d/%s", width, tc.name), func(t *testing.T) {
				rows := loadRows(rng, tc.n, width, tc.special, tc.odd)
				checkLoads(t, rng, width, rows, 0)
				checkLoads(t, rng, -1, rows, BlockRows/2+1)
			})
		}
	}
}

// TestAppendWrongWidthStopsBatch: the rows before the first wrong-width
// row land, it and the rest do not, and the store is poisoned; a
// clustered load of a table of another width lands nothing and poisons
// the store too.
func TestAppendWrongWidthStopsBatch(t *testing.T) {
	rows := loadRows(rand.New(rand.NewSource(2)), 300, 3, 0, 200)
	c := NewColStore(3)
	c.Append(rows...)
	if !c.Ragged() || c.Len() != 200 {
		t.Fatalf("ragged %v len %d, want ragged after 200 rows", c.Ragged(), c.Len())
	}
	c.Append(rows[:10]...)
	c.AppendClustered(BatchOf(rows[:10]), 0, 1)
	if c.Len() != 200 {
		t.Fatalf("a poisoned store took %d more rows", c.Len()-200)
	}
	narrow := NewColStore(2)
	narrow.AppendClustered(BatchOf(rows[:10]), 0, 1)
	if !narrow.Ragged() || narrow.Len() != 0 {
		t.Fatalf("a 3-column table in a 2-column store: ragged %v len %d, want ragged and empty",
			narrow.Ragged(), narrow.Len())
	}
}

// FuzzClusteredLoad: whatever the values (the fuzzer's bytes index a
// palette with NaN, ±Inf, ±0 and ties; column constCol%(width+1), when
// there is one, holds a single value), width, size, stride and prefix,
// batched, randomly split and clustered loads of the table equal the
// row-at-a-time ones, the clustered load in refClustered's order.
func FuzzClusteredLoad(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint16(700), uint8(0), uint8(3))
	f.Add([]byte{0, 9, 0, 9}, uint8(1), uint16(2100), uint8(130), uint8(1))
	f.Add([]byte{255, 128, 3}, uint8(5), uint16(129), uint8(1), uint8(2))
	f.Add([]byte{7, 8, 9, 1, 14, 200}, uint8(2), uint16(6*BlockRows+5), uint8(0), uint8(0))
	palette := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, 100}
	f.Fuzz(func(t *testing.T, data []byte, w uint8, n uint16, prefix, constCol uint8) {
		if len(data) == 0 {
			return
		}
		width := 1 + int(w)%5
		rows := int(n) % (3 * ChunkRows)
		tbl := Batch{Keys: make([]uint64, rows), Vals: make([]float64, rows*width), Width: width}
		for i := range rows {
			tbl.Keys[i] = uint64(i)
			for j := range width {
				b := data[(i*width+j)%len(data)]
				v := float64(int(b)*31+i*7) / 3
				switch {
				case j == int(constCol)%(width+1):
					v = palette[int(data[0])%len(palette)]
				case int(b)%16 < len(palette):
					v = palette[int(b)%16]
				}
				tbl.Vals[i*width+j] = v
			}
		}
		checkLoads(t, rand.New(rand.NewSource(int64(n))), width, tbl.Rows(), int(prefix))
	})
}
