package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
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
// (zorder.go): over the rows handed in, each of the first min(width of
// the first row, 4) columns is quantised on its finite min and max to
// cell = trunc(min((v-min) * (65535/(max-min)), 65535)) where that
// product is positive, else 0 (a short row's missing column too); the
// key takes the cells' bits from the top bit down, column 0 leading; a
// stable sort on the key keeps arrival order for ties. It shares no code
// with AppendClustered.
func refClustered(rows []Row) []Row {
	if len(rows) == 0 {
		return nil
	}
	dims := min(len(rows[0].Vec), 4)
	val := func(r Row, j int) float64 {
		if j < len(r.Vec) {
			return r.Vec[j]
		}
		return math.NaN()
	}
	keys := make([]uint64, len(rows))
	for j := 0; j < dims; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			if v := val(r, j); !math.IsNaN(v) && !math.IsInf(v, 0) {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		scale := 0.0
		if hi > lo && !math.IsInf(hi-lo, 0) {
			scale = 65535 / (hi - lo)
		}
		for i, r := range rows {
			var cell uint64
			if f := (val(r, j) - lo) * scale; f > 0 {
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
// each with the one-row-per-call store; prefix rows are appended before
// the clustered load, so it starts mid-block.
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
	prefix = min(prefix, len(rows))
	head, tail := rows[:prefix], rows[prefix:]
	for _, stride := range []int{1, 6} {
		for first := 0; first < stride; first++ {
			var dealt []Row
			for i := first; i < len(tail); i += stride {
				dealt = append(dealt, tail[i])
			}
			// A store without a width adopts its first row's, and
			// AppendClustered's first row is the first one it is dealt.
			adopted := width
			if adopted < 0 && len(head) > 0 {
				adopted = len(head[0].Vec)
			} else if adopted < 0 && len(dealt) > 0 {
				adopted = len(dealt[0].Vec)
			}
			want := rowByRow(adopted, append(append([]Row(nil), head...), refClustered(dealt)...))
			got := NewColStore(width)
			got.Append(head...)
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
// row land, it and the rest do not, and the store is poisoned.
func TestAppendWrongWidthStopsBatch(t *testing.T) {
	rows := loadRows(rand.New(rand.NewSource(2)), 300, 3, 0, 200)
	c := NewColStore(3)
	c.Append(rows...)
	if !c.Ragged() || c.Len() != 200 {
		t.Fatalf("ragged %v len %d, want ragged after 200 rows", c.Ragged(), c.Len())
	}
	c.Append(rows[:10]...)
	if c.Len() != 200 {
		t.Fatalf("a poisoned store took %d more rows", c.Len()-200)
	}
}

// FuzzClusteredLoad: whatever the values (the fuzzer's bytes index a
// palette with NaN, ±Inf, ±0 and ties), width, size, stride and prefix,
// batched and clustered loads equal the row-at-a-time ones.
func FuzzClusteredLoad(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint16(700), uint8(0))
	f.Add([]byte{0, 9, 0, 9}, uint8(1), uint16(2100), uint8(130))
	f.Add([]byte{255, 128, 3}, uint8(5), uint16(129), uint8(1))
	palette := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, 100}
	f.Fuzz(func(t *testing.T, data []byte, w uint8, n uint16, prefix uint8) {
		if len(data) == 0 {
			return
		}
		width := 1 + int(w)%5
		rows := make([]Row, int(n)%(3*ChunkRows))
		for i := range rows {
			vec := make([]float64, width)
			for j := range vec {
				b := data[(i*width+j)%len(data)]
				if int(b)%16 < len(palette) {
					vec[j] = palette[int(b)%16]
				} else {
					vec[j] = float64(int(b)*31+i*7) / 3
				}
			}
			rows[i] = Row{Key: uint64(i), Vec: vec}
		}
		checkLoads(t, rand.New(rand.NewSource(int64(n))), width, rows, int(prefix))
	})
}

// benchTable is n rows of three columns carved from one backing array,
// like workload.GaussianMixture's: two uniform coordinates on [0, 100)
// and a third linear in the first.
func benchTable(n int) []Row {
	rng := rand.New(rand.NewSource(1))
	flat := make([]float64, 3*n)
	rows := make([]Row, n)
	for i := range rows {
		vec := flat[3*i : 3*i+3 : 3*i+3]
		vec[0], vec[1] = rng.Float64()*100, rng.Float64()*100
		vec[2] = 2*vec[0] + 5 + rng.NormFloat64()
		rows[i] = Row{Key: uint64(i), Vec: vec}
	}
	return rows
}

// BenchmarkStoreLoad: building one store from a table of the named size,
// per loader. The stride-6 variant lays down one partition of six, as a
// member loading the table does. ns/row counts the rows loaded.
func BenchmarkStoreLoad(b *testing.B) {
	loaders := []struct {
		name   string
		stride int
		load   func(c *ColStore, rows []Row)
	}{
		{"AppendRowByRow", 1, func(c *ColStore, rows []Row) {
			for _, r := range rows {
				c.Append(r)
			}
		}},
		{"AppendBatch", 1, func(c *ColStore, rows []Row) { c.Append(rows...) }},
		{"ClusteredStride1", 1, func(c *ColStore, rows []Row) { c.AppendClustered(rows, 0, 1) }},
		{"ClusteredStride6", 6, func(c *ColStore, rows []Row) { c.AppendClustered(rows, 0, 6) }},
	}
	for _, n := range []int{16_384, 166_667, 1_000_000} {
		rows := benchTable(n)
		for _, l := range loaders {
			b.Run(fmt.Sprintf("%s/rows=%d", l.name, n), func(b *testing.B) {
				loaded := (n + l.stride - 1) / l.stride
				var spent time.Duration
				for i := 0; i < b.N; i++ {
					c := NewColStore(3)
					start := time.Now()
					l.load(c, rows)
					spent += time.Since(start)
					if c.Len() != loaded {
						b.Fatalf("loaded %d rows, want %d", c.Len(), loaded)
					}
				}
				b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N*loaded), "ns/row")
			})
		}
	}
}
