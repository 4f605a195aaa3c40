package storage

import "math"

// Clustered layout. Rows dealt to a partition by key or round-robin
// arrive spread over the whole value range; left in arrival order every
// chunk of the partition spans that range too, and no chunk zone entry
// can ever rule a selection out. AppendClustered instead lays rows down
// along a Z-order (Morton) curve over the value columns: neighbours on
// the curve are neighbours in space, so a ChunkRows-row chunk covers a
// small box and a selective query meets few of them.
//
// The order is a pure function of the rows handed in — the key is
// quantised on those rows' own finite per-column min/max and ties keep
// arrival order — so two stores given the same rows hold the same bytes.

const (
	// zDims is how many leading value columns the curve interleaves.
	zDims = 4
	// zBits is the quantisation per column; zDims*zBits fills the key.
	zBits = 16
)

// AppendClustered appends rows[first], rows[first+stride],
// rows[first+2*stride], ... in Z-order over their (at most zDims
// leading) value columns; rows itself is neither reordered nor kept.
// It gathers the subset once into a flat row-major copy, computes the
// bounds and Morton keys from that copy, orders the copy with a stable
// radix sort on the keys (ties keep arrival order) and hands the
// ordered rows to Append.
func (c *ColStore) AppendClustered(rows []Row, first, stride int) {
	if first >= len(rows) {
		return
	}
	if c.width < 0 {
		c.adopt(len(rows[first].Vec))
	}
	c.Append(gather(rows, first, stride, c.width).sorted()...)
}

// dealt is the strided subset of a batch, gathered: keys[i] and the
// width values at vals[i*stride:] are the subset's i-th row. A row of
// the wrong width keeps its own vector in odd[i] (Append stops there);
// its slot holds the values the curve reads, NaN where it has none.
type dealt struct {
	keys                []uint64
	vals                []float64
	width, stride, dims int
	odd                 map[int][]float64
}

// gather copies rows[first], rows[first+stride], ... for a store of the
// given width. The curve reads the leading min(len(rows[first].Vec),
// zDims) columns, so the slots are wide enough for both.
func gather(rows []Row, first, stride, width int) *dealt {
	n := (len(rows) - first + stride - 1) / stride
	d := &dealt{width: width, dims: min(len(rows[first].Vec), zDims)}
	d.stride = max(width, d.dims)
	d.keys = make([]uint64, n)
	d.vals = make([]float64, n*d.stride)
	for i := range n {
		r := rows[first+i*stride]
		d.keys[i] = r.Key
		slot := d.vals[i*d.stride : (i+1)*d.stride]
		if len(r.Vec) == width && width == d.stride {
			copy(slot, r.Vec)
			continue
		}
		if len(r.Vec) != width {
			if d.odd == nil {
				d.odd = make(map[int][]float64)
			}
			d.odd[i] = r.Vec
		}
		for j := range slot {
			slot[j] = math.NaN()
			if j < len(r.Vec) {
				slot[j] = r.Vec[j]
			}
		}
	}
	return d
}

// sorted returns the gathered rows in clustered order, their vectors
// aliasing the flat copy.
func (d *dealt) sorted() []Row {
	order := radixSort(d.mortonKeys())
	out := make([]Row, len(order))
	for k, e := range order {
		i := int(e.idx)
		vec, odd := d.odd[i]
		if !odd {
			vec = d.vals[i*d.stride : i*d.stride+d.width : i*d.stride+d.width]
		}
		out[k] = Row{Key: d.keys[i], Vec: vec}
	}
	return out
}

// zEntry is one row on the curve: its Morton key and its index in the
// gathered subset (the tie-break, and the way back to the row).
type zEntry struct {
	key uint64
	idx int32
}

// mortonKeys quantises every gathered row onto the curve. A cell is the
// value's place between the subset's own finite per-column min and max,
// scaled onto [0, 65535]; a column with no two distinct finite values
// keeps scale 0.
func (d *dealt) mortonKeys() []zEntry {
	n, s, dims := len(d.keys), d.stride, d.dims
	var lo, scale [zDims]float64
	for j := range dims {
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := j; i < len(d.vals); i += s {
			// v-v is 0 only for a finite v.
			if v := d.vals[i]; v-v == 0 {
				mn, mx = min(mn, v), max(mx, v)
			}
		}
		lo[j] = mn
		if w := mx - mn; w > 0 && w-w == 0 {
			scale[j] = (1<<zBits - 1) / w
		}
	}
	spread := &spreadBits[dims]
	es := make([]zEntry, n)
	for i := range es {
		row := d.vals[i*s : i*s+dims]
		var key uint64
		for j, v := range row {
			// +Inf lands in the top cell; -Inf, NaN and every value of a
			// scale-0 column (the product is 0 or NaN) in cell 0. The
			// conversion only ever sees (0, 65535].
			var cell uint64
			if f := (v - lo[j]) * scale[j]; f > 0 {
				cell = uint64(min(f, 1<<zBits-1))
			}
			key |= (spread[cell&0xff] | spread[cell>>8]<<(8*dims)) << (dims - 1 - j)
		}
		es[i] = zEntry{key: key, idx: int32(i)}
	}
	return es
}

// spreadBits[d][b] is byte b with its bits d apart: bit i moves to bit
// i*d. Spreading every cell of a row this way and shifting cell j left
// by d-1-j interleaves them into the Morton key, top bits first and
// column 0 leading within each round of bits.
var spreadBits = func() (t [zDims + 1][256]uint64) {
	for d := 1; d <= zDims; d++ {
		for b := range 256 {
			for i := range 8 {
				t[d][b] |= uint64(b>>i&1) << (i * d)
			}
		}
	}
	return t
}()

// radixSort orders es by key with a least-significant-digit radix sort,
// one byte per pass. Every pass is stable, so entries with equal keys
// keep their order in es: by index, the arrival order. A pass whose
// byte is the same for every entry moves nothing and is skipped.
func radixSort(es []zEntry) []zEntry {
	if len(es) == 0 {
		return es
	}
	var counts [8][256]int
	for _, e := range es {
		for p := range counts {
			counts[p][byte(e.key>>(8*p))]++
		}
	}
	src, dst := es, make([]zEntry, len(es))
	for p := range counts {
		c := &counts[p]
		if c[byte(src[0].key>>(8*p))] == len(src) {
			continue
		}
		sum := 0
		for b, k := range c {
			c[b], sum = sum, sum+k
		}
		for _, e := range src {
			b := byte(e.key >> (8 * p))
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}
