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

// AppendClustered appends rows first, first+stride, first+2*stride, ...
// of t in Z-order over their (at most zDims leading) value columns; t
// itself is neither reordered nor kept. It copies the subset once into
// a compact table, taking the bounds in the same pass, computes the
// Morton keys from that copy, orders them with a stable radix sort (ties
// keep arrival order), and writes keys and columns in that order
// straight into the store before sealing it like any Append. A table
// whose width is not the store's poisons the store (Ragged), as a row of
// the wrong width does in Append.
func (c *ColStore) AppendClustered(t Batch, first, stride int) {
	if c.ragged || first >= t.Len() {
		return
	}
	if c.width < 0 {
		c.adopt(t.Width)
	}
	if t.Width != c.width {
		c.ragged = true
		return
	}
	sub, lo, hi := subset(t, first, stride)
	order := radixSort(mortonKeys(sub, lo, hi))
	at := c.grow(len(order))
	keys, cols := c.keys[at:], c.cols
	for k, e := range order {
		i := int(e.idx)
		keys[k] = sub.Keys[i]
		for j, v := range sub.Vec(i) {
			cols[j][at+k] = v
		}
	}
	c.seal(at)
}

// subset copies rows first, first+stride, ... of t into a compact table,
// in arrival order, and returns with it the finite min and max of each
// column the curve reads (+Inf and -Inf for a column with no finite
// value).
func subset(t Batch, first, stride int) (sub Batch, lo, hi [zDims]float64) {
	n, w := (t.Len()-first+stride-1)/stride, t.Width
	sub = Batch{Keys: make([]uint64, n), Vals: make([]float64, n*w), Width: w}
	dims := min(w, zDims)
	for j := range dims {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for i := range n {
		src := first + i*stride
		sub.Keys[i] = t.Keys[src]
		row := sub.Vec(i)
		copy(row, t.Vec(src))
		for j, v := range row[:dims] {
			// v-v is 0 only for a finite v.
			if v-v == 0 {
				lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
			}
		}
	}
	return sub, lo, hi
}

// zEntry is one row on the curve: its Morton key and its index in the
// subset (the tie-break, and the way back to the row).
type zEntry struct {
	key uint64
	idx int32
}

// mortonKeys quantises every row of the subset onto the curve. A cell is
// the value's place between the column's finite min and max (lo, hi),
// scaled onto [0, 65535]; a column with no two distinct finite values
// keeps scale 0.
func mortonKeys(sub Batch, lo, hi [zDims]float64) []zEntry {
	dims := min(sub.Width, zDims)
	var scale [zDims]float64
	for j := range dims {
		if w := hi[j] - lo[j]; w > 0 && w-w == 0 {
			scale[j] = (1<<zBits - 1) / w
		}
	}
	spread := &spreadBits[dims]
	es := make([]zEntry, sub.Len())
	for i := range es {
		var key uint64
		for j, v := range sub.Vec(i)[:dims] {
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
