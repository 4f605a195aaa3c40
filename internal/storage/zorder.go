package storage

import (
	"cmp"
	"math"
	"slices"
)

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

// zEntry is one row on the curve: its Morton key and its index in the
// caller's slice (the tie-break, and the way back to the row).
type zEntry struct {
	key uint64
	idx int32
}

// AppendClustered appends rows[first], rows[first+stride],
// rows[first+2*stride], ... in Z-order over their (at most zDims
// leading) value columns. It sorts a compact (key, index) slice and
// reads the rows in place: rows is neither copied nor reordered.
func (c *ColStore) AppendClustered(rows []Row, first, stride int) {
	order := zOrder(rows, first, stride)
	if len(order) == 0 {
		return
	}
	if c.width < 0 {
		c.adopt(len(rows[first].Vec))
	}
	c.keys = slices.Grow(c.keys, len(order))
	for j := range c.cols {
		c.cols[j] = slices.Grow(c.cols[j], len(order))
	}
	for _, e := range order {
		c.Append(rows[e.idx])
	}
}

// zOrder returns the strided subset of rows in clustered order.
func zOrder(rows []Row, first, stride int) []zEntry {
	if first >= len(rows) {
		return nil
	}
	dims := min(len(rows[first].Vec), zDims)
	// The subset's own finite bounds per curve column (v-v is 0 only for
	// a finite v), and the scale that maps them onto [0, 65535]. A column
	// with no two distinct finite values keeps scale 0.
	var lo, scale [zDims]float64
	for j := 0; j < dims; j++ {
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := first; i < len(rows); i += stride {
			if j >= len(rows[i].Vec) {
				continue
			}
			if v := rows[i].Vec[j]; v-v == 0 {
				mn, mx = min(mn, v), max(mx, v)
			}
		}
		lo[j] = mn
		if w := mx - mn; w > 0 && w-w == 0 {
			scale[j] = (1<<zBits - 1) / w
		}
	}
	order := make([]zEntry, 0, (len(rows)-first+stride-1)/stride)
	for i := first; i < len(rows); i += stride {
		var cell [zDims]uint64
		for j := 0; j < dims && j < len(rows[i].Vec); j++ {
			// +Inf lands in the top cell; -Inf, NaN and every value of a
			// scale-0 column (the product is 0 or NaN) in cell 0. The
			// conversion only ever sees (0, 65535].
			if f := (rows[i].Vec[j] - lo[j]) * scale[j]; f > 0 {
				cell[j] = uint64(min(f, 1<<zBits-1))
			}
		}
		order = append(order, zEntry{key: interleave(cell, dims), idx: int32(i)})
	}
	slices.SortFunc(order, func(a, b zEntry) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	return order
}

// interleave builds a row's Morton key from its per-column cells, top
// bits first and column 0 leading within each round of bits.
func interleave(cell [zDims]uint64, dims int) uint64 {
	var key uint64
	for b := zBits - 1; b >= 0; b-- {
		for j := 0; j < dims; j++ {
			key = key<<1 | cell[j]>>b&1
		}
	}
	return key
}
