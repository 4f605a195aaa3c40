// Columnar projection: every partition maintains a struct-of-arrays
// mirror of its rows — one contiguous []float64 per column plus a key
// column — together with a zone map (per-column min/max and a row
// count) for the whole partition and one for every ChunkRows-row chunk
// of it. The projection is what the vectorized batch kernels in
// internal/query scan: contiguous columns turn the per-row pointer
// chase of []Row into sequential streams, and zone maps let the exact
// path skip partitions, and chunks of a partition, that cannot
// intersect a selection at all.
package storage

import "slices"

// ColumnView is a read-only, zero-copy columnar snapshot of one
// partition: Cols[j][i] is row i's value in column j, Keys[i] its key.
// The slices alias the partition's live column arrays with length and
// capacity pinned at snapshot time, so concurrent appends never become
// visible through an already-taken view and the view must not be
// mutated.
type ColumnView struct {
	// Keys holds the row keys.
	Keys []uint64
	// Cols holds one contiguous value array per table column.
	Cols [][]float64
	// ChunkMins and ChunkMaxs hold the zone entries of the view's FULL
	// chunks: chunk c covers rows [c*ChunkRows, (c+1)*ChunkRows) and its
	// bounds for column j sit at index c*Width()+j. A full chunk never
	// takes another row, so its entry is as immutable as the rows it
	// bounds; the trailing partial chunk has no entry here because its
	// entry still moves under appends.
	ChunkMins, ChunkMaxs []float64
	// ChunkNaN flags the full chunks that hold a NaN value, one flag per
	// chunk: min/max cannot bound NaN, so such a chunk is unbounded.
	ChunkNaN []bool
	// BlockMins and BlockMaxs hold the boxes of the view's FULL blocks,
	// laid out like the chunk entries: block b covers rows
	// [b*BlockRows, (b+1)*BlockRows). Every full chunk's blocks are full,
	// so FullBlocks() >= FullChunks()*ChunkRows/BlockRows.
	BlockMins, BlockMaxs []float64
	// BlockDirty flags the full blocks that hold a NaN or ±Inf value. Such
	// a block has no usable summary: its box may not bound it (NaN), and
	// its moments were not taken (an infinite pivot turns every finite
	// deviation into NaN).
	BlockDirty []bool
	// BlockMoments holds one moment record of MomentStride(Width()) values
	// per full block; see MomentStride for the layout.
	BlockMoments []float64
}

// ChunkRows is the zone-map granularity inside a partition, in rows. It
// equals the anti-entropy digest's chunk and the scan kernels' block.
const ChunkRows = 1024

// BlockRows is the summary granularity inside a chunk, in rows. Finer
// blocks leave fewer rows on a selection's boundary but cost
// proportionally more entries and box tests; DESIGN.md ("Clustered base
// and chunk zone entries") has the measurements behind 128.
const BlockRows = 128

// MomentStride is the length of one block's moment record for rows of
// width w. With p the block's first row, the record holds
//
//	[0, w)    p_j
//	[w, 2w)   Σ x_j
//	[2w, 3w)  Σ (x_j − p_j)
//	[3w, …)   Σ (x_j − p_j)(x_k − p_k) for j ≤ k, at 3w + CrossOffset(w, j, k)
//
// each sum over the block's BlockRows rows in row order: to rounding
// (the kernels add four lanes at a time), the shifted-frame state the
// batch kernels of internal/query produce over the block with every row
// selected and p as the pivot.
func MomentStride(w int) int { return 3*w + w*(w+1)/2 }

// CrossOffset is the position of the (j, k) product sum within the cross
// section of a moment record: the upper triangle, row-major, with the
// two columns taken in either order.
func CrossOffset(w, j, k int) int {
	if j > k {
		j, k = k, j
	}
	return j*w - j*(j-1)/2 + k - j
}

// FullChunks returns how many of the view's chunks carry a zone entry.
func (v ColumnView) FullChunks() int { return len(v.ChunkNaN) }

// FullBlocks returns how many of the view's blocks carry a summary.
func (v ColumnView) FullBlocks() int { return len(v.BlockDirty) }

// ChunkZone returns full chunk c's zone map. The slices alias the
// view's pinned entries. A chunk that holds a NaN reports nil bounds
// (never prunable), like ColStore.ZoneView for a whole store.
func (v ColumnView) ChunkZone(c int) ZoneMap {
	if v.ChunkNaN[c] {
		return ZoneMap{Rows: ChunkRows}
	}
	w := len(v.Cols)
	return ZoneMap{Mins: v.ChunkMins[c*w : (c+1)*w], Maxs: v.ChunkMaxs[c*w : (c+1)*w], Rows: ChunkRows}
}

// Len returns the number of rows in the view.
func (v ColumnView) Len() int { return len(v.Keys) }

// Width returns the number of value columns.
func (v ColumnView) Width() int { return len(v.Cols) }

// Row materialises row i as a freshly allocated attribute vector.
func (v ColumnView) Row(i int) []float64 {
	out := make([]float64, len(v.Cols))
	for j, c := range v.Cols {
		out[j] = c[i]
	}
	return out
}

// Rows materialises rows [from:] in insertion order, their vectors
// carved from one freshly allocated backing array.
func (v ColumnView) Rows(from int) []Row {
	n, w := v.Len(), len(v.Cols)
	if from >= n {
		return nil
	}
	out := make([]Row, 0, n-from)
	flat := make([]float64, (n-from)*w)
	for i := from; i < n; i++ {
		vec := flat[:w:w]
		flat = flat[w:]
		for j, c := range v.Cols {
			vec[j] = c[i]
		}
		out = append(out, Row{Key: v.Keys[i], Vec: vec})
	}
	return out
}

// ZoneMap summarises one partition for pruning: per-column minima and
// maxima plus the row count. Mins/Maxs are nil either when the
// partition is empty (Rows == 0: always prunable) or when the columnar
// projection is unavailable (Rows > 0: never prunable).
type ZoneMap struct {
	// Mins holds the per-column minimum over the partition's rows.
	Mins []float64
	// Maxs holds the per-column maximum.
	Maxs []float64
	// Rows is the partition's row count.
	Rows int
}

// ColStore is the append-only columnar mirror of one partition. It is
// not internally synchronised: the owning table (or distributed node)
// serialises appends and snapshots under its own lock, and views taken
// under that lock stay immutable afterwards because appends only ever
// write past every outstanding view's pinned length.
type ColStore struct {
	width int
	keys  []uint64
	cols  [][]float64
	mins  []float64
	maxs  []float64
	// ragged flips when a row whose width disagrees with the store
	// arrives; the projection is then unusable and readers fall back to
	// rows.
	ragged bool
	// unbounded flips when a NaN value arrives: NaN is invisible to
	// min/max (every comparison is false) yet matches any range under
	// the selection semantics, so the zone map must stop claiming it
	// bounds the data or pruning would skip matching rows.
	unbounded bool
	// Block summaries, one per FULL block, laid out as the ColumnView
	// fields of the same names. An entry is written once, when its block
	// fills, and never again, so all of them are shared with outstanding
	// views.
	blockMins, blockMaxs []float64
	blockDirty           []bool
	blockMoments         []float64
	// Chunk zone entries, one per chunk with at least one full block,
	// laid out as ColumnView.ChunkMins/ChunkMaxs/ChunkNaN: the union of
	// the chunk's block boxes. Only the last entry (the chunk still
	// filling) ever changes; entries of full chunks are shared with
	// outstanding views.
	chunkMins, chunkMaxs []float64
	chunkNaN             []bool
}

// NewColStore builds an empty store for rows of the given width. A
// negative width means "adopt the first appended row's width" (used by
// distributed nodes that learn the schema from data).
func NewColStore(width int) *ColStore {
	c := &ColStore{width: width}
	if width >= 0 {
		c.cols = make([][]float64, width)
	}
	return c
}

// adopt fixes the width of a store built with a negative one.
func (c *ColStore) adopt(width int) {
	c.width = width
	c.cols = make([][]float64, width)
}

// BuildColStore builds a store of the given width holding rows.
func BuildColStore(width int, rows []Row) *ColStore {
	c := NewColStore(width)
	c.Append(rows...)
	return c
}

// Append adds rows to the projection. It is the one way rows from
// ingest, replay, snapshots and repair enter a store: it grows the key
// and value columns once for the whole batch, writes the rows by index,
// then widens the zone map and summarises every block the batch
// completed (seal). A row of the wrong width poisons the store (Ragged)
// rather than corrupting the layout: the rows before it land, it and
// every row after it do not.
func (c *ColStore) Append(rows ...Row) {
	if len(rows) == 0 || c.ragged {
		return
	}
	if c.width < 0 {
		c.adopt(len(rows[0].Vec))
	}
	n := len(rows)
	for i, r := range rows {
		if len(r.Vec) != c.width {
			n = i
			break
		}
	}
	ragged := n < len(rows)
	at := c.grow(n)
	keys, cols := c.keys[at:], c.cols
	for i, r := range rows[:n] {
		keys[i] = r.Key
		for j, v := range r.Vec {
			cols[j][at+i] = v
		}
	}
	c.seal(at)
	c.ragged = ragged
}

// grow lengthens the key and value columns by n rows, reallocating only
// when their capacity is short, and returns the index of the first new
// row for the caller to write.
func (c *ColStore) grow(n int) (at int) {
	at = len(c.keys)
	c.keys = extend(c.keys, n)
	for j := range c.cols {
		c.cols[j] = extend(c.cols[j], n)
	}
	return at
}

// seal takes the rows written from index at on into the zone map, in
// row order (the first row ever written seeds the box), then summarises
// every block they completed.
func (c *ColStore) seal(at int) {
	n := len(c.keys)
	if at == n {
		return
	}
	if c.mins == nil {
		for _, col := range c.cols {
			c.mins = append(c.mins, col[at])
			c.maxs = append(c.maxs, col[at])
		}
	}
	for j, col := range c.cols {
		mn, mx := c.mins[j], c.maxs[j]
		for _, v := range col[at:] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			if v != v {
				c.unbounded = true
			}
		}
		c.mins[j], c.maxs[j] = mn, mx
	}
	for lo := len(c.blockDirty) * BlockRows; lo+BlockRows <= n; lo += BlockRows {
		c.summariseBlock(lo)
	}
}

// extend lengthens s by n elements, reallocating only when its capacity
// is short.
func extend[E any](s []E, n int) []E {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, n)
	}
	return s[:len(s)+n]
}

// widen grows the box [mins, maxs] to cover vec.
func widen(mins, maxs, vec []float64) {
	for j, v := range vec {
		if v < mins[j] {
			mins[j] = v
		}
		if v > maxs[j] {
			maxs[j] = v
		}
	}
}

// summariseBlock writes the summary of the full block whose first row is
// lo, one column at a time, and folds its box into the block's chunk
// entry; blocks are summarised in order, each once. Every sum runs in
// row order with the block's first row as the pivot, so a summary is a
// pure function of the resident order: two stores holding the same rows
// in the same order hold the same bits, however they were batched.
func (c *ColStore) summariseBlock(lo int) {
	w, b := c.width, lo/BlockRows
	c.blockMins = append(c.blockMins, make([]float64, w)...)
	c.blockMaxs = append(c.blockMaxs, make([]float64, w)...)
	c.blockMoments = append(c.blockMoments, make([]float64, MomentStride(w))...)
	mins, maxs := c.blockMins[b*w:], c.blockMaxs[b*w:]
	rec := c.blockMoments[b*MomentStride(w):]
	var nan, dirty bool
	for j, col := range c.cols {
		blk := col[lo : lo+BlockRows]
		p := blk[0]
		mn, mx := p, p
		var sum, dev float64
		for _, v := range blk {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			sum += v
			dev += v - p
			nan = nan || v != v
			dirty = dirty || v-v != 0 // NaN or ±Inf
		}
		mins[j], maxs[j] = mn, mx
		rec[j], rec[w+j], rec[2*w+j] = p, sum, dev
	}
	if !dirty {
		cross := rec[3*w:]
		for j := 0; j < w; j++ {
			xj := c.cols[j][lo : lo+BlockRows]
			for k := j; k < w; k++ {
				xk := c.cols[k][lo : lo+BlockRows]
				pj, pk := xj[0], xk[0]
				var s float64
				for i, x := range xj {
					s += (x - pj) * (xk[i] - pk)
				}
				cross[CrossOffset(w, j, k)] = s
			}
		}
	}
	c.blockDirty = append(c.blockDirty, dirty)

	// The chunk entry is the union of its blocks' boxes: widen it to
	// cover this block's two extreme corners.
	ch := lo / ChunkRows
	if ch == len(c.chunkNaN) {
		c.chunkMins = append(c.chunkMins, mins...)
		c.chunkMaxs = append(c.chunkMaxs, maxs...)
		c.chunkNaN = append(c.chunkNaN, nan)
		return
	}
	widen(c.chunkMins[ch*w:], c.chunkMaxs[ch*w:], mins)
	widen(c.chunkMins[ch*w:], c.chunkMaxs[ch*w:], maxs)
	c.chunkNaN[ch] = c.chunkNaN[ch] || nan
}

// Len returns the number of projected rows.
func (c *ColStore) Len() int { return len(c.keys) }

// Width returns the store's column count, or -1 when it is nil or has
// not yet adopted a width.
func (c *ColStore) Width() int {
	if c == nil || c.width < 0 {
		return -1
	}
	return c.width
}

// Bytes returns the capacity, in bytes, of the store's arrays: keys,
// value columns, zone map, block summaries and chunk entries. None of
// them holds a pointer, and none becomes garbage while the store is
// held, so this is the part of a heap the store keeps resident.
func (c *ColStore) Bytes() uint64 {
	if c == nil {
		return 0
	}
	words := cap(c.keys) + cap(c.mins) + cap(c.maxs) + cap(c.blockMins) + cap(c.blockMaxs) +
		cap(c.blockMoments) + cap(c.chunkMins) + cap(c.chunkMaxs)
	for _, col := range c.cols {
		words += cap(col)
	}
	return uint64(8*words + cap(c.blockDirty) + cap(c.chunkNaN))
}

// Ragged reports whether the projection was poisoned by a
// width-mismatched row.
func (c *ColStore) Ragged() bool { return c.ragged }

// View snapshots the store as a ColumnView. The second return is false
// when the projection is unusable. Length and capacity are pinned so
// later appends stay invisible and consumer appends cannot touch shared
// memory; the chunk entries are pinned at the full chunks, and the block
// summaries at the full blocks, for the same reason.
func (c *ColStore) View() (ColumnView, bool) {
	if c == nil || c.ragged {
		return ColumnView{}, false
	}
	n, w := len(c.keys), len(c.cols)
	full := n / ChunkRows
	fw := full * w
	blocks := n / BlockRows
	bw, bm := blocks*w, blocks*MomentStride(w)
	v := ColumnView{
		Keys:         c.keys[:n:n],
		Cols:         make([][]float64, w),
		ChunkMins:    c.chunkMins[:fw:fw],
		ChunkMaxs:    c.chunkMaxs[:fw:fw],
		ChunkNaN:     c.chunkNaN[:full:full],
		BlockMins:    c.blockMins[:bw:bw],
		BlockMaxs:    c.blockMaxs[:bw:bw],
		BlockDirty:   c.blockDirty[:blocks:blocks],
		BlockMoments: c.blockMoments[:bm:bm],
	}
	for j := range c.cols {
		v.Cols[j] = c.cols[j][:n:n]
	}
	return v, true
}

// Zone returns a copy of the store's zone map. For a nil or ragged
// store the caller must synthesise a ZoneMap from its own row count
// (nil bounds, Rows > 0) so pruning keeps the partition. A store that
// has absorbed a NaN value reports its row count with nil bounds for
// the same reason: min/max cannot bound NaN, and a NaN coordinate
// matches any range.
func (c *ColStore) Zone() ZoneMap {
	zm := c.ZoneView()
	zm.Mins = append([]float64(nil), zm.Mins...)
	zm.Maxs = append([]float64(nil), zm.Maxs...)
	return zm
}

// ZoneView is Zone without the copies: the returned slices alias the
// live min/max arrays, which appends mutate in place, so the caller
// must hold whatever lock serialises appends for as long as it reads
// the view. This is the allocation-free pruning primitive for hot
// paths; Zone returns stable copies instead.
func (c *ColStore) ZoneView() ZoneMap {
	if c == nil || c.ragged {
		return ZoneMap{}
	}
	if c.unbounded {
		return ZoneMap{Rows: len(c.keys)}
	}
	return ZoneMap{Mins: c.mins, Maxs: c.maxs, Rows: len(c.keys)}
}
