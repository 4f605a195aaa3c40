// Vectorized columnar execution: the batch kernels behind the exact
// path. Instead of walking []storage.Row one row at a time through
// Selection.Contains (a function call and a pointer chase per row), the
// kernels stream the partition's contiguous columnar projection in
// blocks of VecBlock rows through two phases:
//
//  1. Selection: a reusable per-block match-mask vector is filled
//     branchlessly — hyper-rectangles run one min/max pass per column
//     (each pass ANDs its verdict into the mask via a conditional move,
//     never a data-dependent branch), hyper-spheres accumulate squared
//     distances into a fused block accumulator and threshold it.
//  2. Aggregation: the aggregate's sufficient statistics fold over the
//     block under the mask, again branchlessly — non-matching rows
//     contribute an exact 0 through bit-masking — without ever
//     materialising a storage.Row.
//
// Branchlessness is the point: at mid selectivities a data-dependent
// branch mispredicts constantly, and measured on scalar Go codegen the
// branchy formulations run an order of magnitude slower than the
// mask-vector form (the E16 microbenchmarks document the end-to-end
// effect). SelectIndices exposes the selection phase alone for
// consumers that need row positions rather than an aggregate.
//
// Numerical frame: second-order moments (VAR/CORR/REGSLOPE) accumulate
// in a shifted frame — values are centred on a data-scale pivot (the
// view's first value of the aggregated column) before squaring — which
// keeps the partial sums at spread scale instead of mean² scale. Raw
// moments are reconstructed only at the mergeable-state boundary
// (PartialEvalView), where the distributed wire format requires them;
// EvalView and EvalTable finish directly in the shifted frame and stay
// accurate even when the mean dwarfs the spread. First-order sums
// accumulate raw and in row order, so COUNT, SUM and AVG are
// bit-identical to the row-at-a-time reference, which is retained as
// the correctness oracle (EvalRows/PartialEval). That holds for a scan
// of a whole view; PartialEvalPruned answers blocks wholly inside the
// selection from stored moments, which re-associates the sums (see
// evalViewPruned).
//
// Per-query scratch (the match mask and the spheres' distance
// accumulator) comes from a sync.Pool, so the hot path is
// allocation-free after warm-up.
package query

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/storage"
)

// VecBlock is the number of rows a selection kernel processes per
// block: large enough to amortise per-block overhead, small enough that
// a block's column segments, match mask and distance accumulator all
// stay in L1.
const VecBlock = 1024

// vecScratch is the pooled per-query scratch buffer.
type vecScratch struct {
	mask []uint64  // per-row match mask for the current block (0 or ^0)
	d2   []float64 // fused distance accumulator (hyper-sphere kernel)
}

var vecPool = sync.Pool{New: func() any {
	return &vecScratch{
		mask: make([]uint64, VecBlock),
		d2:   make([]float64, VecBlock),
	}
}}

// b2u converts a comparison verdict to 0/1 without a branch: the
// compiler lowers this pattern to a flag materialisation (SETcc), which
// is the cornerstone of every kernel below — a data-dependent branch at
// mid selectivity mispredicts constantly and measures an order of
// magnitude slower than the arithmetic form.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// rectBlockMask fills the match mask for rows [start, end) of a
// hyper-rectangle selection: the leading dimension's pass sets the
// mask, every further dimension ANDs its verdict in, branchlessly. The
// verdict uses the reference's exclusion form (`v < lo || v > hi`
// rejects), so NaN coordinates — which fail every comparison — match
// exactly as they do in Selection.Contains.
func rectBlockMask(s Selection, cols [][]float64, start, end int, mask []uint64) []uint64 {
	mask = mask[:end-start]
	c0 := cols[0][start:end]
	lo0, hi0 := s.Los[0], s.His[0]
	for i, v := range c0 {
		mask[i] = (b2u(v < lo0) | b2u(v > hi0)) - 1
	}
	for j := 1; j < len(s.Los); j++ {
		cj := cols[j][start:end]
		lo, hi := s.Los[j], s.His[j]
		for i, w := range cj {
			mask[i] &= (b2u(w < lo) | b2u(w > hi)) - 1
		}
	}
	return mask
}

// sphereBlockD2 accumulates squared distances for rows [start, end)
// into d2, one fused pass per dimension — the same per-row addition
// order as Selection.Contains, so membership decisions are
// bit-identical to the reference.
func sphereBlockD2(s Selection, cols [][]float64, start, end int, d2 []float64) []float64 {
	d2 = d2[:end-start]
	for i := range d2 {
		d2[i] = 0
	}
	for j, c := range s.Center {
		cj := cols[j][start:end]
		for i, w := range cj {
			d := w - c
			d2[i] += d * d
		}
	}
	return d2
}

// sphereBlockMask thresholds the distance accumulator into the mask.
func sphereBlockMask(s Selection, cols [][]float64, start, end int, sc *vecScratch) []uint64 {
	d2 := sphereBlockD2(s, cols, start, end, sc.d2)
	r2 := s.Radius * s.Radius
	mask := sc.mask[:len(d2)]
	for i, dv := range d2 {
		mask[i] = -b2u(dv <= r2)
	}
	return mask
}

// blockMask dispatches to the rectangle or sphere mask kernel.
func blockMask(s Selection, cols [][]float64, start, end int, sc *vecScratch) []uint64 {
	if s.IsRadius() {
		return sphereBlockMask(s, cols, start, end, sc)
	}
	return rectBlockMask(s, cols, start, end, sc.mask)
}

// SelectIndices returns the indices of every row in view matching s, in
// row order — the selection phase alone, for callers that need row
// positions (e.g. sample scans materialising matches) rather than an
// aggregate.
func SelectIndices(s Selection, view storage.ColumnView) []int {
	if s.Dims() > view.Width() || view.Len() == 0 {
		return nil
	}
	if !s.IsRadius() && len(s.Los) == 0 {
		out := make([]int, view.Len())
		for i := range out {
			out[i] = i
		}
		return out
	}
	sc := vecPool.Get().(*vecScratch)
	defer vecPool.Put(sc)
	var out []int
	n := view.Len()
	for start := 0; start < n; start += VecBlock {
		end := start + VecBlock
		if end > n {
			end = n
		}
		mask := blockMask(s, view.Cols, start, end, sc)
		for i, m := range mask {
			if m != 0 {
				out = append(out, start+i)
			}
		}
	}
	return out
}

// vecState is the shifted-frame sufficient statistic the batch kernels
// accumulate: n and the raw first-order sums (row order, bit-compatible
// with the reference), plus centred second-order sums at spread scale.
type vecState struct {
	n        int64
	sum      float64 // raw Σx (column Col), row order
	sumY     float64 // raw Σy (column Col2), row order
	cx, cy   float64 // shifts: first selected values of Col / Col2
	seeded   bool
	sx, sy   float64 // Σ(x-cx), Σ(y-cy)
	sxx, syy float64 // Σ(x-cx)², Σ(y-cy)²
	sxy      float64 // Σ(x-cx)(y-cy)
}

// aggCols resolves the aggregate's columns (nil for out-of-range: the
// reference reads 0 there).
func aggCols(q Query, cols [][]float64) (colX, colY []float64) {
	if q.Col >= 0 && q.Col < len(cols) {
		colX = cols[q.Col]
	}
	if q.Col2 >= 0 && q.Col2 < len(cols) {
		colY = cols[q.Col2]
	}
	return colX, colY
}

// maskedCount counts the set lanes of a block mask.
func maskedCount(mask []uint64) int64 {
	var n int64
	for _, m := range mask {
		n += int64(m & 1)
	}
	return n
}

// maskTo0 passes v through for matched lanes and yields an exact +0 for
// unmatched ones (bit-masking, so a NaN or Inf in an unselected row
// cannot pollute the accumulators).
func maskTo0(v float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(v) & m)
}

// maskedFold1 folds one block of the single-column moment state under
// the mask: the raw sum adds v or an exact +0 per lane (so SUM stays
// bit-identical to the reference, which skips non-matching rows), the
// shifted sums add (v - pivot) or +0.
func (st *vecState) maskedFold1(colX []float64, start int, mask []uint64) {
	if colX == nil {
		st.n += maskedCount(mask)
		return
	}
	blk := colX[start : start+len(mask)]
	cx := st.cx
	var n int64
	sum, sx, sxx := st.sum, st.sx, st.sxx
	for i, m := range mask {
		x := blk[i]
		xm := maskTo0(x, m)
		d := maskTo0(x-cx, m)
		sum += xm
		sx += d
		sxx += d * d
		n += int64(m & 1)
	}
	st.n += n
	st.sum, st.sx, st.sxx = sum, sx, sxx
}

// maskedFold2 folds one block of the two-column moment state under the
// mask. A nil column reads 0 (reference colVal semantics), handled on
// the rare scalar path.
func (st *vecState) maskedFold2(colX, colY []float64, start int, mask []uint64) {
	if colX == nil || colY == nil {
		for i, m := range mask {
			if m != 0 {
				var x, y float64
				if colX != nil {
					x = colX[start+i]
				}
				if colY != nil {
					y = colY[start+i]
				}
				st.n++
				st.foldXY(x, y)
			}
		}
		return
	}
	blkX := colX[start : start+len(mask)]
	blkY := colY[start : start+len(mask)]
	cx, cy := st.cx, st.cy
	var n int64
	sumX, sumY := st.sum, st.sumY
	sx, sy, sxx, syy, sxy := st.sx, st.sy, st.sxx, st.syy, st.sxy
	for i, m := range mask {
		x, y := blkX[i], blkY[i]
		sumX += maskTo0(x, m)
		sumY += maskTo0(y, m)
		dx := maskTo0(x-cx, m)
		dy := maskTo0(y-cy, m)
		sx += dx
		sy += dy
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
		n += int64(m & 1)
	}
	st.n += n
	st.sum, st.sumY = sumX, sumY
	st.sx, st.sy, st.sxx, st.syy, st.sxy = sx, sy, sxx, syy, sxy
}

// evalAll handles the degenerate zero-dimension rectangle (it matches
// every row, per the reference Contains semantics).
func evalAll(q *Query, colX, colY []float64, lo, hi int, st *vecState) {
	for i := lo; i < hi; i++ {
		switch q.Aggregate {
		case Sum, Avg, Var:
			st.n++
			st.foldXY(colValVec2(colX, i), 0)
		case Corr, RegSlope:
			st.n++
			st.foldXY(colValVec2(colX, i), colValVec2(colY, i))
		default:
			st.n++
		}
	}
}

func colValVec2(col []float64, i int) float64 {
	if col == nil {
		return 0
	}
	return col[i]
}

func (st *vecState) foldXY(x, y float64) {
	if !st.seeded {
		st.cx, st.cy = x, y
		st.seeded = true
	}
	st.sum += x
	st.sumY += y
	dx, dy := x-st.cx, y-st.cy
	st.sx += dx
	st.sy += dy
	st.sxx += dx * dx
	st.syy += dy * dy
	st.sxy += dx * dy
}

// rebase re-centres the state onto new shifts. The delta between two
// data-drawn shifts is spread-scale, so re-centring loses no precision
// — this is what lets per-partition states merge without ever leaving
// the shifted frame.
func (st *vecState) rebase(cx, cy float64) {
	if !st.seeded {
		st.cx, st.cy = cx, cy
		st.seeded = true
		return
	}
	dx, dy := st.cx-cx, st.cy-cy
	nf := float64(st.n)
	st.sxx += dx * (2*st.sx + nf*dx)
	st.syy += dy * (2*st.sy + nf*dy)
	st.sxy += dx*st.sy + dy*st.sx + nf*dx*dy
	st.sx += nf * dx
	st.sy += nf * dy
	st.cx, st.cy = cx, cy
}

// mergeShifted folds b into st, staying in st's frame.
func (st *vecState) mergeShifted(b vecState) {
	if b.n == 0 {
		return
	}
	if !st.seeded {
		st.cx, st.cy = b.cx, b.cy
		st.seeded = b.seeded
	}
	b.rebase(st.cx, st.cy)
	st.n += b.n
	st.sum += b.sum
	st.sumY += b.sumY
	st.sx += b.sx
	st.sy += b.sy
	st.sxx += b.sxx
	st.syy += b.syy
	st.sxy += b.sxy
}

// encode reconstructs the raw-moment mergeable state (the 8-slot wire
// format of PartialEval) from the shifted frame. Reconstruction is one
// rounding at raw scale instead of one per row, so the encoded partial
// is at least as accurate as naive accumulation. Slots the aggregate's
// finish never consumes are zero (SUM/AVG carry no second moment: their
// kernels do not accumulate one).
func (st vecState) encode(q Query) []float64 {
	a := aggState{n: st.n}
	nf := float64(st.n)
	switch q.Aggregate {
	case Sum, Avg:
		a.sum = st.sum
	case Var:
		a.sum = st.sum
		a.sum2 = st.sxx + st.cx*(2*st.sx+nf*st.cx)
	case Corr, RegSlope:
		a.sx = st.sum
		a.sy = st.sumY
		a.sxx = st.sxx + st.cx*(2*st.sx+nf*st.cx)
		a.syy = st.syy + st.cy*(2*st.sy+nf*st.cy)
		a.sxy = st.sxy + st.cx*st.sy + st.cy*st.sx + nf*st.cx*st.cy
	}
	return a.encode()
}

// finishShifted produces the final Result directly from the shifted
// frame: variances and covariances come out of spread-scale sums with
// no catastrophic cancellation.
func finishShifted(q Query, st vecState) Result {
	res := Result{Support: st.n}
	if st.n == 0 {
		return res
	}
	nf := float64(st.n)
	switch q.Aggregate {
	case Count:
		res.Value = nf
	case Sum:
		res.Value = st.sum
	case Avg:
		res.Value = st.sum / nf
	case Var:
		m := st.sx / nf
		res.Value = clampNonNeg(st.sxx/nf - m*m)
	case Corr:
		num := nf*st.sxy - st.sx*st.sy
		den := math.Sqrt(clampNonNeg(nf*st.sxx-st.sx*st.sx)) *
			math.Sqrt(clampNonNeg(nf*st.syy-st.sy*st.sy))
		if den != 0 {
			res.Value = num / den
		}
	case RegSlope:
		den := nf*st.sxx - st.sx*st.sx
		if den > 0 {
			res.Value = (nf*st.sxy - st.sx*st.sy) / den
		}
	}
	return res
}

// rectCount1/rectCount2 are the fully-fused single-pass kernels for the
// dominant selection shapes (1- and 2-dimensional rectangles): the
// predicate verdicts and the aggregate fold live in one loop, so
// nothing is stored or re-read between phases.
func rectCount1(c0 []float64, lo0, hi0 float64) int64 {
	var n int64
	for _, v := range c0 {
		n += int64((b2u(v < lo0) | b2u(v > hi0)) ^ 1)
	}
	return n
}

func rectCount2(c0, c1 []float64, lo0, hi0, lo1, hi1 float64) int64 {
	// Two-way unroll with independent accumulators: the verdict chains
	// of adjacent rows overlap instead of serialising on one counter.
	var n0, n1 int64
	c1 = c1[:len(c0)]
	i := 0
	for ; i+1 < len(c0); i += 2 {
		v0, v1 := c0[i], c0[i+1]
		w0, w1 := c1[i], c1[i+1]
		n0 += int64((b2u(v0 < lo0) | b2u(v0 > hi0) | b2u(w0 < lo1) | b2u(w0 > hi1)) ^ 1)
		n1 += int64((b2u(v1 < lo0) | b2u(v1 > hi0) | b2u(w1 < lo1) | b2u(w1 > hi1)) ^ 1)
	}
	for ; i < len(c0); i++ {
		v, w := c0[i], c1[i]
		n0 += int64((b2u(v < lo0) | b2u(v > hi0) | b2u(w < lo1) | b2u(w > hi1)) ^ 1)
	}
	return n0 + n1
}

// rectSum runs the fused rectangle kernel for SUM/AVG, which need only
// the count and the raw first-order sum — no second moments, so the
// per-row work is a mask, one masked add and a lane count. The value
// column is read through its bit view, so the lane masking is pure
// integer arithmetic and only the final add touches the FP unit.
func (st *vecState) rectSum(c0, c1, colX []float64, los, his []float64) {
	lo0, hi0 := los[0], his[0]
	var n int64
	sum := st.sum
	cv := bitsView(colX[:len(c0)])
	if c1 == nil {
		for i, v := range c0 {
			m := (b2u(v < lo0) | b2u(v > hi0)) - 1
			sum += math.Float64frombits(cv[i] & m)
			n += int64(m & 1)
		}
	} else {
		lo1, hi1 := los[1], his[1]
		c1 = c1[:len(c0)]
		// Unroll the predicate work two rows at a time; the sum chain
		// stays a single sequential accumulator so SUM remains
		// bit-identical to the row-order reference.
		var n1 int64
		i := 0
		for ; i+1 < len(c0); i += 2 {
			v0, v1 := c0[i], c0[i+1]
			w0, w1 := c1[i], c1[i+1]
			m0 := (b2u(v0 < lo0) | b2u(v0 > hi0) | b2u(w0 < lo1) | b2u(w0 > hi1)) - 1
			m1 := (b2u(v1 < lo0) | b2u(v1 > hi0) | b2u(w1 < lo1) | b2u(w1 > hi1)) - 1
			sum += math.Float64frombits(cv[i] & m0)
			sum += math.Float64frombits(cv[i+1] & m1)
			n += int64(m0 & 1)
			n1 += int64(m1 & 1)
		}
		for ; i < len(c0); i++ {
			v, w := c0[i], c1[i]
			m := (b2u(v < lo0) | b2u(v > hi0) | b2u(w < lo1) | b2u(w > hi1)) - 1
			sum += math.Float64frombits(cv[i] & m)
			n += int64(m & 1)
		}
		n += n1
	}
	st.n += n
	st.sum = sum
}

// bitsView reinterprets a float64 column as its IEEE-754 bit pattern so
// mask application stays in the integer pipeline. Same element size and
// alignment; read-only use.
func bitsView(xs []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))
}

// rectFold1 runs the fused rectangle kernel for single-column moments
// over up to two selection dimensions (c1 nil for one).
func (st *vecState) rectFold1(c0, c1, colX []float64, los, his []float64) {
	lo0, hi0 := los[0], his[0]
	cx := st.cx
	var n int64
	sum, sx, sxx := st.sum, st.sx, st.sxx
	cv := colX[:len(c0)]
	if c1 == nil {
		for i, v := range c0 {
			m := (b2u(v < lo0) | b2u(v > hi0)) - 1
			x := cv[i]
			sum += maskTo0(x, m)
			d := maskTo0(x-cx, m)
			sx += d
			sxx += d * d
			n += int64(m & 1)
		}
	} else {
		lo1, hi1 := los[1], his[1]
		c1 = c1[:len(c0)]
		for i, v := range c0 {
			w := c1[i]
			m := (b2u(v < lo0) | b2u(v > hi0) | b2u(w < lo1) | b2u(w > hi1)) - 1
			x := cv[i]
			sum += maskTo0(x, m)
			d := maskTo0(x-cx, m)
			sx += d
			sxx += d * d
			n += int64(m & 1)
		}
	}
	st.n += n
	st.sum, st.sx, st.sxx = sum, sx, sxx
}

// rectFold2 runs the fused rectangle kernel for two-column moments over
// up to two selection dimensions.
func (st *vecState) rectFold2(c0, c1, colX, colY []float64, los, his []float64) {
	lo0, hi0 := los[0], his[0]
	cx, cy := st.cx, st.cy
	var n int64
	sumX, sumY := st.sum, st.sumY
	sx, sy, sxx, syy, sxy := st.sx, st.sy, st.sxx, st.syy, st.sxy
	cvX := colX[:len(c0)]
	cvY := colY[:len(c0)]
	var lo1, hi1 float64
	if c1 != nil {
		lo1, hi1 = los[1], his[1]
		c1 = c1[:len(c0)]
	}
	for i, v := range c0 {
		m := (b2u(v < lo0) | b2u(v > hi0)) - 1
		if c1 != nil {
			w := c1[i]
			m &= (b2u(w < lo1) | b2u(w > hi1)) - 1
		}
		x, y := cvX[i], cvY[i]
		sumX += maskTo0(x, m)
		sumY += maskTo0(y, m)
		dx := maskTo0(x-cx, m)
		dy := maskTo0(y-cy, m)
		sx += dx
		sy += dy
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
		n += int64(m & 1)
	}
	st.n += n
	st.sum, st.sumY = sumX, sumY
	st.sx, st.sy, st.sxx, st.syy, st.sxy = sx, sy, sxx, syy, sxy
}

// evalSphereFused folds the sphere kernel per block over rows [lo, hi):
// the distance accumulator is thresholded and consumed in the same pass.
func evalSphereFused(q *Query, cols [][]float64, lo, hi int, colX, colY []float64, st *vecState, sc *vecScratch) {
	r2 := q.Select.Radius * q.Select.Radius
	for start := lo; start < hi; start += VecBlock {
		end := min(start+VecBlock, hi)
		d2 := sphereBlockD2(q.Select, cols, start, end, sc.d2)
		switch q.Aggregate {
		case Sum, Avg:
			blk := colX[start:end]
			var n int64
			sum := st.sum
			for i, dv := range d2 {
				m := -b2u(dv <= r2)
				sum += maskTo0(blk[i], m)
				n += int64(m & 1)
			}
			st.n += n
			st.sum = sum
		case Var:
			blk := colX[start:end]
			cx := st.cx
			var n int64
			sum, sx, sxx := st.sum, st.sx, st.sxx
			for i, dv := range d2 {
				m := -b2u(dv <= r2)
				x := blk[i]
				sum += maskTo0(x, m)
				d := maskTo0(x-cx, m)
				sx += d
				sxx += d * d
				n += int64(m & 1)
			}
			st.n += n
			st.sum, st.sx, st.sxx = sum, sx, sxx
		case Corr, RegSlope:
			blkX := colX[start:end]
			blkY := colY[start:end]
			cx, cy := st.cx, st.cy
			var n int64
			sumX, sumY := st.sum, st.sumY
			sx, sy, sxx, syy, sxy := st.sx, st.sy, st.sxx, st.syy, st.sxy
			for i, dv := range d2 {
				m := -b2u(dv <= r2)
				x, y := blkX[i], blkY[i]
				sumX += maskTo0(x, m)
				sumY += maskTo0(y, m)
				dx := maskTo0(x-cx, m)
				dy := maskTo0(y-cy, m)
				sx += dx
				sy += dy
				sxx += dx * dx
				syy += dy * dy
				sxy += dx * dy
				n += int64(m & 1)
			}
			st.n += n
			st.sum, st.sumY = sumX, sumY
			st.sx, st.sy, st.sxx, st.syy, st.sxy = sx, sy, sxx, syy, sxy
		default:
			var n int64
			for _, dv := range d2 {
				n += int64(b2u(dv <= r2))
			}
			st.n += n
		}
	}
}

// evalBlocks is the generic two-phase path (any dimensionality, any
// degenerate column configuration) over rows [lo, hi): fill the block's
// match mask, then fold the aggregates under it.
func evalBlocks(q *Query, cols [][]float64, lo, hi int, colX, colY []float64, st *vecState, sc *vecScratch) {
	for start := lo; start < hi; start += VecBlock {
		end := min(start+VecBlock, hi)
		mask := blockMask(q.Select, cols, start, end, sc)
		switch q.Aggregate {
		case Sum, Avg, Var:
			st.maskedFold1(colX, start, mask)
		case Corr, RegSlope:
			st.maskedFold2(colX, colY, start, mask)
		default:
			st.n += maskedCount(mask)
		}
	}
}

// seedView starts the state of a scan over view: zero, with the
// data-scale pivots of the shifted frame taken from the view's first
// values. Any value at the column's scale works; taking row 0 keeps the
// kernels free of a seeding branch. ok is false when there is nothing to
// scan (an empty view, or a selection wider than the rows).
func seedView(q Query, view storage.ColumnView) (st vecState, colX, colY []float64, ok bool) {
	if view.Len() == 0 || q.Select.Dims() > view.Width() {
		return st, nil, nil, false
	}
	colX, colY = aggCols(q, view.Cols)
	if colX != nil {
		st.cx = colX[0]
		st.seeded = true
	}
	if colY != nil {
		st.cy = colY[0]
	}
	return st, colX, colY, true
}

// evalRange folds rows [lo, hi) of cols into st, picking the fully-fused
// specialisation when the query has the common shape and falling back to
// the generic two-phase block path otherwise. Every kernel carries st's
// accumulators forward in row order and adds an exact +0 for a row that
// does not match, so folding two ranges one after the other leaves the
// very bits that folding the rows between them as well would, as long as
// none of those rows matches. sc is the scan's scratch: one per scan, not
// one per range, since a pruned scan folds hundreds of short ranges.
func evalRange(q *Query, cols [][]float64, colX, colY []float64, lo, hi int, st *vecState, sc *vecScratch) {
	s := &q.Select
	if !s.IsRadius() && len(s.Los) == 0 {
		evalAll(q, colX, colY, lo, hi, st)
		return
	}

	// Fast paths: fused single-pass kernels for the common shapes.
	if s.IsRadius() {
		fusedOK := true
		switch q.Aggregate {
		case Sum, Avg, Var:
			fusedOK = colX != nil
		case Corr, RegSlope:
			fusedOK = colX != nil && colY != nil
		}
		if fusedOK {
			evalSphereFused(q, cols, lo, hi, colX, colY, st, sc)
			return
		}
	} else if d := len(s.Los); d <= 2 {
		c0 := cols[0][lo:hi]
		var c1 []float64
		if d == 2 {
			c1 = cols[1][lo:hi]
		}
		switch q.Aggregate {
		case Count:
			if d == 1 {
				st.n += rectCount1(c0, s.Los[0], s.His[0])
			} else {
				st.n += rectCount2(c0, c1, s.Los[0], s.His[0], s.Los[1], s.His[1])
			}
			return
		case Sum, Avg:
			if colX != nil {
				st.rectSum(c0, c1, colX[lo:hi], s.Los, s.His)
				return
			}
		case Var:
			if colX != nil {
				st.rectFold1(c0, c1, colX[lo:hi], s.Los, s.His)
				return
			}
		case Corr, RegSlope:
			if colX != nil && colY != nil {
				st.rectFold2(c0, c1, colX[lo:hi], colY[lo:hi], s.Los, s.His)
				return
			}
		}
	}
	evalBlocks(q, cols, lo, hi, colX, colY, st, sc)
}

// evalView runs the kernel pipeline over one whole columnar view.
func evalView(q Query, view storage.ColumnView) vecState {
	st, colX, colY, ok := seedView(q, view)
	if ok {
		sc := vecPool.Get().(*vecScratch)
		defer vecPool.Put(sc)
		evalRange(&q, view.Cols, colX, colY, 0, view.Len(), &st, sc)
	}
	return st
}

// boxClass places a box of rows against a selection.
type boxClass uint8

const (
	boxStraddles boxClass = iota // some rows may match and some may not
	boxMiss                      // no row inside the box matches
	boxInside                    // every row inside the box matches
)

// classifyBox places the box [mins, maxs] against s (s.Dims() columns of
// it). The verdict is about Selection.Contains as the kernels compute it
// in floating point, not about the real-number geometry, and it holds
// for every row whose coordinates are finite and inside the box; a box
// over NaN rows must not be classified. A bound or centre that is NaN
// makes every test false, so such a selection straddles everything.
//
// Rectangle: a row is rejected iff v < lo or v > hi on some column, and
// mins[j] <= v <= maxs[j], so comparing the box's corners decides both
// ways. Sphere: a row's d² is Σ_j fl(fl(v_j−c_j)²), added in column
// order from 0. Rounding is monotone, so per column the row's term lies
// between the box's nearest and farthest term, and two sums of the same
// length added in the same order keep that order (a nearest term of 0 is
// left out below; adding it changes nothing): near <= d² <= far for every
// row, with near and far accumulated exactly as sphereBlockD2
// accumulates d².
func classifyBox(s *Selection, mins, maxs []float64) boxClass {
	if s.IsRadius() {
		var near, far float64
		for j, c := range s.Center {
			lo, hi := mins[j]-c, maxs[j]-c
			if lo > 0 {
				near += lo * lo
			} else if hi < 0 {
				near += hi * hi
			}
			f := -lo
			if hi > f {
				f = hi
			}
			far += f * f
		}
		r2 := s.Radius * s.Radius
		switch {
		case near > r2:
			return boxMiss
		case far <= r2:
			return boxInside
		}
		return boxStraddles
	}
	inside := true
	for j, lo := range s.Los {
		hi := s.His[j]
		if hi < mins[j] || lo > maxs[j] {
			return boxMiss
		}
		inside = inside && lo <= mins[j] && maxs[j] <= hi
	}
	if inside {
		return boxInside
	}
	return boxStraddles
}

// summaryFold says how an inside block's moment record folds into the
// state of q over a view of width w: which record slots feed which
// accumulators. ok is false when q's aggregate columns are out of range
// (the kernels read 0 there, the summaries hold nothing for it), and
// inside blocks are then streamed like any other.
type summaryFold struct {
	agg                    Agg
	stride                 int
	px, sumX, devX, xx     int
	py, sumY, devY, yy, xy int
}

func newSummaryFold(q Query, w int) (f summaryFold, ok bool) {
	f = summaryFold{agg: q.Aggregate, stride: storage.MomentStride(w)}
	x, y := q.Col, q.Col2
	switch q.Aggregate {
	case Sum, Avg, Var:
		y = x
	case Corr, RegSlope:
	default:
		return f, true
	}
	if x < 0 || x >= w || y < 0 || y >= w {
		return f, false
	}
	f.px, f.sumX, f.devX, f.xx = x, w+x, 2*w+x, 3*w+storage.CrossOffset(w, x, x)
	f.py, f.sumY, f.devY, f.yy = y, w+y, 2*w+y, 3*w+storage.CrossOffset(w, y, y)
	f.xy = 3*w + storage.CrossOffset(w, x, y)
	return f, true
}

// fold adds full block b of the view, every row of it selected, to st
// from the block's moment record instead of its rows.
func (f summaryFold) fold(st *vecState, moments []float64, b int) {
	rec := moments[b*f.stride : (b+1)*f.stride]
	switch f.agg {
	case Sum, Avg:
		st.n += storage.BlockRows
		st.sum += rec[f.sumX]
	case Var:
		// cy: st.cy keeps the unused second-column frame where it is.
		st.mergeShifted(vecState{n: storage.BlockRows, seeded: true,
			sum: rec[f.sumX], cx: rec[f.px], cy: st.cy, sx: rec[f.devX], sxx: rec[f.xx]})
	case Corr, RegSlope:
		st.mergeShifted(vecState{n: storage.BlockRows, seeded: true,
			sum: rec[f.sumX], sumY: rec[f.sumY], cx: rec[f.px], cy: rec[f.py],
			sx: rec[f.devX], sy: rec[f.devY], sxx: rec[f.xx], syy: rec[f.yy], sxy: rec[f.xy]})
	default:
		st.n += storage.BlockRows
	}
}

// evalViewPruned is evalView that streams only the rows on the
// selection's boundary. It walks the view's summaries two levels deep:
// a full chunk whose zone entry cannot meet the selection is skipped
// whole; in a chunk that can (and in the full blocks past the last full
// chunk) each clean block is classified, a miss is skipped, an inside
// block is folded from its moment record, and what straddles — with
// every dirty block and the rows past the last full block — streams
// through the kernels in maximal runs. ONE state, seeded like evalView's,
// is carried through runs and folds in row order, so the result is a
// pure function of the view: COUNT is exact, the sums re-associate at
// block granularity against evalView's (DESIGN.md, "Clustered base and
// chunk zone entries", states the bound). A view without block
// summaries is pruned by chunk only, one without chunk entries either is
// one run. The returns after the state are the rows streamed and the
// rows answered from summaries.
func evalViewPruned(q Query, view storage.ColumnView) (st vecState, scanned, summarised int64) {
	st, colX, colY, ok := seedView(q, view)
	if !ok {
		return st, 0, 0
	}
	s, w := &q.Select, view.Width()
	fold, foldOK := newSummaryFold(q, w)
	sc := vecPool.Get().(*vecScratch)
	defer vecPool.Put(sc)

	lo := 0 // start of the current run of rows to stream
	// skipTo ends the current run at `from`, streaming it, and starts the
	// next one at `to`: rows [from, to) are not streamed.
	skipTo := func(from, to int) {
		if lo < from {
			evalRange(&q, view.Cols, colX, colY, lo, from, &st, sc)
			scanned += int64(from - lo)
		}
		lo = to
	}
	blocks := func(from, to int) {
		for b, to := from, min(to, view.FullBlocks()); b < to; b++ {
			if view.BlockDirty[b] {
				continue
			}
			switch classifyBox(s, view.BlockMins[b*w:(b+1)*w], view.BlockMaxs[b*w:(b+1)*w]) {
			case boxMiss:
				skipTo(b*storage.BlockRows, (b+1)*storage.BlockRows)
			case boxInside:
				if foldOK {
					skipTo(b*storage.BlockRows, (b+1)*storage.BlockRows)
					fold.fold(&st, view.BlockMoments, b)
					summarised += storage.BlockRows
				}
			}
		}
	}
	const perChunk = storage.ChunkRows / storage.BlockRows
	full := view.FullChunks()
	for c := 0; c < full; c++ {
		if ZoneCanMatch(*s, view.ChunkZone(c)) {
			blocks(c*perChunk, (c+1)*perChunk)
		} else {
			skipTo(c*storage.ChunkRows, (c+1)*storage.ChunkRows)
		}
	}
	blocks(full*perChunk, view.FullBlocks())
	skipTo(view.Len(), view.Len())
	return st, scanned, summarised
}

// EvalView computes q's exact answer over one columnar view with the
// vectorized kernels. COUNT/SUM/AVG are bit-identical to EvalRows over
// the same rows; VAR/CORR/REGSLOPE finish in the shifted frame and are
// numerically stronger than the row-at-a-time reference on
// mean-dominated data.
func EvalView(q Query, view storage.ColumnView) Result {
	return finishShifted(q, evalView(q, view))
}

// PartialEvalView computes the node-local mergeable aggregate state for
// q over a columnar view — the vectorized counterpart of PartialEval,
// producing the same 8-slot encoding so partials from vectorized and
// row-at-a-time nodes merge freely.
func PartialEvalView(q Query, view storage.ColumnView) []float64 {
	return evalView(q, view).encode(q)
}

// PartialEvalPruned is PartialEvalView answered from the view's chunk
// entries and block summaries wherever they decide: rows the selection
// cannot reach are skipped, blocks wholly inside it are folded from
// their moments, and only the rest stream through the kernels. The count
// is PartialEvalView's exactly; the sums agree with it to rounding (they
// re-associate at block granularity), and equal views give equal bits.
// The returns after the state are the rows streamed and the rows
// answered from summaries.
func PartialEvalPruned(q Query, view storage.ColumnView) (partial []float64, scanned, summarised int64) {
	st, scanned, summarised := evalViewPruned(q, view)
	return st.encode(q), scanned, summarised
}

// ZeroPartial returns the mergeable state of an empty row set (what a
// zone-pruned partition contributes).
func ZeroPartial() []float64 { return aggState{}.encode() }

// ZoneCanMatch reports whether a partition with the given zone map can
// hold rows matching s. Empty partitions never match; partitions with
// unknown bounds (nil Mins) always might.
func ZoneCanMatch(s Selection, zm storage.ZoneMap) bool {
	if zm.Rows == 0 {
		return false
	}
	if zm.Mins == nil {
		return true
	}
	if s.Dims() > len(zm.Mins) {
		// Every row is narrower than the selection: nothing can match.
		return false
	}
	return classifyBox(&s, zm.Mins, zm.Maxs) != boxMiss
}

// Prune partitions t's zone maps against sel: it returns the partitions
// whose zone maps (and, for range-partitioned tables, partition bounds
// — subsumed by the zone maps, which bound the actual data) can
// intersect the selection, plus how many were skipped. The zone test
// runs against live bounds under the table's read lock (ZoneScan), so
// the only allocation is the candidate list itself.
func Prune(t *storage.Table, sel Selection) (candidates []int, pruned int) {
	candidates = make([]int, 0, t.Partitions())
	t.ZoneScan(func(p int, zm storage.ZoneMap) {
		if ZoneCanMatch(sel, zm) {
			candidates = append(candidates, p)
		} else {
			pruned++
		}
	})
	return candidates, pruned
}

// PartialForPartition computes q's mergeable aggregate state over
// partition p of t: the columnar batch kernels when the projection is
// available, the row-at-a-time reference otherwise. It is THE fallback
// contract for table partials — callers that need raw mergeable states
// (e.g. the cohort executor) share it instead of reimplementing the
// try-columns-else-rows dance.
func PartialForPartition(q Query, t *storage.Table, p int) (partial []float64, rowsRead int64, err error) {
	view, _, err := t.ScanColumns(p)
	if err == nil {
		return PartialEvalView(q, view), int64(view.Len()), nil
	}
	if !errors.Is(err, storage.ErrNoColumns) {
		return nil, 0, err
	}
	rows, _, err := t.ScanPartition(p)
	if err != nil {
		return nil, 0, err
	}
	return PartialEval(q, rows), int64(len(rows)), nil
}

// TableScanStats reports what a vectorized table evaluation touched.
type TableScanStats struct {
	// RowsScanned is the number of rows the kernels actually streamed.
	RowsScanned int64
	// PartsScanned is the number of partitions evaluated.
	PartsScanned int
	// PartsPruned is the number of partitions zone maps skipped.
	PartsPruned int
}

// EvalTable computes q's exact answer over every partition of t through
// the vectorized path: zone maps prune non-intersecting partitions, the
// survivors stream through the batch kernels across up to GOMAXPROCS
// workers, and the per-partition states merge in partition order (the
// result is deterministic regardless of scheduling). Partitions without
// a columnar projection fall back to the row-at-a-time reference
// kernel.
func EvalTable(q Query, t *storage.Table) (Result, TableScanStats, error) {
	var stats TableScanStats
	if err := q.Validate(); err != nil {
		return Result{}, stats, err
	}
	if err := q.ValidateCols(t.Width()); err != nil {
		return Result{}, stats, err
	}
	parts, pruned := Prune(t, q.Select)
	stats.PartsPruned = pruned
	stats.PartsScanned = len(parts)
	if len(parts) == 0 {
		return finishShifted(q, vecState{}), stats, nil
	}

	states := make([]vecState, len(parts))
	rows := make([]int64, len(parts))
	errs := make([]error, len(parts))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(parts) {
		workers = len(parts)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(parts) {
					return
				}
				states[i], rows[i], errs[i] = evalPartition(q, t, parts[i])
			}
		}()
	}
	wg.Wait()

	var merged vecState
	for i := range parts {
		if errs[i] != nil {
			return Result{}, stats, errs[i]
		}
		merged.mergeShifted(states[i])
		stats.RowsScanned += rows[i]
	}
	return finishShifted(q, merged), stats, nil
}

// evalPartition evaluates one partition, preferring the columnar view
// and falling back to a row-at-a-time walk (still in the shifted frame)
// when the projection is unavailable.
func evalPartition(q Query, t *storage.Table, p int) (vecState, int64, error) {
	view, _, err := t.ScanColumns(p)
	if err == nil {
		return evalView(q, view), int64(view.Len()), nil
	}
	if !errors.Is(err, storage.ErrNoColumns) {
		return vecState{}, 0, err
	}
	rows, _, err := t.ScanPartition(p)
	if err != nil {
		return vecState{}, 0, err
	}
	var st vecState
	for _, r := range rows {
		if !q.Select.Contains(r.Vec) {
			continue
		}
		st.n++
		switch q.Aggregate {
		case Sum, Avg, Var:
			st.foldXY(colValVec(r.Vec, q.Col), 0)
		case Corr, RegSlope:
			st.foldXY(colValVec(r.Vec, q.Col), colValVec(r.Vec, q.Col2))
		}
	}
	return st, int64(len(rows)), nil
}

func colValVec(vec []float64, col int) float64 {
	if col < 0 || col >= len(vec) {
		return 0
	}
	return vec[col]
}
