// Vectorized columnar execution: the batch kernels behind the exact
// path. Instead of walking []storage.Row one row at a time through
// Selection.Contains (a function call and a pointer chase per row), a
// scan streams the partition's contiguous columnar projection in runs of
// at most VecBlock rows through two phases:
//
//  1. Selection: a reusable per-run match-mask vector is filled
//     branchlessly, one lane per row: a hyper-rectangle tests every
//     selection column's min/max, a hyper-sphere adds up the squared
//     distance column by column and thresholds it.
//  2. Aggregation: the aggregate's sufficient statistics fold over the
//     run under the mask, again branchlessly — non-matching rows
//     contribute an exact 0 through bit-masking — without ever
//     materialising a storage.Row, and the matches are counted in the
//     same pass.
//
// There is ONE pipeline (evalRange), for every dimensionality, shape and
// aggregate; what varies is the tier of the six primitives it is written
// over (kernels.go): AVX2 assembly where the CPU has it, pure Go
// elsewhere, picked once at init, equal on the bits.
//
// Branchlessness is the point: at mid selectivities a data-dependent
// branch mispredicts constantly, and measured on scalar Go codegen the
// branchy formulations run an order of magnitude slower than the
// mask-vector form (BenchmarkVecKernels' row tier shows the contrast).
// SelectIndices exposes the selection phase alone for consumers that
// need row positions rather than an aggregate.
//
// Numerical frame: second-order moments (VAR/CORR/REGSLOPE) accumulate
// in a shifted frame — values are centred on a data-scale pivot (the
// first selected value of the aggregated column) before squaring — which
// keeps the partial sums at spread scale instead of mean² scale. Raw
// moments are reconstructed only at the mergeable-state boundary
// (PartialEvalView), where the distributed wire format requires them;
// EvalView finishes directly in the shifted frame and stays accurate
// even when the mean dwarfs the spread.
//
// What agrees with the row-at-a-time reference (EvalRows/PartialEval,
// retained as the correctness oracle): membership, and so COUNT and
// Support, exactly, NaN coordinates included. Sums are added four lanes
// at a time (the order is specified in kernels.go), not in row order, so
// SUM/AVG and the moments agree with the reference to rounding — within
// 1e-12 of the magnitude the sum's rounding error scales with — and not
// on the bits. The same bound holds between a whole-view scan and the
// pruned one, which re-associates at block granularity as well (see
// evalViewPruned). What does hold on the bits: equal views give equal
// answers, on either tier.
//
// Per-query scratch (the match mask) comes from a sync.Pool, so the hot
// path is allocation-free after warm-up.
package query

import (
	"math"
	"sync"

	"repro/internal/storage"
)

// VecBlock is the number of rows the kernels process per call: large
// enough to amortise per-call overhead, small enough that a run's column
// segments and match mask stay in L1.
const VecBlock = 1024

// vecScratch is the pooled per-query scratch buffer.
type vecScratch struct {
	mask []uint64 // per-row match mask for the current run (0 or ^0)
	run  runSums  // what the current run's fold returned
}

var vecPool = sync.Pool{New: func() any {
	return &vecScratch{mask: make([]uint64, VecBlock)}
}}

// zeroCol stands in for an aggregate column that is out of range: the
// reference reads 0 there. Read-only.
var zeroCol [VecBlock]float64

// runOf returns rows [start, end) of col, or as many zeros for a nil
// (out-of-range) column.
func runOf(col []float64, start, end int) []float64 {
	if col == nil {
		return zeroCol[:end-start]
	}
	return col[start:end]
}

// fillMask is the selection phase over rows [start, end), at most
// VecBlock of them: it returns the match mask, in sc. Membership is
// bit-identical to Selection.Contains; a selection of no dimensions
// matches every row, as it does there.
func fillMask(k *kernels, s *Selection, cols [][]float64, start, end int, sc *vecScratch) []uint64 {
	mask := sc.mask[:end-start]
	if s.Radius > 0 { // IsRadius, without its copy of the Selection
		k.sphereMask(mask, cols, start, s.Center, s.Radius*s.Radius)
	} else {
		k.rectMask(mask, cols, start, s.Los, s.His)
	}
	return mask
}

// SelectIndices returns the indices of every row in view matching s, in
// row order — the selection phase alone, for callers that need row
// positions (e.g. sample scans materialising matches) rather than an
// aggregate.
func SelectIndices(s Selection, view storage.ColumnView) []int {
	if s.Dims() > view.Width() || view.Len() == 0 {
		return nil
	}
	sc := vecPool.Get().(*vecScratch)
	defer vecPool.Put(sc)
	var out []int
	n := view.Len()
	for start := 0; start < n; start += VecBlock {
		mask := fillMask(kern, &s, view.Cols, start, min(start+VecBlock, n), sc)
		for i, m := range mask {
			if m != 0 {
				out = append(out, start+i)
			}
		}
	}
	return out
}

// vecState is the shifted-frame sufficient statistic the batch kernels
// accumulate: n and the raw first-order sums, plus centred second-order
// sums at spread scale.
type vecState struct {
	n        int64
	sum      float64 // raw Σx (column Col)
	sumY     float64 // raw Σy (column Col2)
	cx, cy   float64 // shifts: first selected values of Col / Col2
	seeded   bool
	sx, sy   float64 // Σ(x-cx), Σ(y-cy)
	sxx, syy float64 // Σ(x-cx)², Σ(y-cy)²
	sxy      float64 // Σ(x-cx)(y-cy)
}

// seedFrom takes the pivots of an unseeded state from the first matched
// row of a run, and reports whether the run has one. The pivot must be a
// selected value: an unselected row may hold anything (a NaN, an Inf, an
// outlier at 1e300), and a frame shifted by that destroys every sum it
// touches.
func (st *vecState) seedFrom(mask []uint64, x, y []float64) bool {
	for i, m := range mask {
		if m != 0 {
			st.cx, st.cy, st.seeded = x[i], y[i], true
			return true
		}
	}
	return false
}

// addRun adds one run's count and sums, taken in st's frame, to the
// state.
func (st *vecState) addRun(r *runSums) {
	st.n += r.n
	st.sum += r.sum
	st.sumY += r.sumY
	st.sx += r.sx
	st.sy += r.sy
	st.sxx += r.sxx
	st.syy += r.syy
	st.sxy += r.sxy
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

// scanCols resolves the columns q's aggregate reads from view (nil for
// one out of range: the reference reads 0 there). ok is false when there
// is nothing to scan: an empty view, or a selection wider than the rows.
func scanCols(q Query, view storage.ColumnView) (colX, colY []float64, ok bool) {
	if view.Len() == 0 || q.Select.Dims() > view.Width() {
		return nil, nil, false
	}
	if q.Col >= 0 && q.Col < view.Width() {
		colX = view.Cols[q.Col]
	}
	if q.Col2 >= 0 && q.Col2 < view.Width() {
		colY = view.Cols[q.Col2]
	}
	return colX, colY, true
}

// evalRange folds rows [lo, hi) of cols into st: the one pipeline. Each
// run of at most VecBlock rows gets its mask filled and is folded under
// it by the primitive the aggregate needs, which counts the matches as
// it goes; the run's count and sums are then added to st's. The pivots
// of the shifted frame are taken at the first match the scan meets
// (seedFrom); until there is one there is nothing to fold. sc is the
// scan's scratch: one per scan, not one per range, since a pruned scan
// folds hundreds of short ranges.
func evalRange(q *Query, cols [][]float64, colX, colY []float64, lo, hi int, st *vecState, sc *vecScratch) {
	k, r := kern, &sc.run
	for start := lo; start < hi; start += VecBlock {
		end := min(start+VecBlock, hi)
		mask := fillMask(k, &q.Select, cols, start, end, sc)
		*r = runSums{}
		switch q.Aggregate {
		case Sum, Avg:
			k.sum(mask, runOf(colX, start, end), r)
		case Var:
			x := runOf(colX, start, end)
			// Var carries no second column: its frame keeps cy at 0.
			if !st.seeded && !st.seedFrom(mask, x, zeroCol[:len(mask)]) {
				continue
			}
			k.fold1(mask, x, st.cx, r)
		case Corr, RegSlope:
			x, y := runOf(colX, start, end), runOf(colY, start, end)
			if !st.seeded && !st.seedFrom(mask, x, y) {
				continue
			}
			k.fold2(mask, x, y, st.cx, st.cy, r)
		default:
			r.n = k.count(mask)
		}
		st.addRun(r)
	}
}

// evalView runs the kernel pipeline over one whole columnar view.
func evalView(q Query, view storage.ColumnView) (st vecState) {
	if colX, colY, ok := scanCols(q, view); ok {
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
// row, with near and far accumulated exactly as sphereMask
// accumulates d².
func classifyBox(s *Selection, mins, maxs []float64) boxClass {
	if s.Radius > 0 { // IsRadius, without its copy of the Selection: ~1 500 calls a query
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
func (f *summaryFold) fold(st *vecState, moments []float64, b int) {
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
// through the kernels in maximal runs. ONE state is carried through runs
// and folds in row order, its frame seeded by whichever comes first, a
// streamed match or a folded block's own pivot, so the result is a pure
// function of the view: COUNT is exact, the sums re-associate at block
// granularity against evalView's (DESIGN.md, "Clustered base and chunk
// zone entries", states the bound). A view without block summaries is
// pruned by chunk only, one without chunk entries either is one run. The
// boxes are tested where they lie, in the view's flat arrays: the walk
// makes ~1 500 tests a query and copies nothing for one. The returns
// after the state are the rows streamed and the rows answered from
// summaries.
func evalViewPruned(q Query, view storage.ColumnView) (st vecState, scanned, summarised int64) {
	colX, colY, ok := scanCols(q, view)
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
		// A chunk that holds a NaN has no box that bounds it.
		if !view.ChunkNaN[c] && classifyBox(s, view.ChunkMins[c*w:(c+1)*w], view.ChunkMaxs[c*w:(c+1)*w]) == boxMiss {
			skipTo(c*storage.ChunkRows, (c+1)*storage.ChunkRows)
		} else {
			blocks(c*perChunk, (c+1)*perChunk)
		}
	}
	blocks(full*perChunk, view.FullBlocks())
	skipTo(view.Len(), view.Len())
	return st, scanned, summarised
}

// EvalView computes q's exact answer over one columnar view with the
// vectorized kernels. Support and COUNT are exactly EvalRows' over the
// same rows; SUM/AVG agree with it to rounding (the package comment
// states the bound); VAR/CORR/REGSLOPE finish in the shifted frame and
// are numerically stronger than the row-at-a-time reference on
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
