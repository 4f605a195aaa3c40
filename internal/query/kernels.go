// The kernel tiers. The scan pipeline of vector.go is written once, over
// the six primitives of the kernels table below; a tier is one
// implementation of the table. There are two: `generic`, the pure-Go
// primitives in this file, and `avx2` (kernels_amd64.go and .s), picked
// at init when the CPU and the OS support it. The two agree on the bits
// of every result, so a cluster of mixed members answers as one, and
// the assembly is checked by fuzzing it against the Go below
// (FuzzKernelParity). NaN payloads are the one exception: x86 hands on
// the payload of an addition's first NaN operand, and the compiler picks
// the operand order, so a NaN result is a NaN in both tiers but not
// always the same one.
//
// The summation order, which both tiers implement (DESIGN.md, "Batch
// kernels", is where it is specified): a fold primitive is called with
// one run of at most VecBlock rows. Row i of the first 4·⌊n/4⌋ rows
// adds into lane i mod 4 of each accumulator, lanes starting at +0; the
// lanes reduce as (l0 + l2) + (l1 + l3); the remaining n mod 4 rows add
// to that, in row order. A product is rounded before it is added (no
// fused multiply-add: the float64 conversions below say so to the
// compiler). The mask primitives are element-wise and have no order.
package query

import "math"

// kernels is one tier: the two phases' primitives. Every primitive works
// on len(mask) rows and reads that many values of each column it is
// given; a shorter column panics (the assembly is never handed one).
type kernels struct {
	name string

	// Selection phase, over rows [start, start+len(mask)) of the first
	// len(los) (len(center)) columns: a mask lane becomes ^0 for a row
	// that matches and 0 for one that does not, exactly as
	// Selection.Contains decides it. No dimensions match every row.
	rectMask   func(mask []uint64, cols [][]float64, start int, los, his []float64)
	sphereMask func(mask []uint64, cols [][]float64, start int, center []float64, r2 float64)

	// Aggregation phase, under the mask: an unmatched row contributes an
	// exact +0 (maskTo0). count returns the matched rows; the folds write
	// them to out.n beside the sums they take: sum Σx; fold1 Σx, Σ(x-cx)
	// and Σ(x-cx)² (out.sum, out.sx, out.sxx); fold2 all seven.
	count func(mask []uint64) int64
	sum   func(mask []uint64, x []float64, out *runSums)
	fold1 func(mask []uint64, x []float64, cx float64, out *runSums)
	fold2 func(mask []uint64, x, y []float64, cx, cy float64, out *runSums)
}

// runSums is what a fold primitive returns for one run: the matched rows,
// the raw sums and the sums in the frame shifted by (cx, cy). The
// assembly writes the fields by offset.
type runSums struct {
	n         int64
	sum, sumY float64 // Σx, Σy
	sx, sy    float64 // Σ(x-cx), Σ(y-cy)
	sxx, syy  float64 // Σ(x-cx)², Σ(y-cy)²
	sxy       float64 // Σ(x-cx)(y-cy)
}

// kern is the active tier and kernelTiers every tier this process can
// run, generic first. Both are written during package initialisation
// only (kernels_amd64.go).
var (
	kern        = &genericKernels
	kernelTiers = []*kernels{&genericKernels}
)

// KernelTier names the kernel tier the exact scans of this process run
// on: "avx2" or "generic".
func KernelTier() string { return kern.name }

var genericKernels = kernels{
	name:       "generic",
	rectMask:   rectMaskGeneric,
	sphereMask: sphereMaskGeneric,
	count:      countGeneric,
	sum:        sumGeneric,
	fold1:      fold1Generic,
	fold2:      fold2Generic,
}

// b2u converts a comparison verdict to 0/1 without a branch: the
// compiler lowers this pattern to a flag materialisation (SETcc). A
// data-dependent branch at mid selectivity mispredicts constantly and
// measures an order of magnitude slower than the arithmetic form.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// maskTo0 passes v through for matched lanes and yields an exact +0 for
// unmatched ones (bit-masking, so a NaN or Inf in an unselected row
// cannot pollute the accumulators).
func maskTo0(v float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(v) & m)
}

// rectMaskGeneric takes one pass per column. The verdict is the
// reference's exclusion form (`v < lo || v > hi` rejects), so a NaN
// coordinate, which fails every comparison, matches exactly as it does in
// Selection.Contains.
func rectMaskGeneric(mask []uint64, cols [][]float64, start int, los, his []float64) {
	his = his[:len(los)]
	if len(los) == 0 {
		for i := range mask {
			mask[i] = ^uint64(0)
		}
	}
	for j, lo := range los {
		hi := his[j]
		col := cols[j][start : start+len(mask)]
		if j == 0 {
			for i, v := range col {
				mask[i] = (b2u(v < lo) | b2u(v > hi)) - 1
			}
			continue
		}
		for i, v := range col {
			mask[i] &= (b2u(v < lo) | b2u(v > hi)) - 1
		}
	}
}

// sphereMaskGeneric adds a row's d² one column at a time from column 0
// to a +0, the order of Selection.Contains, so membership is
// bit-identical to it; the running d² is kept in the mask lane itself.
func sphereMaskGeneric(mask []uint64, cols [][]float64, start int, center []float64, r2 float64) {
	clear(mask) // the bits of +0
	for j, c := range center {
		col := cols[j][start : start+len(mask)]
		for i, v := range col {
			d := v - c
			mask[i] = math.Float64bits(math.Float64frombits(mask[i]) + float64(d*d))
		}
	}
	for i, m := range mask {
		mask[i] = -b2u(math.Float64frombits(m) <= r2)
	}
}

func countGeneric(mask []uint64) int64 {
	var n uint64
	for _, m := range mask {
		n += m >> 63
	}
	return int64(n)
}

func sumGeneric(mask []uint64, x []float64, out *runSums) {
	x = x[:len(mask)]
	n4 := len(mask) &^ 3
	var n uint64
	var s0, s1, s2, s3 float64
	for i := 0; i < n4; i += 4 {
		m, v := mask[i:i+4:i+4], x[i:i+4:i+4]
		s0 += maskTo0(v[0], m[0])
		s1 += maskTo0(v[1], m[1])
		s2 += maskTo0(v[2], m[2])
		s3 += maskTo0(v[3], m[3])
		n += m[0]>>63 + m[1]>>63 + m[2]>>63 + m[3]>>63
	}
	out.n = int64(n)
	out.sum = (s0 + s2) + (s1 + s3)
	sumTail(mask[n4:], x[n4:], out)
}

// sumTail, fold1Tail and fold2Tail add the n mod 4 rows past a run's
// last full group of four to the reduced lanes, in row order. Both tiers
// finish through them.
func sumTail(mask []uint64, x []float64, out *runSums) {
	for i, m := range mask {
		out.n += int64(m >> 63)
		out.sum += maskTo0(x[i], m)
	}
}

func fold1Generic(mask []uint64, x []float64, cx float64, out *runSums) {
	x = x[:len(mask)]
	n4 := len(mask) &^ 3
	var n uint64
	var s0, s1, s2, s3 float64 // Σx by lane
	var d0, d1, d2, d3 float64 // Σ(x-cx)
	var q0, q1, q2, q3 float64 // Σ(x-cx)²
	for i := 0; i < n4; i += 4 {
		m, v := mask[i:i+4:i+4], x[i:i+4:i+4]
		e0 := maskTo0(v[0]-cx, m[0])
		e1 := maskTo0(v[1]-cx, m[1])
		e2 := maskTo0(v[2]-cx, m[2])
		e3 := maskTo0(v[3]-cx, m[3])
		s0 += maskTo0(v[0], m[0])
		s1 += maskTo0(v[1], m[1])
		s2 += maskTo0(v[2], m[2])
		s3 += maskTo0(v[3], m[3])
		d0 += e0
		d1 += e1
		d2 += e2
		d3 += e3
		q0 += float64(e0 * e0)
		q1 += float64(e1 * e1)
		q2 += float64(e2 * e2)
		q3 += float64(e3 * e3)
		n += m[0]>>63 + m[1]>>63 + m[2]>>63 + m[3]>>63
	}
	out.n = int64(n)
	out.sum = (s0 + s2) + (s1 + s3)
	out.sx = (d0 + d2) + (d1 + d3)
	out.sxx = (q0 + q2) + (q1 + q3)
	fold1Tail(mask[n4:], x[n4:], cx, out)
}

func fold1Tail(mask []uint64, x []float64, cx float64, out *runSums) {
	for i, m := range mask {
		e := maskTo0(x[i]-cx, m)
		out.n += int64(m >> 63)
		out.sum += maskTo0(x[i], m)
		out.sx += e
		out.sxx += float64(e * e)
	}
}

// fold2Generic keeps one lane's seven accumulators in registers and
// walks the run once per lane: seven sums times four lanes would spill.
// The lanes are independent, so the order they are walked in is not part
// of the summation order.
func fold2Generic(mask []uint64, x, y []float64, cx, cy float64, out *runSums) {
	x, y = x[:len(mask)], y[:len(mask)]
	n4 := len(mask) &^ 3
	var lanes [4]runSums
	for l := range lanes {
		var a runSums
		var n uint64
		for i := l; i < n4; i += 4 {
			m := mask[i]
			ex, ey := maskTo0(x[i]-cx, m), maskTo0(y[i]-cy, m)
			a.sum += maskTo0(x[i], m)
			a.sumY += maskTo0(y[i], m)
			a.sx += ex
			a.sy += ey
			a.sxx += float64(ex * ex)
			a.syy += float64(ey * ey)
			a.sxy += float64(ex * ey)
			n += m >> 63
		}
		a.n = int64(n)
		lanes[l] = a
	}
	l0, l1, l2, l3 := &lanes[0], &lanes[1], &lanes[2], &lanes[3]
	out.n = l0.n + l1.n + l2.n + l3.n
	out.sum = (l0.sum + l2.sum) + (l1.sum + l3.sum)
	out.sumY = (l0.sumY + l2.sumY) + (l1.sumY + l3.sumY)
	out.sx = (l0.sx + l2.sx) + (l1.sx + l3.sx)
	out.sy = (l0.sy + l2.sy) + (l1.sy + l3.sy)
	out.sxx = (l0.sxx + l2.sxx) + (l1.sxx + l3.sxx)
	out.syy = (l0.syy + l2.syy) + (l1.syy + l3.syy)
	out.sxy = (l0.sxy + l2.sxy) + (l1.sxy + l3.sxy)
	fold2Tail(mask[n4:], x[n4:], y[n4:], cx, cy, out)
}

func fold2Tail(mask []uint64, x, y []float64, cx, cy float64, out *runSums) {
	for i, m := range mask {
		ex, ey := maskTo0(x[i]-cx, m), maskTo0(y[i]-cy, m)
		out.n += int64(m >> 63)
		out.sum += maskTo0(x[i], m)
		out.sumY += maskTo0(y[i], m)
		out.sx += ex
		out.sy += ey
		out.sxx += float64(ex * ex)
		out.syy += float64(ey * ey)
		out.sxy += float64(ex * ey)
	}
}
