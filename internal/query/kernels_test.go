package query

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/storage"
)

// useTier makes k the active kernel tier for the rest of the test or
// benchmark. Tests that switch tiers must not run in parallel.
func useTier(tb testing.TB, k *kernels) {
	old := kern
	kern = k
	tb.Cleanup(func() { kern = old })
}

// sentinel fills the guard words around every buffer a primitive writes.
const sentinel = 0xdeadbeefcafef00d

// guardWords is how many sentinel words sit on each side of a buffer.
const guardWords = 8

// guarded returns an n-lane mask buffer that starts off words into its
// allocation's first cache line (so every alignment of a 32-byte store is
// met as off runs over 0…7), with sentinel words on both sides, and the
// check that they are all still there.
func guarded(n, off int) (mask []uint64, intact func() bool) {
	buf := make([]uint64, guardWords+off+n+guardWords)
	for i := range buf {
		buf[i] = sentinel
	}
	mask = buf[guardWords+off : guardWords+off+n : guardWords+off+n]
	return mask, func() bool {
		for i, w := range buf {
			if (i < guardWords+off || i >= guardWords+off+n) && w != sentinel {
				return false
			}
		}
		return true
	}
}

// guardedSums is a fold's out record between sentinel words.
type guardedSums struct {
	before [guardWords]uint64
	out    runSums
	after  [guardWords]uint64
}

func newGuardedSums() *guardedSums {
	g := new(guardedSums)
	for i := range g.before {
		g.before[i], g.after[i] = sentinel, sentinel
	}
	return g
}

func (g *guardedSums) intact() bool {
	for i := range g.before {
		if g.before[i] != sentinel || g.after[i] != sentinel {
			return false
		}
	}
	return true
}

// sameFloat is equality on the bits, with every NaN equal to every other:
// which NaN an addition of two hands on depends on the operand order the
// compiler chose.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameSums(a, b *runSums) bool {
	return a.n == b.n && sameFloat(a.sum, b.sum) && sameFloat(a.sumY, b.sumY) &&
		sameFloat(a.sx, b.sx) && sameFloat(a.sy, b.sy) &&
		sameFloat(a.sxx, b.sxx) && sameFloat(a.syy, b.syy) && sameFloat(a.sxy, b.sxy)
}

// parityColumns draws three columns of n values, each starting off words
// into its own allocation. One value in `every` is one the kernels must
// not trip over: a NaN, ±Inf, −0, a denormal, ±1e300 or a repeat.
func parityColumns(rng *rand.Rand, n, off, every int) [][]float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		5e-324, -2.5e-310, 1e300, -1e300, math.MaxFloat64}
	cols := make([][]float64, 3)
	for j := range cols {
		buf := make([]float64, off+n+guardWords)
		col := buf[off : off+n : off+n]
		for i := range col {
			switch {
			case every > 0 && rng.Intn(every) == 0:
				col[i] = special[rng.Intn(len(special))]
			case i > 0 && rng.Intn(16) == 0:
				col[i] = col[i-1]
			default:
				col[i] = rng.NormFloat64()*30 + 50
			}
		}
		cols[j] = col
	}
	return cols
}

// checkKernelParity runs every primitive of every tier of this machine
// against the generic tier on one input and demands the same bits: the
// same mask lanes, the same counts, the same sums (sameFloat), and not a
// word written outside the mask or the out record. The selection bounds,
// centre, radius² and pivots are taken as they come: NaN, infinite and
// inverted ones included.
func checkKernelParity(t *testing.T, seed int64, n, off, dims int, bounds [6]float64, r2, cx, cy float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	every := []int{0, 3, 40}[uint64(seed)%3]
	cols := parityColumns(rng, n, (off*5+3)%8, every)
	los, his, center := bounds[:dims], bounds[3:3+dims], bounds[1:1+dims]
	ref := &genericKernels

	// The masks the folds run under: the two selections', everything, and
	// a random half.
	masks := make([][]uint64, 4)
	for i := range masks {
		masks[i] = make([]uint64, n)
	}
	ref.rectMask(masks[0], cols, 0, los, his)
	ref.sphereMask(masks[1], cols, 0, center, r2)
	for i := range masks[2] {
		masks[2][i] = ^uint64(0)
		masks[3][i] = -uint64(rng.Intn(2))
	}

	for _, k := range kernelTiers {
		got, intact := guarded(n, off)
		k.rectMask(got, cols, 0, los, his)
		for i := range got {
			if got[i] != masks[0][i] {
				t.Fatalf("%s rectMask n=%d off=%d los=%v his=%v: lane %d (row %v) is %#x, generic %#x",
					k.name, n, off, los, his, i, []float64{cols[0][i], cols[1][i], cols[2][i]}, got[i], masks[0][i])
			}
		}
		if !intact() {
			t.Fatalf("%s rectMask n=%d off=%d dims=%d wrote outside its mask", k.name, n, off, dims)
		}
		k.sphereMask(got, cols, 0, center, r2)
		for i := range got {
			if got[i] != masks[1][i] {
				t.Fatalf("%s sphereMask n=%d off=%d center=%v r2=%v: lane %d (row %v) is %#x, generic %#x",
					k.name, n, off, center, r2, i, []float64{cols[0][i], cols[1][i], cols[2][i]}, got[i], masks[1][i])
			}
		}
		if !intact() {
			t.Fatalf("%s sphereMask n=%d off=%d dims=%d wrote outside its mask", k.name, n, off, dims)
		}
		// A mask over rows [start, start+len): the same lanes again.
		if start := n / 3; start > 0 {
			k.rectMask(got[:n-start], cols, start, los, his)
			for i := range got[:n-start] {
				if got[i] != masks[0][start+i] {
					t.Fatalf("%s rectMask from row %d of %d: lane %d is %#x, generic %#x", k.name, start, n, i, got[i], masks[0][start+i])
				}
			}
			k.sphereMask(got[:n-start], cols, start, center, r2)
			for i := range got[:n-start] {
				if got[i] != masks[1][start+i] {
					t.Fatalf("%s sphereMask from row %d of %d: lane %d is %#x, generic %#x", k.name, start, n, i, got[i], masks[1][start+i])
				}
			}
			if !intact() {
				t.Fatalf("%s masks from row %d of %d wrote outside their mask", k.name, start, n)
			}
		}

		for mi, m := range masks {
			mask, _ := guarded(n, off)
			copy(mask, m)
			x, y := cols[2], cols[0]
			if g, w := k.count(mask), ref.count(m); g != w {
				t.Fatalf("%s count n=%d off=%d mask %d: %d, generic %d", k.name, n, off, mi, g, w)
			}
			for _, fold := range []struct {
				name string
				run  func(k *kernels, mask []uint64, out *runSums)
			}{
				{"sum", func(k *kernels, mask []uint64, out *runSums) { k.sum(mask, x, out) }},
				{"fold1", func(k *kernels, mask []uint64, out *runSums) { k.fold1(mask, x, cx, out) }},
				{"fold2", func(k *kernels, mask []uint64, out *runSums) { k.fold2(mask, x, y, cx, cy, out) }},
			} {
				var want runSums
				fold.run(ref, m, &want)
				g := newGuardedSums()
				fold.run(k, mask, &g.out)
				if !sameSums(&g.out, &want) {
					t.Fatalf("%s %s n=%d off=%d mask %d pivots (%v, %v):\n got     %+v\n generic %+v", k.name, fold.name, n, off, mi, cx, cy, g.out, want)
				}
				if !g.intact() {
					t.Fatalf("%s %s n=%d off=%d wrote outside its out record", k.name, fold.name, n, off)
				}
			}
		}
	}
}

// TestKernelParity sweeps checkKernelParity over every run length 0…1030
// (every count of full groups up to VecBlock, every tail, and a little
// past) and every alignment 0…7, with selections of 0 to 3 dimensions.
func TestKernelParity(t *testing.T) {
	for n := 0; n <= VecBlock+6; n++ {
		for off := 0; off < 8; off++ {
			seed := int64(n*8 + off)
			bounds := [6]float64{30, 45, 20, 70, 80, 95}
			r2, cx, cy := 900.0, 50.0, 49.5
			switch seed % 7 {
			case 1:
				bounds[0], bounds[3] = math.Inf(-1), math.Inf(1)
			case 2:
				bounds[1], cx = math.NaN(), math.NaN()
			case 3:
				bounds[0], bounds[3] = bounds[3], bounds[0] // inverted
			case 4:
				r2, cy = 5e-324, math.Inf(1) // radius 0⁺
			case 5:
				r2, cx = math.Inf(1), 1e300
			}
			checkKernelParity(t, seed, n, off, int(seed%4), bounds, r2, cx, cy)
		}
	}
}

// FuzzKernelParity fuzzes checkKernelParity: data seed, run length,
// alignment, dimensionality, bounds, radius² and pivots are the fuzzer's.
// On a build without the assembly it compares the generic tier with
// itself and must still pass.
func FuzzKernelParity(f *testing.F) {
	f.Add(int64(1), uint16(1024), uint8(0), uint8(2), 30.0, 45.0, 20.0, 70.0, 80.0, 95.0, 900.0, 50.0, 50.0)
	f.Add(int64(2), uint16(1030), uint8(3), uint8(3), math.Inf(-1), 45.0, math.NaN(), math.Inf(1), 80.0, 95.0, 5e-324, math.NaN(), 1e300)
	f.Add(int64(3), uint16(127), uint8(7), uint8(1), 70.0, 50.0, 50.0, 30.0, 0.0, 0.0, 0.0, math.Inf(1), math.Inf(-1))
	f.Add(int64(4), uint16(5), uint8(5), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.Inf(1), 5e-324, math.Copysign(0, -1))
	f.Add(int64(5), uint16(0), uint8(1), uint8(2), 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, off, dims uint8, b0, b1, b2, b3, b4, b5, r2, cx, cy float64) {
		checkKernelParity(t, seed, int(n)%(VecBlock+7), int(off)%8, int(dims)%4,
			[6]float64{b0, b1, b2, b3, b4, b5}, r2, cx, cy)
	})
}

var benchSinkN int64

// BenchmarkVecKernels is the kernel table: tier (every tier this machine
// runs) × run length × aggregate × selection shape, over one 1M-row view
// of three columns, reporting mrows/s. The view is scanned front to back
// in runs of the given length through evalRange, one state and one
// scratch per scan, as evalViewPruned streams the runs it cannot skip:
// 128 rows is one straddling block, the run the pruned exact path lives
// on; 1024 is a straddling chunk; `view` is the whole view as one range.
// The `row` tier is the row-at-a-time reference, EvalRows over the same
// rows, at `view` length only: the contrast the vectorised tiers exist
// for. Both selections match about a tenth of the rows.
func BenchmarkVecKernels(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{Key: uint64(i), Vec: []float64{rng.Float64() * 100, rng.Float64() * 100, rng.NormFloat64()}}
	}
	view, _ := storage.BuildColStore(3, rows).View()
	shapes := []struct {
		name string
		sel  Selection
	}{
		{"rect", Selection{Los: []float64{44.4, 5}, His: []float64{55.6, 95}}},
		{"sphere", Selection{Center: []float64{50, 50}, Radius: 18}},
	}
	for _, tier := range kernelTiers {
		for _, run := range []int{128, 1024, n} {
			length := strconv.Itoa(run)
			if run == n {
				length = "view"
			}
			for _, agg := range []Agg{Count, Sum, Var, Corr} {
				for _, shape := range shapes {
					q := Query{Select: shape.sel, Aggregate: agg, Col: 2, Col2: 0}
					b.Run(tier.name+"/"+length+"/"+agg.String()+"/"+shape.name, func(b *testing.B) {
						useTier(b, tier)
						colX, colY, _ := scanCols(q, view)
						sc := vecPool.Get().(*vecScratch)
						defer vecPool.Put(sc)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							var st vecState
							for lo := 0; lo < n; lo += run {
								evalRange(&q, view.Cols, colX, colY, lo, lo+run, &st, sc)
							}
							benchSinkN += st.n
						}
						b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "mrows/s")
					})
				}
			}
		}
	}
	for _, agg := range []Agg{Count, Sum, Var, Corr} {
		for _, shape := range shapes {
			q := Query{Select: shape.sel, Aggregate: agg, Col: 2, Col2: 0}
			b.Run("row/view/"+agg.String()+"/"+shape.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSinkN += EvalRows(q, rows).Support
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "mrows/s")
			})
		}
	}
}
