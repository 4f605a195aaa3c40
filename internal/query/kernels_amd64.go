//go:build amd64 && !purego

package query

// The avx2 tier: each primitive hands the run's full groups of four rows
// to the assembly of kernels_amd64.s and finishes the n mod 4 rows left
// through the generic tier's own code, so the two cannot disagree there.
// The wrappers do the bounds checks; the assembly trusts its lengths.

var avx2Kernels = kernels{
	name: "avx2",
	rectMask: func(mask []uint64, cols [][]float64, start int, los, his []float64) {
		n4 := len(mask) &^ 3
		checkRows(cols[:len(los)], start, n4)
		rectMaskAVX2(mask[:n4], cols, start, los, his[:len(los)])
		rectMaskGeneric(mask[n4:], cols, start+n4, los, his)
	},
	sphereMask: func(mask []uint64, cols [][]float64, start int, center []float64, r2 float64) {
		n4 := len(mask) &^ 3
		checkRows(cols[:len(center)], start, n4)
		sphereMaskAVX2(mask[:n4], cols, start, center, r2)
		sphereMaskGeneric(mask[n4:], cols, start+n4, center, r2)
	},
	count: func(mask []uint64) int64 {
		n4 := len(mask) &^ 3
		return countAVX2(mask[:n4]) + countGeneric(mask[n4:])
	},
	sum: func(mask []uint64, x []float64, out *runSums) {
		x = x[:len(mask)]
		n4 := len(mask) &^ 3
		sumAVX2(mask[:n4], x[:n4], out)
		sumTail(mask[n4:], x[n4:], out)
	},
	fold1: func(mask []uint64, x []float64, cx float64, out *runSums) {
		x = x[:len(mask)]
		n4 := len(mask) &^ 3
		fold1AVX2(mask[:n4], x[:n4], cx, out)
		fold1Tail(mask[n4:], x[n4:], cx, out)
	},
	fold2: func(mask []uint64, x, y []float64, cx, cy float64, out *runSums) {
		x, y = x[:len(mask)], y[:len(mask)]
		n4 := len(mask) &^ 3
		fold2AVX2(mask[:n4], x[:n4], y[:n4], cx, cy, out)
		fold2Tail(mask[n4:], x[n4:], y[n4:], cx, cy, out)
	},
}

// checkRows panics unless every column holds rows [start, start+n).
func checkRows(cols [][]float64, start, n int) {
	for _, col := range cols {
		_ = col[start : start+n]
	}
}

func init() {
	if hasAVX2() {
		kernelTiers = append(kernelTiers, &avx2Kernels)
		kern = &avx2Kernels
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits
// 1 and 2, CPUID.7.0:EBX AVX2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// Implemented in kernels_amd64.s. Each works on the first 4·⌊len(mask)/4⌋
// rows and reads as many values of the columns it is given (of the first
// len(los) or len(center) columns from row start on, for the two masks).

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func rectMaskAVX2(mask []uint64, cols [][]float64, start int, los, his []float64)

//go:noescape
func sphereMaskAVX2(mask []uint64, cols [][]float64, start int, center []float64, r2 float64)

//go:noescape
func countAVX2(mask []uint64) int64

//go:noescape
func sumAVX2(mask []uint64, x []float64, out *runSums)

//go:noescape
func fold1AVX2(mask []uint64, x []float64, cx float64, out *runSums)

//go:noescape
func fold2AVX2(mask []uint64, x, y []float64, cx, cy float64, out *runSums)
