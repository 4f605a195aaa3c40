package index

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sketch"
	"repro/internal/storage"
)

// RankIndex is the statistical index of ref [30]: for a table whose
// partitions are sorted descending by a score column, it holds one score
// histogram per partition. A threshold-style rank-join coordinator uses
// the histograms to bound how many rows of each sorted run can still
// matter, and reads only those prefixes.
type RankIndex struct {
	col   int
	hists []*sketch.Histogram1D
	// tops[p] is partition p's maximum score (first row of sorted run).
	tops []float64
	rows []int
}

// BuildRankIndex sorts every partition of t descending by score column
// col and builds per-partition histograms with the given bucket count.
// Index building is offline and uncharged (like any DBMS index build).
func BuildRankIndex(t *cluster.Table, col int, buckets int) (*RankIndex, error) {
	t.SortPartitions(func(a, b storage.Row) bool {
		return scoreOf(a, col) > scoreOf(b, col)
	})
	ri := &RankIndex{col: col}
	for p := 0; p < t.Partitions(); p++ {
		rows, _, err := t.ScanPartition(p)
		if err != nil {
			return nil, fmt.Errorf("rank index: %w", err)
		}
		lo, hi := 0.0, 1.0
		if len(rows) > 0 {
			lo = scoreOf(rows[len(rows)-1], col)
			hi = scoreOf(rows[0], col) + 1e-9
		}
		if hi <= lo {
			hi = lo + 1e-9
		}
		h, err := sketch.NewHistogram1D(lo, hi, buckets)
		if err != nil {
			return nil, fmt.Errorf("rank index: %w", err)
		}
		for _, r := range rows {
			h.Add(scoreOf(r, col))
		}
		ri.hists = append(ri.hists, h)
		top := 0.0
		if len(rows) > 0 {
			top = scoreOf(rows[0], col)
		}
		ri.tops = append(ri.tops, top)
		ri.rows = append(ri.rows, len(rows))
	}
	return ri, nil
}

func scoreOf(r storage.Row, col int) float64 {
	if col < 0 || col >= len(r.Vec) {
		return 0
	}
	return r.Vec[col]
}

// Col returns the indexed score column.
func (ri *RankIndex) Col() int { return ri.col }

// Partitions returns the number of indexed partitions.
func (ri *RankIndex) Partitions() int { return len(ri.hists) }

// Top returns partition p's maximum score.
func (ri *RankIndex) Top(p int) float64 {
	if p < 0 || p >= len(ri.tops) {
		return 0
	}
	return ri.tops[p]
}

// DepthForScore estimates how many rows of partition p's sorted run have
// score >= s, padded by one histogram bucket so the estimate never cuts
// off true matches.
func (ri *RankIndex) DepthForScore(p int, s float64) int {
	if p < 0 || p >= len(ri.hists) {
		return 0
	}
	h := ri.hists[p]
	est := h.CountAbove(s)
	// Pad by one bucket's expected population to absorb estimation error.
	pad := int64(0)
	if ri.rows[p] > 0 {
		pad = int64(ri.rows[p]/64) + 1
	}
	d := est + pad
	if d > int64(ri.rows[p]) {
		d = int64(ri.rows[p])
	}
	return int(d)
}

// Rows returns partition p's row count.
func (ri *RankIndex) Rows(p int) int {
	if p < 0 || p >= len(ri.rows) {
		return 0
	}
	return ri.rows[p]
}
