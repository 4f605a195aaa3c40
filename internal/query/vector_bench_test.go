// An external test package: the layout benchmark below reads
// workload.StandardRows, and internal/workload imports internal/query.
package query_test

import (
	"math"
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// benchSink keeps the kernels' results live so the compiler cannot
// dead-code-eliminate a benchmark loop (it will, silently, given the
// chance — an earlier draft of these kernels "ran" at 2700 MRows/s
// that way).
var benchSink float64

// standardPartition deals one 167k-row partition of the standard dataset
// (what a member of exact-3n holds per partition) and returns it in
// arrival order and clustered.
func standardPartition() (arrival, clustered *storage.ColStore) {
	const parts = 6
	all := workload.StandardTable(1_000_000, 1)
	var dealt []storage.Row
	for i := 0; i < all.Len(); i += parts {
		dealt = append(dealt, storage.Row{Key: all.Keys[i], Vec: all.Vec(i)})
	}
	clustered = storage.NewColStore(3)
	clustered.AppendClustered(all, 0, parts)
	return storage.BuildColStore(3, dealt), clustered
}

// defaultExtentSelections is a rectangle and a sphere of the default
// extent at the first default interest region.
func defaultExtentSelections() []struct {
	name string
	sel  query.Selection
} {
	region := workload.DefaultRegions(2)[0]
	half := region.Extent
	return []struct {
		name string
		sel  query.Selection
	}{
		{"rect", query.Selection{
			Los: []float64{region.Center[0] - half, region.Center[1] - half},
			His: []float64{region.Center[0] + half, region.Center[1] + half}}},
		{"sphere", query.Selection{Center: region.Center, Radius: half}},
	}
}

// TestSummariesAnswerInteriorBlocks: on the clean clustered partition a
// default-extent query streams fewer rows than the blocks its selection
// meets hold — some of them were answered from their summaries — and
// what it streams and what it folds add up to exactly those blocks.
func TestSummariesAnswerInteriorBlocks(t *testing.T) {
	_, clustered := standardPartition()
	view, _ := clustered.View()
	w := view.Width()
	for _, s := range defaultExtentSelections() {
		met := int64(view.Len() % storage.BlockRows) // the rows past the last block always stream
		for b := 0; b < view.FullBlocks(); b++ {
			if view.BlockDirty[b] {
				t.Fatalf("block %d of the standard dataset is dirty", b)
			}
			zm := storage.ZoneMap{Mins: view.BlockMins[b*w : (b+1)*w], Maxs: view.BlockMaxs[b*w : (b+1)*w], Rows: storage.BlockRows}
			if query.ZoneCanMatch(s.sel, zm) {
				met += storage.BlockRows
			}
		}
		for _, agg := range []query.Agg{query.Count, query.Avg, query.Var, query.Corr} {
			_, scanned, summarised := query.PartialEvalPruned(query.Query{Select: s.sel, Aggregate: agg, Col: 2, Col2: 0}, view)
			if summarised == 0 || scanned >= met || scanned+summarised != met {
				t.Errorf("%s %v: streamed %d rows and summarised %d; the blocks the selection meets hold %d", s.name, agg, scanned, summarised, met)
			}
		}
	}
}

// BenchmarkChunkPruneLayout is the variant × layout table behind the
// clustered base: one 167k-row partition of the standard dataset, laid
// out in arrival order or clustered, scanned whole (PartialEvalView, the
// oracle), pruned by chunk entries alone (PartialEvalPruned over a view
// stripped of its block summaries: the walk before there were any) or
// pruned and summarised (PartialEvalPruned), under a rectangle and a
// sphere of the default extent at the first default interest region.
// Before timing, each variant is checked against the full scan of its own
// view: the count exactly, the sums to 1e-12. rows/op is the rows the
// kernels streamed; pruning pays only on the clustered layout.
func BenchmarkChunkPruneLayout(b *testing.B) {
	arrival, clustered := standardPartition()
	full := func(q query.Query, v storage.ColumnView) ([]float64, int64) {
		return query.PartialEvalView(q, v), int64(v.Len())
	}
	summarised := func(q query.Query, v storage.ColumnView) ([]float64, int64) {
		p, scanned, _ := query.PartialEvalPruned(q, v)
		return p, scanned
	}
	pruned := func(q query.Query, v storage.ColumnView) ([]float64, int64) {
		v.BlockMins, v.BlockMaxs, v.BlockDirty, v.BlockMoments = nil, nil, nil, nil
		return summarised(q, v)
	}
	for _, layout := range []struct {
		name  string
		store *storage.ColStore
	}{{"arrival", arrival}, {"clustered", clustered}} {
		view, _ := layout.store.View()
		for _, scan := range []struct {
			name string
			eval func(query.Query, storage.ColumnView) ([]float64, int64)
		}{{"full", full}, {"pruned", pruned}, {"summarised", summarised}} {
			for _, s := range defaultExtentSelections() {
				q := query.Query{Select: s.sel, Aggregate: query.Var, Col: 2}
				want, _ := full(q, view)
				got, rows := scan.eval(q, view)
				for i := range want {
					if i == 0 && got[i] != want[i] || math.Abs(got[i]-want[i]) > 1e-12*math.Abs(want[i]) {
						b.Fatalf("%s/%s/%s: slot %d: %v != full scan %v", layout.name, scan.name, s.name, i, got[i], want[i])
					}
				}
				b.Run(layout.name+"/"+scan.name+"/"+s.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						p, _ := scan.eval(q, view)
						benchSink += p[0]
					}
					b.ReportMetric(float64(rows), "rows/op")
				})
			}
		}
	}
}
