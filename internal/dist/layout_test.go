package dist

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// clusteredRef is the test-side statement of the clustered base order
// (DESIGN.md, node-local storage): per column of the rows a partition is
// dealt, cell = (v - min) * (65535 / (max - min)) truncated and clamped
// to [0, 65535] (0 for a zero-width column); key = the cells' bits
// interleaved from the top bit down with column 0 leading; rows sorted by
// key, ties in arrival order. It shares no code with
// storage.ColStore.AppendClustered.
func clusteredRef(dealt []storage.Row) []storage.Row {
	if len(dealt) == 0 {
		return nil
	}
	width := len(dealt[0].Vec)
	keys := make([]uint64, len(dealt))
	cells := make([][]uint64, len(dealt))
	for j := 0; j < width && j < 4; j++ {
		lo, hi := dealt[0].Vec[j], dealt[0].Vec[j]
		for _, r := range dealt {
			lo, hi = min(lo, r.Vec[j]), max(hi, r.Vec[j])
		}
		for i, r := range dealt {
			var cell uint64
			if hi > lo {
				cell = uint64(min((r.Vec[j]-lo)*(65535/(hi-lo)), 65535))
			}
			cells[i] = append(cells[i], cell)
		}
	}
	for i, cs := range cells {
		for bit := 15; bit >= 0; bit-- {
			for _, c := range cs {
				keys[i] = keys[i]*2 + c/(1<<bit)%2
			}
		}
	}
	order := make([]int, len(dealt))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	out := make([]storage.Row, len(dealt))
	for i, o := range order {
		out[i] = dealt[o]
	}
	return out
}

// layoutCluster starts three members (R=2, W=2, WAL under dir) over 60k
// standard rows: six partitions of 10k rows, nine full chunks and a
// partial one each, so chunk pruning has something to prune.
func layoutCluster(t *testing.T, dir string) (*LocalCluster, []storage.Row) {
	t.Helper()
	rows := testRows(60_000, 11)
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(3, Config{Agent: cfg, Replicas: 2, WriteQuorum: 2, DataDir: dir}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc, rows
}

// layoutQueries is a fixed list of selective queries over every
// aggregate (rectangles and spheres in the default interest regions).
func layoutQueries() []query.Query {
	var qs []query.Query
	for _, s := range aggStreams(700) {
		for i := 0; i < 8; i++ {
			qs = append(qs, s.Next())
		}
	}
	return qs
}

// TestLayoutClusteredBaseEqualOnReplicas: members that Load the same
// rows lay every partition they share down in the documented clustered
// order — independently, with no coordination — and so report equal
// digest roots (assertConserved).
func TestLayoutClusteredBaseEqualOnReplicas(t *testing.T) {
	lc, rows := layoutCluster(t, "")
	node0 := lc.Node(lc.IDs()[0])
	parts := node0.Partitions()
	dealt := make(map[int][]storage.Row)
	for i, r := range rows {
		dealt[i%parts] = append(dealt[i%parts], r)
	}
	for p := 0; p < parts; p++ {
		want := clusteredRef(dealt[p])
		for _, id := range node0.PartitionOwners(p) {
			view, baseLen, _ := lc.Node(id).livePart(p).snapshot()
			if baseLen != len(want) || !reflect.DeepEqual(view.Rows(0), want) {
				t.Fatalf("partition %d on %s: base rows are not in clustered order", p, id)
			}
		}
	}
	assertConserved(t, lc, "after load", len(rows))
}

// TestLayoutRestartEqualsPeer: a member killed without warning and
// restarted (Load re-lays the base, WAL replay and log-tail catch-up
// re-append the ingested tail) ends up with the resident order of the
// peer that never died.
func TestLayoutRestartEqualsPeer(t *testing.T) {
	lc, _ := layoutCluster(t, t.TempDir())
	client := lc.Client()
	ingest := func(firstKey uint64) {
		t.Helper()
		for b := uint64(0); b < 4; b++ {
			if _, err := client.Ingest(ingestRows(60, firstKey+b*1000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(6_000_000)
	victim := lc.IDs()[1]
	lc.Kill(victim)
	ingest(7_000_000) // the victim misses these and catches them up
	if _, err := lc.Revive(victim, ""); err != nil {
		t.Fatal(err)
	}
	if held := lc.Node(victim).Status().PartitionsHeld; len(held) == 0 {
		t.Fatal("restarted member holds nothing")
	}
	assertConserved(t, lc, "after restart", int(countAll(t, client)))
}

// TestLayoutGainerScansWhatItsDonorScans: a snapshot ships rows in
// resident order, so a gainer installed from one has its donor's
// clustered base and arrival-order tail: same digest, and for every
// query the same blocks are skipped, folded from their summaries and
// streamed — equal rows_read, equal bits.
func TestLayoutGainerScansWhatItsDonorScans(t *testing.T) {
	lc, rows := layoutCluster(t, t.TempDir())
	for b := uint64(0); b < 4; b++ {
		if resp, err := lc.Client().Ingest(ingestRows(60, 8_000_000+b*1000)); err != nil || resp.FailedRows != 0 {
			t.Fatalf("ingest: %v %+v", err, resp)
		}
	}
	if err := lc.Join("n3"); err != nil {
		t.Fatal(err)
	}
	gainer := lc.Node("n3")
	gained := gainer.Status().PartitionsHeld
	if len(gained) == 0 {
		t.Fatal("joiner gained nothing")
	}
	assertConserved(t, lc, "after join", len(rows)+4*60)
	pruned := false
	for _, p := range gained {
		view, _, _ := gainer.livePart(p).snapshot()
		for _, id := range gainer.PartitionOwners(p) {
			if id == "n3" {
				continue
			}
			for i, q := range layoutQueries() {
				want, wantRows, wantSummarised, ok := lc.Node(id).localPartial(p, q)
				got, gotRows, gotSummarised, _ := gainer.localPartial(p, q)
				if !ok || gotRows != wantRows || gotSummarised != wantSummarised || !equalFloats(got, want) {
					t.Fatalf("partition %d query %d: gainer read %d rows for %v, holder %s read %d rows for %v",
						p, i, gotRows, got, id, wantRows, want)
				}
				pruned = pruned || gotRows < int64(view.Len())
			}
		}
	}
	if !pruned {
		t.Fatal("no query pruned a chunk on a gained partition: the snapshot did not carry the clustered order")
	}
}

// TestLayoutPrunedScatterIsSelectiveAndExact: over a clustered base with
// an ingested tail, a selective query reads a fraction of the rows held
// (cost.rows_read counts the rows streamed) and still answers what the
// row-at-a-time reference answers over all the input rows. A selection
// that covers most of the table streams only its boundary and the tail:
// it reads fewer rows than it selects.
func TestLayoutPrunedScatterIsSelectiveAndExact(t *testing.T) {
	lc, rows := layoutCluster(t, t.TempDir())
	for b := uint64(0); b < 4; b++ {
		batch := ingestRows(60, 9_000_000+b*1000)
		if resp, err := lc.Client().Ingest(batch); err != nil || resp.FailedRows != 0 {
			t.Fatalf("ingest: %v %+v", err, resp)
		}
		rows = append(rows, batch...)
	}
	var read int64
	queries := layoutQueries()
	for i, q := range queries {
		got, cost, err := lc.Node(lc.IDs()[i%3]).ScatterGather(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := query.EvalRows(q, rows); got.Support != want.Support || !closeEnough(q.Aggregate, got.Value, want.Value) {
			t.Fatalf("query %d (%v): pruned scatter %v over %d rows, reference %v over %d",
				i, q.Aggregate, got.Value, got.Support, want.Value, want.Support)
		}
		if cost.RowsRead <= 0 || cost.RowsRead >= int64(len(rows)) {
			t.Fatalf("query %d (%v): read %d of %d rows: nothing pruned", i, q.Aggregate, cost.RowsRead, len(rows))
		}
		read += cost.RowsRead
	}
	if share := float64(read) / float64(len(queries)*len(rows)); share > 0.5 {
		t.Fatalf("selective queries read %.0f%% of the table on average", 100*share)
	}
	wide := query.Selection{Los: []float64{10, 10}, His: []float64{95, 95}}
	for i, agg := range []query.Agg{query.Count, query.Sum, query.Avg, query.Var, query.Corr, query.RegSlope} {
		q := query.Query{Select: wide, Aggregate: agg, Col: 2, Col2: 0}
		got, cost, err := lc.Node(lc.IDs()[i%3]).ScatterGather(q)
		if err != nil {
			t.Fatal(err)
		}
		want := query.EvalRows(q, rows)
		if got.Support != want.Support || !closeEnough(agg, got.Value, want.Value) {
			t.Fatalf("wide %v: scatter %v over %d rows, reference %v over %d", agg, got.Value, got.Support, want.Value, want.Support)
		}
		if want.Support < int64(len(rows))/2 || cost.RowsRead <= 0 || cost.RowsRead >= want.Support {
			t.Fatalf("wide %v: read %d rows to select %d of %d: interior blocks were not answered from their summaries",
				agg, cost.RowsRead, want.Support, len(rows))
		}
	}
}

// goldenRoots are the digest roots of the six partitions of
// layoutCluster's base (StartLocal(3, R=2) over testRows(60_000, 11)),
// recorded from the sort-then-append loader that preceded the bulk one.
// They pin the resident bytes of the clustered base: a loader that
// orders, fills or summarises differently moves a root.
var goldenRoots = [6]string{
	"55e34c8679767139", "a2f1562440a82ffb", "663584a4a635e764",
	"d3be6a1c8172ced6", "b831fba1a7b60e65", "f7fe7539ee46b544",
}

// goldenSummaries are the same partitions' summary hashes
// (summaryHash), recorded alongside goldenRoots.
var goldenSummaries = [6]uint64{
	0xaf8c96362cfb511f, 0xb878666d4eef6aeb, 0x0b2760fb4a6ca6af,
	0xa608d0a58e4ba480, 0x8e24026fe93e9049, 0x6fbc8d31eeae996e,
}

// summaryHash hashes every block summary and chunk entry of a view, the
// parts of the layout a digest root does not cover.
func summaryHash(v storage.ColumnView) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, fs := range [][]float64{v.ChunkMins, v.ChunkMaxs, v.BlockMins, v.BlockMaxs, v.BlockMoments} {
		put(uint64(len(fs)))
		for _, f := range fs {
			put(math.Float64bits(f))
		}
	}
	for _, bs := range [][]bool{v.ChunkNaN, v.BlockDirty} {
		put(uint64(len(bs)))
		for _, b := range bs {
			if b {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return h.Sum64()
}

// TestLoadLayoutGolden: Load lays the base down in exactly the bytes it
// always has. Digests, /v1/partsnap, anti-entropy and every answer
// depend on them, so a faster loader must not move one.
func TestLoadLayoutGolden(t *testing.T) {
	lc, _ := layoutCluster(t, "")
	node0 := lc.Node(lc.IDs()[0])
	if parts := node0.Partitions(); parts != len(goldenRoots) {
		t.Fatalf("%d partitions, want %d", parts, len(goldenRoots))
	}
	for p := range goldenRoots {
		for _, id := range node0.PartitionOwners(p) {
			d, ok := lc.Node(id).digestPartition(p)
			if !ok {
				t.Fatalf("%s cannot digest partition %d", id, p)
			}
			view, _, _ := lc.Node(id).livePart(p).snapshot()
			if d.Root != goldenRoots[p] || summaryHash(view) != goldenSummaries[p] {
				t.Errorf("partition %d on %s: root %s summaries %#x, want %s %#x",
					p, id, d.Root, summaryHash(view), goldenRoots[p], goldenSummaries[p])
			}
		}
	}
}

// TestLoadPathsAgree: the two ways into Load lay down the same base. A
// member built the way seaserve builds one (NewNode, then Load of the
// generated standard table) holds the partitions a StartLocal member of
// the same id holds over StandardRows, with equal digest roots and
// summary hashes on every copy.
func TestLoadPathsAgree(t *testing.T) {
	lc, _ := layoutCluster(t, "")
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	for _, id := range lc.IDs() {
		n, err := NewNode(Config{ID: id, Peers: lc.Members(), Agent: cfg, Replicas: 2, WriteQuorum: 2,
			Partitions: lc.Node(id).Partitions()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		if err := n.Load(workload.StandardTable(60_000, 11)); err != nil {
			t.Fatal(err)
		}
		held := n.Status().PartitionsHeld
		if want := lc.Node(id).Status().PartitionsHeld; !reflect.DeepEqual(held, want) || len(held) == 0 {
			t.Fatalf("%s holds %v from the table, %v from StartLocal", id, held, want)
		}
		for _, p := range held {
			got, _ := n.digestPartition(p)
			want, _ := lc.Node(id).digestPartition(p)
			gotView, _, _ := n.livePart(p).snapshot()
			wantView, _, _ := lc.Node(id).livePart(p).snapshot()
			if got.Root != want.Root || summaryHash(gotView) != summaryHash(wantView) {
				t.Errorf("partition %d on %s: root %s summaries %#x from the table, %s %#x from StartLocal",
					p, id, got.Root, summaryHash(gotView), want.Root, summaryHash(wantView))
			}
		}
	}
}

// copyBytes sums the column bytes of every copy n holds, read straight
// off its three lookups, and counts the retired ones.
func copyBytes(n *Node) (total uint64, retired int) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, pt := range n.live {
		total += pt.bytes()
	}
	for _, st := range n.staged {
		total += st.pt.bytes()
	}
	for _, pt := range n.retired {
		total += pt.bytes()
	}
	return total, len(n.retired)
}

// TestResidentBytesCountsEveryCopy: a node's ResidentBytes is the column
// bytes of every copy it holds after Load, grows with an ingest, and
// keeps counting the copies a join retires (they stay resident as
// donors until the node closes).
func TestResidentBytesCountsEveryCopy(t *testing.T) {
	lc, _ := liveCluster(t, 3, t.TempDir())
	check := func(stage string) (retired int) {
		t.Helper()
		for _, id := range lc.IDs() {
			n := lc.Node(id)
			want, r := copyBytes(n)
			if got := n.ResidentBytes(); got != want {
				t.Fatalf("%s: node %s ResidentBytes %d, its copies hold %d", stage, id, got, want)
			}
			retired += r
		}
		return retired
	}
	check("after Load")
	n0 := lc.Node(lc.IDs()[0])
	if rows := n0.NodeStatus().RowsHeld; n0.ResidentBytes() < uint64(32*rows) {
		t.Fatalf("n0 holds %d rows in %d resident bytes, below 4 columns of 8 bytes", rows, n0.ResidentBytes())
	}
	before := n0.ResidentBytes()
	if _, err := lc.Client().Ingest(ingestRows(4*storage.BlockRows, 9_000_000)); err != nil {
		t.Fatal(err)
	}
	check("after ingest")
	if n0.ResidentBytes() <= before {
		t.Fatalf("n0 ResidentBytes %d after an ingest, %d before", n0.ResidentBytes(), before)
	}
	if err := lc.Join("n3"); err != nil {
		t.Fatal(err)
	}
	if check("after a join") == 0 {
		t.Fatal("the join retired no copy")
	}
}
