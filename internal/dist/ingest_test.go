package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/storage"
)

// liveCluster starts a cluster with WAL durability under dir and a
// write quorum equal to the replication factor (every acked batch is on
// every owner).
func liveCluster(t *testing.T, nodes int, dir string) (*LocalCluster, []storage.Row) {
	t.Helper()
	rows := testRows(2_000, 11)
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30 // exact-path cluster: determinism matters here
	cfg.DriftRowBudget = 200
	lc, err := StartLocal(nodes, Config{
		Agent:       cfg,
		Replicas:    2,
		WriteQuorum: 2,
		DataDir:     dir,
	}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc, rows
}

// ingestRows builds fresh uniquely-keyed rows for ingest.
func ingestRows(n int, firstKey uint64) []storage.Row {
	out := make([]storage.Row, n)
	for i := range out {
		k := firstKey + uint64(i)
		out[i] = storage.Row{Key: k, Vec: []float64{float64(k%100) + 0.5, 50, 1}}
	}
	return out
}

// wholeSpace selects every row.
func wholeSpace(agg query.Agg, col int) query.Query {
	return query.Query{
		Select:    query.Selection{Los: []float64{-1e9, -1e9}, His: []float64{1e9, 1e9}},
		Aggregate: agg, Col: col,
	}
}

// assertHoldersAgree checks that every holder of every partition has a
// bit-identical partial aggregate state (VAR partials exercise counts,
// sums and sums of squares at once).
func assertHoldersAgree(t *testing.T, lc *LocalCluster) {
	t.Helper()
	probe := wholeSpace(query.Var, 2)
	any := lc.Node(lc.IDs()[0])
	for p := 0; p < any.Partitions(); p++ {
		owners := any.PartitionOwners(p)
		var ref []float64
		var refID string
		for _, id := range owners {
			node := lc.Node(id)
			if node == nil {
				continue
			}
			st, ok := node.PartialState(p, probe)
			if !ok {
				t.Fatalf("owner %s does not hold partition %d", id, p)
			}
			if ref == nil {
				ref, refID = st, id
				continue
			}
			if len(st) != len(ref) {
				t.Fatalf("partition %d: %s and %s disagree on partial width", p, refID, id)
			}
			for i := range st {
				if st[i] != ref[i] {
					t.Fatalf("partition %d: %s and %s partial states differ at %d: %v != %v",
						p, refID, id, i, st[i], ref[i])
				}
			}
		}
	}
}

func TestIngestReplicatesAtQuorumAndStaysExact(t *testing.T) {
	lc, base := liveCluster(t, 3, t.TempDir())
	client := lc.Client()

	var acked int
	for b := 0; b < 5; b++ {
		batch := ingestRows(40, 1_000_000+uint64(b)*1000)
		resp, err := client.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		if resp.FailedRows != 0 {
			t.Fatalf("batch %d: %d rows missed quorum on a healthy cluster: %+v",
				b, resp.FailedRows, resp.Parts)
		}
		acked += resp.AckedRows
	}
	if acked != 200 {
		t.Fatalf("acked %d rows, want 200", acked)
	}

	// Every holder of every partition applied the same sequenced log.
	assertHoldersAgree(t, lc)

	// The exact read path sees the ingested rows immediately.
	res, _, err := lc.Node(lc.IDs()[0]).ScatterGather(wholeSpace(query.Count, 0))
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Value) != len(base)+acked {
		t.Fatalf("cluster COUNT = %v, want %d", res.Value, len(base)+acked)
	}

	// Ingest counters surface through the cluster status.
	st := lc.Node(lc.IDs()[0]).Status()
	if st.Serving.IngestRows == 0 || st.Serving.IngestBatches == 0 {
		t.Fatalf("node ingest counters empty: %+v", st.Serving)
	}
}

func TestIngestWALReplaySurvivesKill(t *testing.T) {
	dir := t.TempDir()
	lc, base := liveCluster(t, 3, dir)
	client := lc.Client()

	// Phase 1: acked writes on a healthy cluster.
	var acked int
	for b := 0; b < 4; b++ {
		resp, err := client.Ingest(ingestRows(50, 2_000_000+uint64(b)*1000))
		if err != nil {
			t.Fatal(err)
		}
		acked += resp.AckedRows
		if resp.FailedRows != 0 {
			t.Fatalf("unexpected quorum failure pre-kill: %+v", resp.Parts)
		}
	}

	// Kill a member, keep ingesting. Partitions whose primary died fail
	// (unacked); partitions with a live primary but the dead replica
	// also fail quorum 2/2 — either way no acked write involves the
	// dead node without having hit its WAL first.
	victim := lc.IDs()[2]
	lc.Kill(victim)
	var duringAcked, duringFailed int
	for b := 0; b < 4; b++ {
		resp, err := client.Ingest(ingestRows(50, 3_000_000+uint64(b)*1000))
		if err != nil {
			t.Fatal(err)
		}
		duringAcked += resp.AckedRows
		duringFailed += resp.FailedRows
	}
	if duringFailed == 0 {
		t.Fatalf("expected some quorum failures with a dead owner (W=R=2)")
	}

	// Revive: base reload + own-WAL replay + log-tail catch-up.
	if _, err := lc.Revive(victim, ""); err != nil {
		t.Fatal(err)
	}

	// No acked write lost, and the restarted member is bit-identical to
	// the never-killed holders.
	assertHoldersAgree(t, lc)
	res, _, err := lc.Node(victim).ScatterGather(wholeSpace(query.Count, 0))
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Value) < len(base)+acked+duringAcked {
		t.Fatalf("post-recovery COUNT %v lost acked rows (want >= %d)",
			res.Value, len(base)+acked+duringAcked)
	}
}

// TestMemoryOnlyReviveCatchesUp: without a WAL, a killed and revived
// member boots behind its peers and catches up from their partition
// snapshots — as a replica and as a primary — so every batch after the
// revive is acked at quorum and every holder of a partition ends at the
// same sequence and digest root.
func TestMemoryOnlyReviveCatchesUp(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(3, Config{Agent: cfg, Replicas: 2, WriteQuorum: 2,
		Cooldown: 50 * time.Millisecond}, testRows(2_000, 11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	client := lc.Client()
	ingest := func(b int) IngestResponse {
		t.Helper()
		resp, err := client.Ingest(ingestRows(60, 5_000_000+uint64(b)*1000))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for b := 0; b < 3; b++ {
		if resp := ingest(b); resp.FailedRows != 0 {
			t.Fatalf("batch %d before the kill: %+v", b, resp.Parts)
		}
	}
	victim := lc.IDs()[2]
	lc.Kill(victim)
	for b := 3; b < 5; b++ {
		ingest(b) // partitions the victim holds miss quorum
	}
	if _, err := lc.Revive(victim, ""); err != nil {
		t.Fatal(err)
	}
	// The survivors hold the victim open until their cooldown ends and
	// then admit one probe call to it at a time, so the first batches
	// after the revive may still miss it. Once one batch is acked in
	// full, every later one must be.
	time.Sleep(100 * time.Millisecond)
	b := 5
	for ; ingest(b).FailedRows != 0; b++ {
		if b == 15 {
			t.Fatal("no batch acked in full after the revive")
		}
	}
	for end := b + 5; b < end; b++ {
		if resp := ingest(b); resp.FailedRows != 0 {
			t.Fatalf("batch %d after the revive acked %d of %d rows: %+v",
				b, resp.AckedRows, resp.AckedRows+resp.FailedRows, resp.Parts)
		}
	}
	any := lc.Node(lc.IDs()[0])
	for p := 0; p < any.Partitions(); p++ {
		var ref PartDigest
		for i, id := range any.PartitionOwners(p) {
			d, ok := lc.Node(id).digestPartition(p)
			if !ok {
				t.Fatalf("owner %s does not hold partition %d", id, p)
			}
			if i > 0 && (d.LastSeq != ref.LastSeq || d.Root != ref.Root) {
				t.Fatalf("partition %d: holders disagree: seq %d root %s vs seq %d root %s",
					p, d.LastSeq, d.Root, ref.LastSeq, ref.Root)
			}
			ref = d
		}
	}
}

func TestIngestNonPrimaryProxiesToPrimary(t *testing.T) {
	lc, _ := liveCluster(t, 3, t.TempDir())
	node0 := lc.Node(lc.IDs()[0])

	// Find a key whose partition primary is NOT n0, so posting the row
	// to n0 forces the proxy hop.
	var key uint64
	var part int
	found := false
	for k := uint64(5_000_000); k < 5_000_500; k++ {
		p := node0.partitionForKey(k)
		if owners := node0.PartitionOwners(p); len(owners) > 0 && owners[0] != node0.ID() {
			key, part, found = k, p, true
			break
		}
	}
	if !found {
		t.Skip("no foreign-primary key in probe range")
	}

	body, _ := json.Marshal(IngestRequest{Rows: []WireRow{{Key: key, Vec: []float64{1, 2, 3}}}})
	resp, err := http.Post(lc.URL(node0.ID())+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.AckedRows != 1 || out.FailedRows != 0 {
		t.Fatalf("proxied ingest not acked: %+v", out)
	}
	// The row must be visible on the primary (and every holder).
	primary := lc.Node(node0.PartitionOwners(part)[0])
	probe := query.Query{
		Select:    query.Selection{Los: []float64{-1e9, -1e9}, His: []float64{1e9, 1e9}},
		Aggregate: query.Count,
	}
	st, ok := primary.PartialState(part, probe)
	if !ok || len(st) == 0 {
		t.Fatalf("primary lost partition %d", part)
	}
}

func TestIngestForwardedRequestNeverBounces(t *testing.T) {
	lc, _ := liveCluster(t, 3, t.TempDir())
	node0 := lc.Node(lc.IDs()[0])

	var key uint64
	found := false
	for k := uint64(6_000_000); k < 6_000_500; k++ {
		p := node0.partitionForKey(k)
		if owners := node0.PartitionOwners(p); len(owners) > 0 && owners[0] != node0.ID() {
			key, found = k, true
			break
		}
	}
	if !found {
		t.Skip("no foreign-primary key in probe range")
	}

	// A request already marked as forwarded must NOT hop again: the
	// non-primary reports a per-partition error instead of bouncing.
	body, _ := json.Marshal(IngestRequest{Rows: []WireRow{{Key: key, Vec: []float64{1, 2, 3}}}})
	req, _ := http.NewRequest(http.MethodPost, lc.URL(node0.ID())+"/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hdrHops, strconv.Itoa(maxIngestHops))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.AckedRows != 0 || out.FailedRows != 1 {
		t.Fatalf("forwarded ingest to non-primary must fail, got %+v", out)
	}
	if len(out.Parts) != 1 || !strings.Contains(out.Parts[0].Error, "not the primary") {
		t.Fatalf("expected a not-the-primary error, got %+v", out.Parts)
	}
}

func TestQueryForwardAntiBounceAnswersLocally(t *testing.T) {
	lc, _ := exactCluster(t, 3)
	node0 := lc.Node(lc.IDs()[0])

	// Find a query whose ring owners exclude n0.
	qs := aggStreams(777)[0]
	var q query.Query
	found := false
	for i := 0; i < 200; i++ {
		cand := qs.Next()
		owners := ownersOf(node0, cand)
		isOwner := false
		for _, o := range owners {
			if o == node0.ID() {
				isOwner = true
			}
		}
		if !isOwner {
			q, found = cand, true
			break
		}
	}
	if !found {
		t.Skip("no non-owned query found")
	}

	// Without the header, the non-owner proxies to a ring owner.
	post := func(withHeader bool) QueryResponse {
		t.Helper()
		body, _ := json.Marshal(queryToWire(q, ""))
		req, _ := http.NewRequest(http.MethodPost, lc.URL(node0.ID())+"/v1/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if withHeader {
			req.Header.Set(hdrHops, "1")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d", resp.StatusCode)
		}
		var out QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	proxied := post(false)
	if proxied.Node == node0.ID() {
		t.Fatalf("non-owner answered an owned query locally without the forward header")
	}
	owners := ownersOf(node0, q)
	isOwner := false
	for _, o := range owners {
		if o == proxied.Node {
			isOwner = true
		}
	}
	if !isOwner {
		t.Fatalf("proxied query answered by %s, not a ring owner %v", proxied.Node, owners)
	}

	// With the header, the same non-owner must answer locally — the
	// anti-bounce guarantee that stops forwarding loops outright.
	bounced := post(true)
	if bounced.Node != node0.ID() {
		t.Fatalf("forwarded query hopped again: answered by %s, want %s", bounced.Node, node0.ID())
	}
}

// TestReplicateGapHealsInline: a replica that missed a batch heals the
// gap inline when the next batch arrives, and acks it — from the
// primary's log tail when one continues its copy, from the primary's
// snapshot when none does (no WAL, or a log re-seeded past the gap).
// Both copies end with the same rows, sequence and partial state.
func TestReplicateGapHealsInline(t *testing.T) {
	for _, tc := range []struct {
		name        string
		wal, reseed bool
	}{
		{"wal", true, false},
		{"memory-only", false, false},
		{"reseeded", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.wal {
				dir = t.TempDir()
			}
			lc, _ := liveCluster(t, 3, dir)
			node0 := lc.Node(lc.IDs()[0])

			// Pick a partition whose primary is n0 with a distinct replica.
			part := -1
			var replica *Node
			for p := 0; p < node0.Partitions(); p++ {
				owners := node0.PartitionOwners(p)
				if len(owners) >= 2 && owners[0] == node0.ID() {
					part, replica = p, lc.Node(owners[1])
					break
				}
			}
			if part < 0 || replica == nil {
				t.Skip("no n0-primary partition with a replica")
			}
			batch := func(first uint64) []storage.Row {
				var rows []storage.Row
				for k := first; len(rows) < 3; k++ {
					if node0.partitionForKey(k) == part {
						rows = append(rows, storage.Row{Key: k, Vec: []float64{float64(k % 7), 5, 6}})
					}
				}
				return rows
			}
			// Two acked batches first, so a seed covers more than one batch.
			for b := uint64(0); b < 2; b++ {
				if pr := node0.primaryIngest(part, batch(41_000_000+b*1000), "", envelope{}, nil); !pr.Acked {
					t.Fatalf("ingest before the gap: %+v", pr)
				}
			}

			// Create a replication gap: apply a batch on the primary only
			// (as if the replica's connection dropped mid-replication).
			pt := node0.livePart(part)
			seq := pt.seq() + 1
			if err := node0.applyBatch(pt, true, seq, batch(42_000_000), nil); err != nil {
				t.Fatal(err)
			}
			if replica.PartLastSeq(part) != seq-1 {
				t.Fatalf("replica unexpectedly has seq %d", replica.PartLastSeq(part))
			}
			if tc.reseed {
				// An install or a repair re-seeds the log: one entry at
				// seq holding every ingested row, which is no batch.
				pt.ingest.Lock()
				err := seedLog(pt.wal.Load(), pt)
				pt.ingest.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}

			// Ingest the next batch through the normal path: the replica
			// sees a sequence gap, heals inline, and acks.
			if pr := node0.primaryIngest(part, batch(43_000_000), "", envelope{}, nil); !pr.Acked {
				t.Fatalf("gapped replica did not heal: %+v", pr)
			}
			if got := replica.PartLastSeq(part); got != seq+1 {
				t.Fatalf("replica lastSeq = %d after heal, want %d", got, seq+1)
			}
			pd, rd := pt.digest(), replica.livePart(part).digest()
			if pd.Rows != rd.Rows {
				t.Fatalf("replica holds %d rows, primary %d", rd.Rows, pd.Rows)
			}
			probe := wholeSpace(query.Var, 2)
			a, _ := node0.PartialState(part, probe)
			b, _ := replica.PartialState(part, probe)
			if !equalFloats(a, b) {
				t.Fatalf("healed replica diverges: %v != %v", b, a)
			}
		})
	}
}

// heldState maps "node/partition" to that live copy's row count and last
// applied sequence, plus "node" to the node's rows_held.
func heldState(lc *LocalCluster) map[string][2]uint64 {
	out := make(map[string][2]uint64)
	for _, id := range lc.IDs() {
		st := lc.Node(id).NodeStatus()
		out[id] = [2]uint64{uint64(st.RowsHeld), 0}
		for _, ps := range st.Partitions {
			out[id+"/"+strconv.Itoa(ps.Part)] = [2]uint64{uint64(ps.Rows), ps.LastSeq}
		}
	}
	return out
}

// TestIngestRejectsWidthMismatch: a batch whose rows disagree with each
// other, or with the table's width, is refused whole with 400 — nothing
// is logged, replicated or applied on any holder — and the cluster keeps
// acking well-formed batches at quorum afterwards.
func TestIngestRejectsWidthMismatch(t *testing.T) {
	lc, _ := liveCluster(t, 3, t.TempDir())
	before := heldState(lc)
	for name, rows := range map[string][]WireRow{
		"mixed":      {{Key: 9_000_001, Vec: []float64{1, 2, 3}}, {Key: 9_000_002, Vec: []float64{1, 2}}},
		"all narrow": {{Key: 9_000_003, Vec: []float64{1, 2}}, {Key: 9_000_004, Vec: []float64{3, 4}}},
	} {
		for _, id := range lc.IDs() {
			if code := postJSON(t, lc.URL(id)+"/v1/ingest", IngestRequest{Rows: rows}, nil); code != http.StatusBadRequest {
				t.Fatalf("%s batch via %s: HTTP %d, want 400", name, id, code)
			}
		}
	}
	if after := heldState(lc); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused batches changed holder state:\n before %v\n after  %v", before, after)
	}

	// The same refusal below the front door: a replica is offered the
	// next sequence with a stray row and must neither log nor apply it.
	node0 := lc.Node(lc.IDs()[0])
	part := node0.Status().PartitionsHeld[0]
	seq := node0.PartLastSeq(part) + 1
	code := postJSON(t, lc.URL(node0.ID())+"/v1/replicate", ReplicateRequest{Part: part, Seq: seq,
		Rows: []WireRow{{Key: 9_000_005, Vec: []float64{1, 2, 3, 4}}}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("ragged replicate: HTTP %d, want 400", code)
	}
	if after := heldState(lc); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused replicate changed holder state:\n before %v\n after  %v", before, after)
	}

	resp, err := lc.Client().Ingest(ingestRows(60, 9_100_000))
	if err != nil {
		t.Fatal(err)
	}
	if resp.AckedRows != 60 || resp.FailedRows != 0 {
		t.Fatalf("well-formed batch after the refusals not acked at quorum: %+v", resp)
	}
	assertHoldersAgree(t, lc)
}

// TestElasticPartSnapRoundTrip: /v1/partsnap materialises rows from the
// columns; they must equal the resident order — the loaded rows in
// clustered order, then the ingested rows in arrival order — with
// base_len and last_seq intact, and a gainer installed from such a
// snapshot must answer bit-identically to its donor and ship the same
// snapshot onwards.
func TestElasticPartSnapRoundTrip(t *testing.T) {
	lc, base := liveCluster(t, 3, t.TempDir())
	client := lc.Client()
	node0 := lc.Node(lc.IDs()[0])
	parts := node0.Partitions()
	want := make(map[int][]storage.Row)
	for i, r := range base {
		want[i%parts] = append(want[i%parts], r)
	}
	baseLen := make(map[int]int)
	for p, rs := range want {
		want[p] = clusteredRef(rs)
		baseLen[p] = len(rs)
	}
	for b := 0; b < 3; b++ {
		batch := ingestRows(80, 4_000_000+uint64(b)*1000)
		if resp, err := client.Ingest(batch); err != nil || resp.FailedRows != 0 {
			t.Fatalf("ingest: %v %+v", err, resp)
		}
		for _, r := range batch {
			p := node0.partitionForKey(r.Key)
			want[p] = append(want[p], r)
		}
	}
	snapOf := func(id string, p int) PartSnapResponse {
		t.Helper()
		var snap PartSnapResponse
		if code := postJSON(t, lc.URL(id)+"/v1/partsnap", PartSnapRequest{Part: p}, &snap); code != http.StatusOK {
			t.Fatalf("partsnap %d from %s: HTTP %d", p, id, code)
		}
		return snap
	}
	for p := 0; p < parts; p++ {
		for _, id := range node0.PartitionOwners(p) {
			snap := snapOf(id, p)
			if snap.BaseLen != baseLen[p] || snap.LastSeq != lc.Node(id).PartLastSeq(p) || snap.LastSeq == 0 {
				t.Fatalf("partition %d on %s: base_len %d last_seq %d, want %d and %d (> 0)",
					p, id, snap.BaseLen, snap.LastSeq, baseLen[p], lc.Node(id).PartLastSeq(p))
			}
			if got := wireToRows(snap.Rows); !reflect.DeepEqual(got, want[p]) {
				t.Fatalf("partition %d on %s: snapshot rows differ from clustered base ++ arrival-order tail", p, id)
			}
		}
	}

	if err := lc.Join("n3"); err != nil {
		t.Fatal(err)
	}
	gained := lc.Node("n3").Status().PartitionsHeld
	if len(gained) == 0 {
		t.Fatal("joiner gained nothing")
	}
	for _, p := range gained {
		if got := snapOf("n3", p); !reflect.DeepEqual(wireToRows(got.Rows), want[p]) ||
			got.BaseLen != baseLen[p] || got.LastSeq != lc.Node("n3").PartLastSeq(p) {
			t.Fatalf("partition %d: gainer's snapshot differs from what its donor held", p)
		}
	}
	for _, agg := range []query.Agg{query.Count, query.Sum, query.Var, query.Corr} {
		probe := wholeSpace(agg, 2)
		for _, p := range gained {
			var ref []float64
			for _, id := range lc.Node("n3").PartitionOwners(p) {
				st, ok := lc.Node(id).PartialState(p, probe)
				if !ok {
					t.Fatalf("owner %s does not hold partition %d", id, p)
				}
				if ref == nil {
					ref = st
				} else if !equalFloats(st, ref) {
					t.Fatalf("partition %d %v: holders differ: %v != %v", p, agg, st, ref)
				}
			}
		}
	}
}
