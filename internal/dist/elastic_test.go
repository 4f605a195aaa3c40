package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/storage"
)

// countAll returns the cluster's exact whole-space row count via the
// client query path.
func countAll(t *testing.T, c *Client) float64 {
	t.Helper()
	a, err := c.Answer(wholeSpace(query.Count, 0))
	if err != nil {
		t.Fatal(err)
	}
	return a.Value
}

// TestElasticJoinMovesPartitions: a 3-node cluster gains a 4th member
// at runtime. The joiner must end up holding live partitions, every
// node must converge on the new epoch, replica holders must agree
// bit-for-bit, and no rows may be lost or duplicated by the moves.
func TestElasticJoinMovesPartitions(t *testing.T) {
	lc, rows := liveCluster(t, 3, t.TempDir())
	client := lc.Client()
	before := countAll(t, client)
	if before != float64(len(rows)) {
		t.Fatalf("baseline count %v, want %d", before, len(rows))
	}

	if err := lc.Join("n3"); err != nil {
		t.Fatal(err)
	}

	joiner := lc.Node("n3")
	st := joiner.NodeStatus()
	if len(st.Partitions) == 0 || st.RowsHeld == 0 {
		t.Fatalf("joiner holds nothing after join: %+v", st)
	}
	for _, id := range lc.IDs() {
		if e := lc.Node(id).NodeStatus().Ring.Epoch; e < 2 {
			t.Fatalf("node %s still at epoch %d after join", id, e)
		}
		if n := len(lc.Node(id).NodeStatus().Ring.Members); n != 4 {
			t.Fatalf("node %s sees %d members, want 4", id, n)
		}
	}
	// Row conservation through the moves, via both the old (stale,
	// self-refreshing) client and a fresh one.
	if after := countAll(t, client); after != before {
		t.Fatalf("count %v after join, want %v", after, before)
	}
	fresh := lc.Client()
	if after := countAll(t, fresh); after != before {
		t.Fatalf("fresh-client count %v after join, want %v", after, before)
	}
	if client.Epoch() < 2 {
		t.Fatalf("stale client never refreshed: epoch %d", client.Epoch())
	}
	assertHoldersAgree(t, lc)

	// Ingest keeps working against the new placement, including batches
	// that land on the joiner's partitions.
	if _, err := client.Ingest(ingestRows(200, 7_000_000)); err != nil {
		t.Fatal(err)
	}
	if after := countAll(t, client); after != before+200 {
		t.Fatalf("count %v after post-join ingest, want %v", after, before+200)
	}
	assertHoldersAgree(t, lc)

	rep := lc.Node("n0").ClusterReport()
	if !rep.Healthy {
		t.Fatalf("cluster unhealthy after join: %+v", rep.Findings)
	}
}

// TestElasticLeaveRetiresMember: a 4-node cluster gracefully retires
// one member. Its partitions must migrate to the survivors before the
// cutover, the cluster must converge on the new epoch, and no acked
// row may be lost.
func TestElasticLeaveRetiresMember(t *testing.T) {
	lc, rows := liveCluster(t, 4, t.TempDir())
	client := lc.Client()
	before := countAll(t, client)
	if before != float64(len(rows)) {
		t.Fatalf("baseline count %v, want %d", before, len(rows))
	}

	if err := lc.Leave("n1"); err != nil {
		t.Fatal(err)
	}
	if got := len(lc.IDs()); got != 3 {
		t.Fatalf("%d members after leave, want 3", got)
	}
	for _, id := range lc.IDs() {
		st := lc.Node(id).NodeStatus()
		if st.Ring.Epoch < 2 {
			t.Fatalf("node %s still at epoch %d after leave", id, st.Ring.Epoch)
		}
		for _, ps := range st.Partitions {
			for _, o := range ps.Owners {
				if o == "n1" {
					t.Fatalf("node %s partition %d still lists departed owner: %v", id, ps.Part, ps.Owners)
				}
			}
		}
	}
	if after := countAll(t, client); after != before {
		t.Fatalf("count %v after leave, want %v", after, before)
	}
	assertHoldersAgree(t, lc)
	if _, err := client.Ingest(ingestRows(150, 8_000_000)); err != nil {
		t.Fatal(err)
	}
	if after := countAll(t, client); after != before+150 {
		t.Fatalf("count %v after post-leave ingest, want %v", after, before+150)
	}
	rep := lc.Node("n0").ClusterReport()
	if !rep.Healthy {
		t.Fatalf("cluster unhealthy after leave: %+v", rep.Findings)
	}
}

// TestMembershipClientRefreshEvictsRemoved is the staleness regression
// test: after a member leaves, a client that has observed the new
// epoch must send the departed node ZERO further data-plane RPCs. The
// leaver keeps its HTTP server running (orchestrated via POST
// /v1/leave directly, not LocalCluster.Leave) precisely so it can
// count any RPC that would still reach it.
func TestMembershipClientRefreshEvictsRemoved(t *testing.T) {
	lc, _ := liveCluster(t, 4, t.TempDir())
	client := lc.Client()
	if _, err := client.Answer(wholeSpace(query.Sum, 2)); err != nil {
		t.Fatal(err)
	}
	if client.Epoch() != 1 {
		t.Fatalf("client epoch %d before churn, want 1", client.Epoch())
	}

	leaver := lc.Node("n3")
	body, _ := json.Marshal(LeaveRequest{ID: "n3"})
	resp, err := http.Post(lc.URL("n0")+"/v1/leave", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: HTTP %d", resp.StatusCode)
	}

	// The next successful client call returns a survivor's epoch-2
	// stamp, which must trigger a synchronous membership refresh.
	if _, err := client.Status(); err != nil {
		t.Fatal(err)
	}
	if client.Epoch() < 2 {
		t.Fatalf("client stuck at epoch %d after observing the new view", client.Epoch())
	}

	base := leaver.DataRPCs()
	for i := 0; i < 40; i++ {
		if _, err := client.Answer(wholeSpace(query.Sum, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Ingest(ingestRows(60, 9_000_000)); err != nil {
		t.Fatal(err)
	}
	if got := leaver.DataRPCs(); got != base {
		t.Fatalf("departed node received %d data RPCs from a refreshed client", got-base)
	}
}

// TestAntiEntropyRepairsCorruptReplica: silently corrupt a replica's
// in-memory copy (same sequence, different bytes — invisible to the
// replication protocol), then drive the armed anti-entropy tick and
// require it to detect the divergence and heal the replica back to a
// bit-identical copy of the primary.
func TestAntiEntropyRepairsCorruptReplica(t *testing.T) {
	rows := testRows(2_000, 11)
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(3, Config{Agent: cfg, Replicas: 2, AntiEntropy: -1}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)

	// Find a partition with a distinct primary and replica holder.
	any := lc.Node(lc.IDs()[0])
	part, primaryID, replicaID := -1, "", ""
	for p := 0; p < any.Partitions(); p++ {
		owners := any.PartitionOwners(p)
		if len(owners) >= 2 {
			part, primaryID, replicaID = p, owners[0], owners[1]
			break
		}
	}
	if part < 0 {
		t.Fatal("no replicated partition found")
	}
	primary, replica := lc.Node(primaryID), lc.Node(replicaID)

	if !replica.CorruptPartition(part) {
		t.Fatalf("could not corrupt partition %d on %s", part, replicaID)
	}
	probe := wholeSpace(query.Var, 2)
	pState, _ := primary.PartialState(part, probe)
	rState, _ := replica.PartialState(part, probe)
	if equalFloats(pState, rState) {
		t.Fatal("corruption did not diverge the replica")
	}

	if repaired := replica.AntiEntropyTick(); repaired != 1 {
		t.Fatalf("tick repaired %d partitions, want 1", repaired)
	}
	if got := replica.AntiEntropyRepairs(); got != 1 {
		t.Fatalf("repairs counter %d, want 1", got)
	}
	pState, _ = primary.PartialState(part, probe)
	rState, _ = replica.PartialState(part, probe)
	if !equalFloats(pState, rState) {
		t.Fatalf("replica not bit-identical after repair: %v != %v", rState, pState)
	}
	c := replica.AntiEntropyCountersSnapshot()
	if c.Ticks == 0 || c.Checked == 0 || c.Divergent != 1 {
		t.Fatalf("counters not advanced: %+v", c)
	}
	// A second tick finds nothing to do.
	if repaired := replica.AntiEntropyTick(); repaired != 0 {
		t.Fatalf("second tick repaired %d partitions, want 0", repaired)
	}
}

// TestAntiEntropyHealsMemoryOnlyLag: one tick brings a memory-only
// replica that missed batches level with its primary. No holder keeps a
// log, so the catch-up takes the primary's snapshot.
func TestAntiEntropyHealsMemoryOnlyLag(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(3, Config{Agent: cfg, Replicas: 2, AntiEntropy: -1}, testRows(2_000, 11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	any := lc.Node(lc.IDs()[0])
	owners := any.PartitionOwners(0)
	primary, replica := lc.Node(owners[0]), lc.Node(owners[1])
	pt := primary.livePart(0)
	for seq := uint64(1); seq <= 2; seq++ {
		rows := []storage.Row{{Key: 44_000_000 + seq, Vec: []float64{1, 2, float64(seq)}}}
		if err := primary.applyBatch(pt, true, seq, rows, nil); err != nil {
			t.Fatal(err)
		}
	}
	if replica.PartLastSeq(0) != 0 {
		t.Fatalf("replica unexpectedly has seq %d", replica.PartLastSeq(0))
	}
	replica.AntiEntropyTick()
	if got, want := replica.livePart(0).digest(), pt.digest(); got.LastSeq != want.LastSeq || got.Root != want.Root {
		t.Fatalf("replica at seq %d root %s after one tick, primary at seq %d root %s",
			got.LastSeq, got.Root, want.LastSeq, want.Root)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAntiEntropyDisarmedTick: with AntiEntropy unset the tick must be
// an inert no-op (the hot-path guarantee the CI bench pins as
// zero-allocation).
func TestAntiEntropyDisarmedTick(t *testing.T) {
	lc, _ := exactCluster(t, 3)
	n := lc.Node(lc.IDs()[0])
	if got := n.AntiEntropyTick(); got != 0 {
		t.Fatalf("disarmed tick returned %d", got)
	}
	c := n.AntiEntropyCountersSnapshot()
	if c.Ticks != 0 || c.Checked != 0 {
		t.Fatalf("disarmed tick advanced counters: %+v", c)
	}
}

// TestElasticCloseDrainUnderIngest is the graceful-leave drain hammer
// (run under -race in CI): members join and leave while ingest batches
// and queries are in flight. Clients must see zero errors — the
// leaving member finishes the replication acks it has accepted before
// shutting down, and failover masks the rest — and every acked row
// must be countable after the churn settles.
func TestElasticCloseDrainUnderIngest(t *testing.T) {
	lc, rows := liveCluster(t, 3, t.TempDir())
	client := lc.Client()

	var (
		wg      sync.WaitGroup
		acked   atomic.Int64
		stop    atomic.Bool
		failed  atomic.Bool
		firstMu sync.Mutex
		firstEr error
	)
	fail := func(err error) {
		firstMu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		firstMu.Unlock()
		failed.Store(true)
	}

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := uint64(20_000_000 + w*1_000_000)
			for b := 0; b < 25 && !stop.Load(); b++ {
				const batch = 20
				r, err := client.Ingest(ingestRows(batch, key))
				key += batch
				if err != nil {
					fail(fmt.Errorf("ingest: %w", err))
					return
				}
				n := 0
				for _, pr := range r.Parts {
					if !pr.Acked {
						fail(fmt.Errorf("unacked partition %d mid-churn at seq %d: %q", pr.Part, pr.Seq, pr.Error))
						return
					}
					n += pr.Rows
				}
				acked.Add(int64(n))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60 && !stop.Load(); i++ {
			if _, err := client.Answer(wholeSpace(query.Sum, 2)); err != nil {
				fail(fmt.Errorf("query: %w", err))
				return
			}
		}
	}()

	if err := lc.Join("n3"); err != nil {
		fail(err)
	}
	if err := lc.Leave("n0"); err != nil {
		fail(err)
	}
	stop.Store(false) // writers run to completion; churn happened mid-flight
	wg.Wait()
	if failed.Load() {
		t.Fatal(firstEr)
	}

	want := float64(len(rows)) + float64(acked.Load())
	if got := countAll(t, client); got != want {
		t.Fatalf("count %v after churn, want %v (%d acked rows)", got, want, acked.Load())
	}
	assertHoldersAgree(t, lc)
}

// TestAntiEntropyDigestGolden pins the digest wire format: the root and
// chunk list of a fixed 2,500-row partition (2,400 loaded + 4 ingested
// batches of 25) at sequence 4. The hash is over the resident order, and
// that order changed once, here: Load now lays the 2,400 base rows down
// in clustered (Z-order) order, the 100 ingested rows follow in arrival
// order. The hashing itself is untouched — the values before this change
// (root 827f8447ecc2a5f5) were computed by the last commit that hashed
// []storage.Row copies — and the order behind the new values is pinned
// against an independent reference by
// TestLayoutClusteredBaseEqualOnReplicas.
func TestAntiEntropyDigestGolden(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(1, Config{Agent: cfg, Replicas: 1, Partitions: 1}, testRows(2_400, 11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	for b := 0; b < 4; b++ {
		if _, err := lc.Client().Ingest(ingestRows(25, 1_000_000+uint64(b)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	var d PartDigest
	if code := postJSON(t, lc.URL("n0")+"/v1/digest", DigestRequest{Part: 0}, &d); code != http.StatusOK {
		t.Fatalf("digest: HTTP %d", code)
	}
	wantChunks := []uint64{0xc9f19288a289f144, 0xc87d3885b4927b50, 0x737c0c1b24788049}
	if d.Rows != 2_500 || d.LastSeq != 4 || d.Root != "2ef2f267d0b7a5fe" || !reflect.DeepEqual(d.Chunks, wantChunks) {
		t.Fatalf("digest drifted from the golden values: rows=%d seq=%d root=%s chunks=%#x",
			d.Rows, d.LastSeq, d.Root, d.Chunks)
	}
}

// assertConserved checks the invariants every lifecycle step must
// keep: each member's /v1/status rows_held equals the sum of its
// per-partition rows; every partition has exactly two live holders and
// they report the same last_seq and digest root; and the rows across
// partitions add up to wantRows.
func assertConserved(t *testing.T, lc *LocalCluster, step string, wantRows int) {
	t.Helper()
	type copyState struct {
		node string
		rows int
		seq  uint64
		root string
	}
	first := make(map[int]copyState)
	holders := make(map[int]int)
	for _, id := range lc.IDs() {
		node := lc.Node(id)
		if node == nil {
			continue
		}
		resp, err := http.Get(lc.URL(id) + "/v1/status")
		if err != nil {
			t.Fatalf("%s: status of %s: %v", step, id, err)
		}
		var st NodeStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: status of %s: %v", step, id, err)
		}
		var sum int64
		for _, ps := range st.Partitions {
			sum += int64(ps.Rows)
			d, ok := node.digestPartition(ps.Part)
			if !ok {
				t.Fatalf("%s: %s lists partition %d but cannot digest it", step, id, ps.Part)
			}
			cur := copyState{node: id, rows: ps.Rows, seq: ps.LastSeq, root: d.Root}
			holders[ps.Part]++
			if ref, seen := first[ps.Part]; !seen {
				first[ps.Part] = cur
			} else if ref.seq != cur.seq || ref.root != cur.root || ref.rows != cur.rows {
				t.Fatalf("%s: partition %d diverged: %+v vs %+v", step, ps.Part, ref, cur)
			}
		}
		if st.RowsHeld != sum {
			t.Fatalf("%s: %s rows_held %d != sum of partition rows %d", step, id, st.RowsHeld, sum)
		}
	}
	total := 0
	for p := 0; p < lc.Node(lc.IDs()[0]).Partitions(); p++ {
		if holders[p] != 2 {
			t.Fatalf("%s: partition %d has %d live holders, want 2", step, p, holders[p])
		}
		total += first[p].rows
	}
	if total != wantRows {
		t.Fatalf("%s: %d rows across partitions, want %d", step, total, wantRows)
	}
}

// TestElasticLifecycleConservation walks partition copies through every
// state move — load, ingest, stage → install on a joiner (retire on the
// losers), re-gain from a staged copy that supersedes a retired one,
// kill → WAL replay, re-gain that promotes a retired copy (a view
// pushed without the migrate RPC), corrupt → repair — and checks the
// conservation invariants after each.
func TestElasticLifecycleConservation(t *testing.T) {
	rows := testRows(2_000, 11)
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(3, Config{Agent: cfg, Replicas: 2, WriteQuorum: 2,
		DataDir: t.TempDir(), AntiEntropy: -1}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	client := lc.Client()
	want, key := len(rows), uint64(30_000_000)
	ingest := func(step string) {
		t.Helper()
		resp, err := client.Ingest(ingestRows(120, key))
		if err != nil || resp.FailedRows != 0 {
			t.Fatalf("%s: ingest: %v %+v", step, err, resp)
		}
		key += 120
		want += 120
		assertConserved(t, lc, step, want)
	}
	retiredOn := func(ids ...string) (retired, staged int) {
		for _, id := range ids {
			rs := lc.Node(id).RebalanceStatus()
			retired, staged = retired+rs.Retired, staged+rs.Staged
		}
		return retired, staged
	}
	founders := lc.IDs()

	assertConserved(t, lc, "load", want)
	ingest("ingest")

	if err := lc.Join("n3"); err != nil {
		t.Fatal(err)
	}
	if retired, _ := retiredOn(founders...); retired == 0 {
		t.Fatal("join retired nothing on the founders")
	}
	ingest("join")

	if err := lc.Leave("n3"); err != nil {
		t.Fatal(err)
	}
	if retired, staged := retiredOn(founders...); retired != 0 || staged != 0 {
		t.Fatalf("leave: founders keep %d retired and %d staged copies after re-gaining from staged ones", retired, staged)
	}
	ingest("leave")

	lc.Kill("n1")
	if _, err := lc.Revive("n1", ""); err != nil {
		t.Fatal(err)
	}
	assertConserved(t, lc, "kill+replay", want)
	ingest("after replay")

	// A member joins and the founders retire copies to it; then a view
	// without it is pushed straight to every member, with no migrate
	// RPC: the founders have nothing staged and must promote their
	// retired copies, draining what they missed from the old holders.
	if err := lc.Join("n4"); err != nil {
		t.Fatal(err)
	}
	ingest("second join")
	if retired, _ := retiredOn(founders...); retired == 0 {
		t.Fatal("second join retired nothing on the founders")
	}
	cur := lc.Node("n0").members().view
	next := View{Epoch: cur.Epoch + 1}
	for _, m := range cur.Members {
		if m.ID != "n4" {
			next.Members = append(next.Members, m)
		}
	}
	for _, id := range append(founders, "n4") {
		if code := postJSON(t, lc.URL(id)+"/v1/membership", next, nil); code != http.StatusOK {
			t.Fatalf("push view to %s: HTTP %d", id, code)
		}
	}
	if retired, staged := retiredOn(founders...); retired != 0 || staged != 0 {
		t.Fatalf("promotion: founders keep %d retired and %d staged copies", retired, staged)
	}
	lc.Kill("n4")
	assertConserved(t, lc, "promote retired", want)
	ingest("after promotion")

	// Corrupt a replica; one armed anti-entropy tick must heal it.
	n0 := lc.Node("n0")
	for p := 0; p < n0.Partitions(); p++ {
		owners := n0.PartitionOwners(p)
		replica := lc.Node(owners[1])
		if !replica.CorruptPartition(p) {
			t.Fatalf("could not corrupt partition %d on %s", p, owners[1])
		}
		if repaired := replica.AntiEntropyTick(); repaired != 1 {
			t.Fatalf("tick repaired %d partitions, want 1", repaired)
		}
		break
	}
	assertConserved(t, lc, "corrupt+repair", want)
	ingest("after repair")
}

// TestReplicateHealsStagedCopyGap: a primary that adopted a new view
// before the gainer did replicates to the gainer's staged copy, which
// is missing the batches sequenced since its snapshot (they went to the
// old owners only). The staged copy must heal the gap from the holders
// and ack, not answer 409 and cost the client its ack.
func TestReplicateHealsStagedCopyGap(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(2, Config{Agent: cfg, Replicas: 1, WriteQuorum: 1, Partitions: 2,
		DataDir: t.TempDir()}, testRows(400, 11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	primary := lc.Node(lc.Node("n0").PartitionOwners(0)[0])
	gainer := lc.Node("n0")
	if gainer == primary {
		gainer = lc.Node("n1")
	}
	batch := func(first uint64) []storage.Row {
		var rows []storage.Row
		for k := first; len(rows) < 3; k++ {
			if primary.partitionForKey(k) == 0 {
				rows = append(rows, storage.Row{Key: k, Vec: []float64{1, 2, 3}})
			}
		}
		return rows
	}
	if err := gainer.stageParts([]MigratePart{{Part: 0, Donors: []string{selfURL(primary)}}}); err != nil {
		t.Fatal(err)
	}
	var last []storage.Row
	for b := uint64(0); b < 3; b++ {
		last = batch(9_400_000 + b*1000)
		if pr := primary.primaryIngest(0, last, "", envelope{}, nil); !pr.Acked {
			t.Fatalf("ingest on the primary: %+v", pr)
		}
	}
	seq := primary.PartLastSeq(0)
	got, err := primary.replicateTo(selfURL(gainer), 0, seq, last)
	if err != nil {
		t.Fatal(err)
	}
	if got != seq {
		t.Fatalf("staged copy answered last_seq %d, want %d (gap not healed)", got, seq)
	}
	gainer.mu.RLock()
	staged := gainer.staged[0].pt
	gainer.mu.RUnlock()
	if want := primary.livePart(0).digest(); staged.digest().Root != want.Root {
		t.Fatal("healed staged copy differs from the primary's")
	}
}
