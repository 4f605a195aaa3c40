package dist

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/trace"
)

// This file is the cluster's replicated write path (the live data
// plane):
//
//	POST /v1/ingest     client-facing row batches; rows are routed to
//	                    their partitions by key hash, each partition
//	                    batch is handled by (or forwarded to) the
//	                    partition's primary and acknowledged at the
//	                    configured write quorum
//	POST /v1/replicate  primary-to-replica sequenced batch shipping
//	POST /v1/walfetch   log-tail fetch for recovering replicas
//
// Sequencing: the first ring owner of a partition is its primary and
// assigns a per-partition monotonically increasing batch sequence.
// Replicas apply batches strictly in order (a gap is rejected, not
// buffered), so every holder's partition content is a prefix of the
// same log — which is what makes a restarted replica, after WAL replay
// plus catch-up, answer bit-identically to one that never died.
// Durability comes from the per-partition WAL (internal/ingest): with
// the default fsync policy a batch is on stable storage at every acking
// owner before the client sees the ack.

// partitionForKey routes an ingested row to its data partition with
// storage.MixKey, the row-placement hash the simulator's hash-partitioned
// tables also use, so sequential keys spread uniformly.
func (n *Node) partitionForKey(key uint64) int {
	return int(storage.MixKey(key) % uint64(n.cfg.Partitions))
}

// applyBatch makes one sequenced batch part of copy pt via
// partition.append (the caller holds its ingest lock; replay runs before
// serving). On a live copy the node data version advances with
// visibility and the agent's incremental-maintenance state follows; a
// staged or retired copy only keeps rows and sequence current — models
// absorb a batch where it is live. A non-nil parent span gets
// wal_append/absorb children (traced ingest).
func (n *Node) applyBatch(pt *partition, live bool, seq uint64, rows []storage.Row, sp *trace.Span) error {
	var counter *atomic.Int64
	if live {
		counter = &n.version
	}
	ver, err := pt.append(seq, rows, counter, sp)
	if err != nil || !live {
		return err
	}
	asp := sp.Child("absorb")
	vecs := make([][]float64, len(rows))
	for i, r := range rows {
		vecs[i] = r.Vec
	}
	res := n.pool.Agent().AbsorbRows(ver, vecs)
	n.pool.Recorder().DriftInvalidate(res.InvalidatedQuanta)
	// Only now — with the agent's models caught up — may answer-cache
	// entries be stamped with this version.
	n.publishAbsorbed(ver)
	n.pool.Recorder().IngestBatch(len(rows))
	asp.End()
	asp.SetAttrInt("rows", int64(len(rows)))
	return nil
}

// offer is the replica-side sequencing rule, stated once (the caller
// holds pt's ingest lock): at or below the last applied sequence is a
// duplicate delivery, the next in sequence applies, anything later is a
// gap to heal or refuse — never buffered, so every copy stays a prefix
// of one log. It returns the last applied sequence afterwards: seq <=
// last means the batch is covered, seq > last that it is still gapped.
func (n *Node) offer(pt *partition, live bool, seq uint64, rows []storage.Row) (uint64, error) {
	last := pt.seq()
	if seq != last+1 {
		return last, nil
	}
	if err := n.applyBatch(pt, live, seq, rows, nil); err != nil {
		return last, err
	}
	return seq, nil
}

// idemCacheCap bounds the primary-side ingest idempotency cache: FIFO
// over (idem key, partition) outcomes. 4096 entries comfortably covers
// a client's retry window; anything older has long been acked or given
// up on.
const idemCacheCap = 4096

// idemSlot keys the idempotency cache: one client batch under one key
// has one outcome per partition it touched.
type idemSlot struct {
	key  string
	part int
}

// idemGet returns the stored outcome of (key, part) when this primary
// already applied that batch under the same idempotency key.
func (n *Node) idemGet(key string, p int) (PartIngestResult, bool) {
	if key == "" {
		return PartIngestResult{}, false
	}
	n.idemMu.Lock()
	defer n.idemMu.Unlock()
	pr, ok := n.idem[idemSlot{key, p}]
	return pr, ok
}

// idemPut remembers an applied batch's outcome for replay (bounded
// FIFO eviction).
func (n *Node) idemPut(key string, p int, pr PartIngestResult) {
	if key == "" {
		return
	}
	k := idemSlot{key, p}
	n.idemMu.Lock()
	defer n.idemMu.Unlock()
	if _, dup := n.idem[k]; !dup {
		n.idemOrder = append(n.idemOrder, k)
		if len(n.idemOrder) > idemCacheCap {
			delete(n.idem, n.idemOrder[0])
			n.idemOrder = n.idemOrder[1:]
		}
	}
	n.idem[k] = pr
}

// writeQuorum returns the ack threshold for a partition with the given
// owner count.
func (n *Node) writeQuorum(owners int) int {
	q := n.cfg.WriteQuorum
	if q > owners {
		q = owners
	}
	if q < 1 {
		q = 1
	}
	return q
}

func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !n.ingestGate() {
		serve.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": errNodeClosing.Error()})
		return
	}
	defer n.closeDone()
	var req IngestRequest
	if !decodeBody(w, r, rowsBodyLimit, &req) {
		return
	}
	if len(req.Rows) == 0 {
		serve.WriteError(w, fmt.Errorf("%w: ingest batch needs rows", query.ErrBadQuery))
		return
	}
	// The client's body deadline folds into the envelope, which every
	// forward hop carries. Refuse dead-on-arrival batches: the client
	// stopped waiting, and an applied-but-unacked write is worse than a
	// refused one.
	env := envelopeOf(r).until(req.DeadlineMS)
	if env.expired() {
		serve.WriteError(w, serve.ErrDeadline)
		return
	}
	batch := wireToRows(req.Rows)
	for i, row := range batch {
		if len(row.Vec) == 0 {
			serve.WriteError(w, fmt.Errorf("%w: ingest row %d has an empty vector", query.ErrBadQuery, i))
			return
		}
	}
	// One width per batch, and the schema's when this node knows it: a
	// stray row must be refused here, whole, not logged and replicated.
	if err := checkWidth(batch, n.schemaWidth()); err != nil {
		serve.WriteError(w, fmt.Errorf("ingest: %w", err))
		return
	}
	groups := make(map[int][]storage.Row)
	for _, row := range batch {
		p := n.partitionForKey(row.Key)
		groups[p] = append(groups[p], row)
	}
	parts := make([]int, 0, len(groups))
	for p := range groups {
		parts = append(parts, p)
	}
	sort.Ints(parts)

	// A forwarder routed this batch by a view this node has not adopted
	// yet (the cutover push is still on its way): by the old view the
	// node would forward the batch back, and the two would bounce it
	// until the hop budget refused it. Catch up first, synchronously.
	if env.epoch > n.epoch() {
		n.refreshMembership()
	}
	ms := n.members()
	// ?trace=1 (or a forwarder's trace flag) records the write path as a
	// span tree: wal_append/absorb per applied partition, replicate
	// fan-out, and the forwarded primaries' own trees stitched under the
	// forward spans.
	var root *trace.Span
	if env.trace || serve.TraceRequested(r) {
		root = trace.NewSpan("ingest", n.id)
	}
	// The partitions of a batch commit side by side, one goroutine each
	// (the work is fsync and RPC wait, so the bound is the batch's
	// partition count): a partition's lock, log, sequence and version
	// bump are its own, so they share nothing to order. Results land by
	// position, which keeps Parts in ascending partition order.
	resp := IngestResponse{Node: n.id, Parts: make([]PartIngestResult, len(parts))}
	runBounded(0, len(parts), func(i int) {
		p := parts[i]
		rows := groups[p]
		owners := ms.ring.Owners(partKey(p), n.cfg.Replicas)
		var pr PartIngestResult
		psp := root.Child("part")
		switch {
		case len(owners) > 0 && owners[0] == n.id:
			pr = n.primaryIngest(p, rows, req.IdemKey, env, psp)
		case env.hops >= maxIngestHops:
			// Anti-bounce: the hop budget is spent. A persisting ring
			// disagreement must surface as an error, not bounce again —
			// and never as a silent non-primary apply, which would fork
			// the partition's sequence. (One re-forward hop IS allowed,
			// so a request that raced a membership change still lands.)
			pr = PartIngestResult{Part: p, Rows: len(rows),
				Error: fmt.Sprintf("dist: node %s is not the primary of partition %d", n.id, p)}
		default:
			pr = n.forwardIngest(owners, p, rows, req.IdemKey, env, psp)
			// The batch changed data this node holds no replica of, so
			// its own version counter stays put — advance the ingest
			// epoch instead so cached cluster-wide answers expire.
			n.ingestEpoch.Add(1)
		}
		psp.End()
		psp.SetAttrInt("part", int64(p))
		psp.SetAttrInt("rows", int64(len(rows)))
		resp.Parts[i] = pr
	})
	for _, pr := range resp.Parts {
		if pr.Acked {
			resp.AckedRows += pr.Rows
		} else {
			resp.FailedRows += pr.Rows
		}
	}
	resp.Version = n.DataVersion()
	if root != nil {
		root.End()
		resp.Spans = []trace.WireSpan{root.Wire()}
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// primaryIngest sequences one partition batch, applies it locally and
// replicates it to the other ring owners, acking at the write quorum.
// The local apply happens first: an unacked batch may therefore still
// be present on a minority of owners (standard quorum semantics — the
// caller must treat unacked as lost-or-present). A batch whose
// idempotency key this primary already applied replays the stored
// outcome instead of re-applying the rows, so a client retrying a
// broken connection cannot double-ingest; a stored outcome that missed
// the quorum is offered to the replicas again first.
//
// Primaryship is re-resolved UNDER the partition's ingest lock: a view
// change can move it while the request waits, and sequencing a batch on
// the old primary after cutover would fork the partition's log. A batch
// that lost the race re-forwards (with the lock RELEASED first — the
// new primary's cutover sync may be fetching our WAL tail, which needs
// this very lock). env is the batch's envelope (hop count, deadline).
func (n *Node) primaryIngest(p int, rows []storage.Row, idemKey string, env envelope, sp *trace.Span) PartIngestResult {
	pt := n.lockLive(p)
	if pt == nil {
		// Routed here as primary, but the partition is gone — a view
		// change retired it between the routing decision and this call.
		// Re-resolve under the current membership and forward to the
		// node that owns it now instead of failing the batch.
		owners := n.members().ring.Owners(partKey(p), n.cfg.Replicas)
		if len(owners) > 0 && owners[0] != n.id && env.hops < maxIngestHops {
			return n.forwardIngest(owners, p, rows, idemKey, env, sp)
		}
		return PartIngestResult{Part: p, Rows: len(rows),
			Error: fmt.Sprintf("dist: primary %s does not hold partition %d", n.id, p)}
	}
	ms := n.members()
	owners := ms.ring.Owners(partKey(p), n.cfg.Replicas)
	if len(owners) == 0 || owners[0] != n.id {
		pt.ingest.Unlock()
		if env.hops >= maxIngestHops {
			return PartIngestResult{Part: p, Rows: len(rows),
				Error: fmt.Sprintf("dist: node %s is no longer the primary of partition %d", n.id, p)}
		}
		return n.forwardIngest(owners, p, rows, idemKey, env, sp)
	}
	defer pt.ingest.Unlock()
	// Under the ingest lock, so a concurrent retry of the same batch
	// serialises behind the original apply and sees its outcome.
	if pr, ok := n.idemGet(idemKey, p); ok {
		if !pr.Acked {
			// Applied here but under quorum when first delivered, and the
			// replica may be healthy again: offer it the stored sequence
			// once more instead of replaying the miss forever (replicas
			// dedup by sequence, so a copy that has it just says so).
			pr.Acked = n.replicateBatch(pt, ms, owners, pr.Seq, rows, sp)
			n.idemPut(idemKey, p, pr)
		}
		n.logger.Debug("idempotent ingest replay", "part", p, "seq", pr.Seq, "key", idemKey)
		return pr
	}
	seq := pt.seq() + 1
	if err := n.applyBatch(pt, true, seq, rows, sp); err != nil {
		return PartIngestResult{Part: p, Rows: len(rows), Error: err.Error()}
	}
	pr := PartIngestResult{
		Part: p, Rows: len(rows), Seq: seq,
		Acked: n.replicateBatch(pt, ms, owners, seq, rows, sp),
	}
	// The batch is applied (whatever the quorum verdict): remember its
	// outcome so a retried delivery replays instead of re-applying.
	n.idemPut(idemKey, p, pr)
	return pr
}

// replicateBatch ships batch seq of live partition pt — already applied
// here by this node as primary, which holds pt's ingest lock — to the
// other ring owners and reports whether the write quorum now holds it.
// A non-nil parent span gets a replicate child.
func (n *Node) replicateBatch(pt *partition, ms *memberState, owners []string, seq uint64, rows []storage.Row, sp *trace.Span) bool {
	p := pt.id
	rsp := sp.Child("replicate")
	var batchLag uint64
	fanout := func(ms *memberState, owners []string) int {
		acks := 1
		for _, o := range owners[1:] {
			if o == n.id {
				continue
			}
			url, ok := ms.urls[o]
			if !ok || url == "" || !n.health.admit(url) {
				continue
			}
			lastSeq, err := n.replicateTo(url, p, seq, rows)
			n.health.observe(url, err)
			if err != nil {
				n.logger.Warn("replicate failed", "part", p, "seq", seq, "peer", o, "err", err)
				continue
			}
			if lastSeq < seq {
				// The replica responded but sits behind this batch (a gap
				// its inline heal could not drain): primary-observed lag.
				if gap := seq - lastSeq; gap > batchLag {
					batchLag = gap
				}
				continue
			}
			acks++
		}
		return acks
	}
	acks := fanout(ms, owners)
	if acks < n.writeQuorum(len(owners)) {
		// Quorum miss under the owner set we started with. If the
		// membership epoch advanced mid-batch — a replica left or the
		// partition gained a new holder during the fan-out — re-resolve
		// and replicate against the CURRENT owners before giving up:
		// replicas dedup by sequence, so the retry is idempotent, and
		// this closes the cutover window where a departing replica
		// stops accepting connections between our owner snapshot and
		// the replicate call.
		if cur := n.members(); cur.view.Epoch > ms.view.Epoch {
			nowners := cur.ring.Owners(partKey(p), n.cfg.Replicas)
			if len(nowners) > 0 && nowners[0] == n.id {
				owners = nowners
				acks = fanout(cur, nowners)
			}
		}
	}
	// The worst responding-replica gap of this partition's latest
	// fan-out; the node's replication-lag gauge is the maximum over its
	// live partitions (a healthy batch resets its own partition to zero,
	// never a lagging sibling's).
	pt.repLag.Store(batchLag)
	rsp.End()
	rsp.SetAttrInt("acks", int64(acks))
	acked := acks >= n.writeQuorum(len(owners))
	if !acked {
		n.logger.Warn("ingest batch under quorum",
			"part", p, "seq", seq, "acks", acks, "quorum", n.writeQuorum(len(owners)))
	}
	return acked
}

// replicateTo ships one sequenced batch to a replica owner and returns
// the replica's last applied sequence. HTTP 200 means the batch (or a
// later one) is applied; 409 means the replica is still gapped after
// its inline heal — the caller reads the shortfall off LastSeq instead
// of treating the responsive peer as down.
func (n *Node) replicateTo(url string, p int, seq uint64, rows []storage.Row) (uint64, error) {
	var rr ReplicateResponse
	if _, err := n.call(context.Background(), http.MethodPost, url+"/v1/replicate", envelope{},
		ReplicateRequest{Part: p, Seq: seq, Rows: rowsToWire(rows)}, &rr); err != nil {
		return 0, fmt.Errorf("replicate to %s: %w", url, err)
	}
	return rr.LastSeq, nil
}

// forwardIngest proxies one partition batch to its primary and adapts
// the primary's response. Only the primary may sequence the batch, so
// unlike query forwarding there is no local fallback. A TRANSPORT
// failure, though, gets one retry after re-resolving the primary under
// the current membership: the resolved primary may have just left the
// cluster (its listener closes right after the cutover), and the batch
// belongs to whichever node now owns the partition. A primary that
// RESPONDS with an error is not retried — that is an application
// outcome, not stale routing. The hop carries env's deadline, so a batch
// the client stopped waiting for is not applied behind its back.
func (n *Node) forwardIngest(owners []string, p int, rows []storage.Row, idemKey string, env envelope, sp *trace.Span) PartIngestResult {
	fail := func(msg string) PartIngestResult {
		return PartIngestResult{Part: p, Rows: len(rows), Error: msg}
	}
	// The idempotency key rides along: a client retry entering through a
	// different member still dedups at the same primary.
	body := IngestRequest{Rows: rowsToWire(rows), IdemKey: idemKey}
	fwd := envelope{deadline: env.deadline, trace: sp != nil, hops: env.hops + 1}
	lastMsg := "dist: partition has no ring owners"
	tried := make(map[string]bool, 2)
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			owners = n.members().ring.Owners(partKey(p), n.cfg.Replicas)
			if len(owners) == 0 {
				break
			}
			if owners[0] == n.id {
				// The refreshed view made US the primary: sequence the
				// batch locally instead of bouncing it further.
				return n.primaryIngest(p, rows, idemKey, fwd, sp)
			}
			if tried[owners[0]] {
				break // same primary as before; transport is just down
			}
		}
		if len(owners) == 0 {
			break
		}
		primary := owners[0]
		tried[primary] = true
		url, ok := n.members().urls[primary]
		if !ok || url == "" || !n.health.admit(url) {
			lastMsg = fmt.Sprintf("dist: primary %s of partition %d is unreachable", primary, p)
			continue
		}
		fsp := sp.Child("forward")
		fsp.SetAttr("primary", primary)
		var out IngestResponse
		rep, err := n.call(context.Background(), http.MethodPost, url+"/v1/ingest", fwd, body, &out)
		n.health.observeReply(url, rep, err)
		// Graft the primary's span tree under this node's forward span.
		fsp.AttachWire(out.Spans)
		fsp.End()
		if rep.status == 0 {
			n.logger.Warn("ingest forward failed", "part", p, "primary", primary, "err", err)
			lastMsg = fmt.Sprintf("dist: primary %s of partition %d: %v", primary, p, err)
			continue
		}
		if err != nil {
			return fail(fmt.Sprintf("dist: primary %s of partition %d: %v", primary, p, err))
		}
		for _, pr := range out.Parts {
			if pr.Part == p {
				return pr
			}
		}
		return fail("dist: primary response missing the partition result")
	}
	return fail(lastMsg)
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if !n.ingestGate() {
		serve.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": errNodeClosing.Error()})
		return
	}
	defer n.closeDone()
	var req ReplicateRequest
	if !decodeBody(w, r, rowsBodyLimit, &req) {
		return
	}
	// Whichever copy the node has takes the stream. A staged copy (this
	// node gains the partition in a pending view) keeps its cutover
	// delta small that way. A retired copy (this node just lost it)
	// keeps applying in sequence too: the old primary may not have
	// adopted the view yet, and failing its replicate would cost a
	// client its ack in the cutover window — the retained WAL keeps the
	// batch durable and the gainer's final sync can still fetch it.
	pt, live := n.lockPart(req.Part)
	if pt == nil {
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": n.notHeld(req.Part)})
		return
	}
	defer pt.ingest.Unlock()
	// A copy that is replicated to is not its partition's primary (any
	// more): whatever lag it observed as one is history.
	pt.repLag.Store(0)
	if last := pt.seq(); req.Seq > last+1 {
		// Sequence gap: this copy missed a batch. Heal inline from the
		// peer holders (the primary has already applied every earlier
		// batch, and this one), then offer the batch against the healed
		// sequence. A staged copy gaps whenever the primary adopts the
		// new view first: the batches sequenced since its snapshot went
		// to the old owners only.
		n.logger.Warn("replication gap, healing inline",
			"part", req.Part, "applied", last, "incoming", req.Seq, "live", live)
		_, _, _ = n.catchUpLocked(pt, live, n.holders(pt.id))
	}
	last, err := n.offer(pt, live, req.Seq, wireToRows(req.Rows))
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	// 200: the batch is applied — now, by an earlier delivery, or by the
	// heal. 409: still gapped, so the primary counts no ack.
	status := http.StatusOK
	if req.Seq > last {
		status = http.StatusConflict
	}
	serve.WriteJSON(w, status, ReplicateResponse{LastSeq: last})
}

func (n *Node) handleWALFetch(w http.ResponseWriter, r *http.Request) {
	var req WALFetchRequest
	if !decodeBody(w, r, bodyLimit, &req) {
		return
	}
	max := req.Max
	if max <= 0 {
		max = walFetchMaxDefault
	}
	pt, _ := n.find(req.Part)
	if pt == nil {
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": n.notHeld(req.Part)})
		return
	}
	// TryLock, never Lock: two replicas healing each other (or a gainer
	// syncing from a donor that is itself mid-ingest) must not deadlock
	// across the wire. An unfenced response is still useful — the tail
	// is valid, LastSeq just may advance.
	fenced := pt.ingest.TryLock()
	if fenced {
		defer pt.ingest.Unlock()
	}
	resp := WALFetchResponse{Part: req.Part, LastSeq: pt.seq(), Fenced: fenced, NoWAL: true}
	if l := pt.wal.Load(); l != nil {
		// A log whose first entry is past seq 1 starts with a seed
		// (seedLog), which is never a batch: serve only what follows it.
		head, _, err := l.EntriesAfterN(0, 1)
		var entries []ingest.Entry
		if err == nil && (len(head) == 0 || head[0].Seq == 1 || req.After >= head[0].Seq) {
			resp.NoWAL = false
			entries, resp.Truncated, err = l.EntriesAfterN(req.After, max)
		}
		if err != nil {
			serve.WriteError(w, err)
			return
		}
		for _, e := range entries {
			resp.Entries = append(resp.Entries, WALFetchEntry{Seq: e.Seq, Rows: rowsToWire(e.Rows)})
		}
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// CatchUp brings every live partition forward from its peer holders —
// the second half of recovery: Load replays the local WAL, if any, and
// CatchUp closes the gap the node missed while it was down. It returns
// how many batches the copies advanced by.
func (n *Node) CatchUp() (int, error) {
	if !n.ingestGate() {
		return 0, errNodeClosing
	}
	defer n.closeDone()
	owned := n.liveParts()
	var fetched int
	var lastErr error
	for _, pt := range owned {
		np, err := n.catchUpPartition(pt.id)
		fetched += np
		if err != nil {
			lastErr = err
		}
	}
	if fetched > 0 || lastErr != nil {
		n.logger.Info("catch-up finished",
			"batches", fetched, "partitions", len(owned), "err", lastErr)
	}
	return fetched, lastErr
}

// catchUpPartition brings live partition p forward from its peer
// holders (a no-op when the node does not hold p live).
func (n *Node) catchUpPartition(p int) (int, error) {
	pt := n.lockLive(p)
	if pt == nil {
		return 0, nil
	}
	defer pt.ingest.Unlock()
	advanced, _, err := n.catchUpLocked(pt, true, n.holders(p))
	return advanced, err
}

// holders returns the URLs of partition p's other ring owners under the
// node's current view (for a staged copy the old owners, for a retired
// one the new), primary first, leaving out peers the tracker holds open.
func (n *Node) holders(p int) []string {
	ms := n.members()
	var urls []string
	for _, o := range ms.ring.Owners(partKey(p), n.cfg.Replicas) {
		if url := ms.urls[o]; o != n.id && url != "" && n.health.state(url) != peerOpen {
			urls = append(urls, url)
		}
	}
	return urls
}

// catchUpLocked is the one routine that brings a copy forward (the
// caller holds copy pt's ingest lock; live says whether pt is the live
// copy). It consults EVERY donor: one can itself be behind, and stopping
// there could strand acked batches another still has. From each it
// applies the log tail after pt.seq() while the tail continues the
// copy's sequence, fetching again while the donor truncated the tail
// and the round made progress. A donor that is ahead but serves no such
// tail — it keeps no log, its log starts with a seed past pt.seq(), or
// the tail has a gap — ships its partition snapshot instead. It returns
// how far pt's sequence advanced and the newest epoch at which a donor
// served a fenced reply showing nothing missing (0 when none did).
func (n *Node) catchUpLocked(pt *partition, live bool, donors []string) (advanced int, fencedAt int64, err error) {
	start := pt.seq()
	self := n.members().urls[n.id]
	for _, url := range donors {
		if url == "" || url == self {
			continue
		}
		for {
			// Fetch failures are NOT held against the peer: catch-up runs
			// at boot, when the rest of the cluster may still be starting,
			// and quarantining peers here would poison the first cooldown
			// window of serving (ingest has no local fallback).
			before := pt.seq()
			resp, epoch, ferr := n.fetchTail(url, pt.id, before)
			if ferr != nil {
				err = ferr
				break
			}
			if resp == nil {
				break // the donor holds no copy
			}
			for _, e := range resp.Entries {
				last, aerr := n.offer(pt, live, e.Seq, wireToRows(e.Rows))
				if aerr != nil {
					return int(pt.seq() - start), fencedAt, aerr
				}
				if e.Seq > last {
					break // a gap
				}
			}
			if pt.seq() == before && resp.LastSeq > before {
				if ierr := n.replaceLocked(pt, url, before+1); ierr != nil {
					err = ierr
					break
				}
			}
			if resp.Fenced && !resp.Truncated && resp.LastSeq <= pt.seq() {
				fencedAt = max(fencedAt, epoch)
			}
			if !resp.Truncated || pt.seq() == before {
				break
			}
		}
	}
	return int(pt.seq() - start), fencedAt, err
}

// fetchTail fetches partition p's WAL tail after the given sequence
// from a peer, under the donor's default bound, with the epoch the
// donor's reply was stamped with. A 404 (the donor holds no copy)
// returns a nil tail.
func (n *Node) fetchTail(url string, p int, after uint64) (*WALFetchResponse, int64, error) {
	var out WALFetchResponse
	rep, err := n.call(context.Background(), http.MethodPost, url+"/v1/walfetch", envelope{},
		WALFetchRequest{Part: p, After: after}, &out)
	if rep.status == http.StatusNotFound {
		return nil, rep.epoch, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("walfetch from %s: %w", url, err)
	}
	sort.Slice(out.Entries, func(i, j int) bool { return out.Entries[i].Seq < out.Entries[j].Seq })
	return &out, rep.epoch, nil
}
