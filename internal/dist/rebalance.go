package dist

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
)

// This file is the rebalance orchestrator: live join/leave with
// minimal key movement, partition migration by snapshot-ship plus
// WAL-tail catch-up, and the atomic ownership cutover.
//
// Migration state machine, per moving partition — each step moves one
// *partition (partition.go) between the node's staged, live and retired
// lookups; the copy itself is never rebuilt:
//
//	staged    the gainer built a copy from a donor's consistent snapshot
//	          (rows + base-row count + last ingest sequence) ahead of
//	          the view change; ingest keeps flowing to the old owners
//	installed the gainer applied the new view: the staged copy went
//	          live (WAL opened, reset and re-seeded with the ingested
//	          tail), the member pointer swapped — new requests route to
//	          the new owners
//	synced    the gainer drained the cutover delta: it fetched the WAL
//	          tail the donors accepted between staging and cutover,
//	          finishing when a donor serves a FENCED tail at the new
//	          epoch with nothing missing
//	retired   a losing owner moved its copy out of the live lookup; it
//	          keeps answering /v1/replicate, /v1/walfetch and
//	          /v1/partsnap (/v1/digest reads live copies only) until the
//	          node closes or a re-gain moves it back, so in-flight acks
//	          and late catch-ups never dangle
//
// The coordinator (whichever member received /v1/join or /v1/leave)
// serialises concurrent membership changes behind rebalanceMu; view
// installs themselves serialise behind viewMu, so a node can be the
// coordinator of one change while adopting another's.

// JoinRequest is the POST /v1/join body: a new member's identity.
type JoinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// JoinResponse reports the view a join/leave produced and how many
// partition replicas moved to new owners.
type JoinResponse struct {
	View  View `json:"view"`
	Moved int  `json:"moved"`
}

// LeaveRequest is the POST /v1/leave body: the member to retire.
type LeaveRequest struct {
	ID string `json:"id"`
}

// MigratePart names one partition a gainer must stage and the donor
// URLs that hold it (primary first).
type MigratePart struct {
	Part   int      `json:"part"`
	Donors []string `json:"donors"`
}

// MigrateRequest is the coordinator→gainer POST /v1/migrate body: the
// pending view and the partitions the gainer acquires under it.
type MigrateRequest struct {
	View  View          `json:"view"`
	Parts []MigratePart `json:"parts"`
}

// MigrateResponse reports how many partitions the gainer staged.
type MigrateResponse struct {
	Staged int `json:"staged"`
}

// PartSnapRequest is the POST /v1/partsnap body: one partition's full
// snapshot for staging or repair.
type PartSnapRequest struct {
	Part int `json:"part"`
}

// PartSnapResponse is a consistent point-in-time copy of one
// partition: every row in insertion order (base rows first, then
// ingested rows in sequence order), how many of them are base rows,
// and the last applied ingest sequence. BaseLen matters for WAL
// re-seeding: a restarted node re-lays base rows deterministically
// from the bulk dataset, so only Rows[BaseLen:] belong in the log.
type PartSnapResponse struct {
	Part    int       `json:"part"`
	LastSeq uint64    `json:"last_seq"`
	BaseLen int       `json:"base_len"`
	Rows    []WireRow `json:"rows"`
}

// RebalanceStatus is the "rebalance" block of /v1/status: where this
// node stands in the elastic plane.
type RebalanceStatus struct {
	Epoch        int64 `json:"epoch"`
	Staged       int   `json:"staged"`
	Retired      int   `json:"retired"`
	MovedParts   int64 `json:"moved_parts"`
	LastChangeMS int64 `json:"last_change_ms"`
}

// staging is a copy shipped ahead of a view change, with the one extra
// fact staging needs: the donor URLs its cutover sync will drain.
type staging struct {
	pt     *partition
	donors []string
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decodeBody(w, r, bodyLimit, &req) {
		return
	}
	if req.ID == "" || req.URL == "" {
		serve.WriteError(w, fmt.Errorf("%w: join needs id and url", query.ErrBadQuery))
		return
	}
	resp, err := n.orchestrate(func(cur View) (View, error) {
		if cur.has(req.ID) {
			return View{}, fmt.Errorf("dist: member %q already in the view", req.ID)
		}
		nv := cur.clone()
		nv.Epoch++
		nv.Members = append(nv.Members, Member{ID: req.ID, URL: req.URL})
		nv.normalize()
		return nv, nil
	})
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !decodeBody(w, r, bodyLimit, &req) {
		return
	}
	if req.ID == "" {
		serve.WriteError(w, fmt.Errorf("%w: leave needs id", query.ErrBadQuery))
		return
	}
	resp, err := n.orchestrate(func(cur View) (View, error) {
		if !cur.has(req.ID) {
			return View{}, fmt.Errorf("dist: member %q not in the view", req.ID)
		}
		if len(cur.Members) == 1 {
			return View{}, fmt.Errorf("dist: refusing to retire the last member")
		}
		nv := View{Epoch: cur.Epoch + 1}
		for _, m := range cur.Members {
			if m.ID != req.ID {
				nv.Members = append(nv.Members, m)
			}
		}
		return nv, nil
	})
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// RebalanceStatus snapshots the node's elastic-plane progress.
func (n *Node) RebalanceStatus() RebalanceStatus {
	n.mu.RLock()
	staged, retired := len(n.staged), len(n.retired)
	n.mu.RUnlock()
	return RebalanceStatus{
		Epoch:        n.epoch(),
		Staged:       staged,
		Retired:      retired,
		MovedParts:   n.movesTotal.Load(),
		LastChangeMS: n.lastChange.Load(),
	}
}

// orchestrate runs one membership change end to end: build the next
// view, diff placement, stage every moving partition on its gainer,
// then cut over by pushing the view to the union of old and new
// members. Staging failures abort with NO view change — the staged
// copies are harmless garbage the gainers drop on their next install.
func (n *Node) orchestrate(next func(View) (View, error)) (JoinResponse, error) {
	if !n.ingestGate() {
		return JoinResponse{}, errNodeClosing
	}
	defer n.closeDone()
	n.rebalanceMu.Lock()
	defer n.rebalanceMu.Unlock()

	old := n.members()
	nv, err := next(old.view)
	if err != nil {
		return JoinResponse{}, err
	}
	nms := newMemberState(nv, n.cfg.VNodes)

	// Diff placement per partition: every new owner that was not an old
	// owner must stage the partition from the old owners (primary
	// first). A single join or leave moves at most ~1/N of partitions
	// (the ring's minimal-movement property, proven in ring_test.go).
	gainsByNode := make(map[string][]MigratePart)
	moved := 0
	for p := 0; p < n.cfg.Partitions; p++ {
		oldOwners := old.ring.Owners(partKey(p), n.cfg.Replicas)
		newOwners := nms.ring.Owners(partKey(p), n.cfg.Replicas)
		var donors []string
		for _, o := range oldOwners {
			if u := old.urls[o]; u != "" {
				donors = append(donors, u)
			}
		}
		for _, o := range newOwners {
			if containsStr(oldOwners, o) {
				continue
			}
			gainsByNode[o] = append(gainsByNode[o], MigratePart{Part: p, Donors: donors})
			moved++
		}
	}

	// Stage concurrently per gainer; abort the change on any failure.
	type stageRes struct {
		node string
		err  error
	}
	resc := make(chan stageRes, len(gainsByNode))
	for node, parts := range gainsByNode {
		go func(node string, parts []MigratePart) {
			var err error
			if node == n.id {
				err = n.stageParts(parts)
			} else {
				err = n.sendMigrate(nms.urls[node], nv, parts)
			}
			resc <- stageRes{node: node, err: err}
		}(node, parts)
	}
	for range gainsByNode {
		if r := <-resc; r.err != nil {
			return JoinResponse{}, fmt.Errorf("dist: stage on %s failed (view unchanged): %w", r.node, r.err)
		}
	}

	// Cutover: adopt the view locally first (direct call — POSTing to
	// ourselves would deadlock behind our own handler limits), then push
	// it to every other old or new member. Push failures are logged, not
	// fatal: the straggler converges from the epoch stamped on its next
	// RPC.
	if err := n.applyView(nv); err != nil {
		return JoinResponse{}, fmt.Errorf("dist: apply view locally: %w", err)
	}
	targets := make(map[string]string) // id -> url
	for _, m := range old.view.Members {
		targets[m.ID] = m.URL
	}
	for _, m := range nv.Members {
		targets[m.ID] = m.URL
	}
	delete(targets, n.id)
	type pushRes struct {
		id  string
		err error
	}
	pushc := make(chan pushRes, len(targets))
	for id, url := range targets {
		go func(id, url string) {
			pushc <- pushRes{id: id, err: n.pushView(url, nv)}
		}(id, url)
	}
	for range targets {
		if r := <-pushc; r.err != nil {
			n.logger.Warn("view push failed; member will converge via epoch stamps",
				"peer", r.id, "epoch", nv.Epoch, "err", r.err)
		}
	}
	n.movesTotal.Add(int64(moved))
	n.logger.Info("membership change applied",
		"epoch", nv.Epoch, "members", len(nv.Members), "moved", moved)
	return JoinResponse{View: nv, Moved: moved}, nil
}

// sendMigrate asks a gainer to stage parts for the pending view.
func (n *Node) sendMigrate(url string, v View, parts []MigratePart) error {
	if url == "" {
		return fmt.Errorf("dist: gainer has no URL")
	}
	if _, err := n.call(context.Background(), http.MethodPost, url+"/v1/migrate", envelope{},
		MigrateRequest{View: v, Parts: parts}, nil); err != nil {
		return fmt.Errorf("dist: migrate to %s: %w", url, err)
	}
	return nil
}

func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !n.ingestGate() {
		serve.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": errNodeClosing.Error()})
		return
	}
	defer n.closeDone()
	var req MigrateRequest
	if !decodeBody(w, r, bodyLimit, &req) {
		return
	}
	if err := n.stageParts(req.Parts); err != nil {
		serve.WriteError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, MigrateResponse{Staged: len(req.Parts)})
}

// stageParts fetches each listed partition's snapshot from the first
// reachable donor and parks the copy for the coming view. Staging never
// touches the live lookup: until the view lands, the old owners keep
// serving and ingesting.
func (n *Node) stageParts(parts []MigratePart) error {
	for _, mp := range parts {
		pt, err := n.stageOne(mp)
		if err != nil {
			return err
		}
		n.mu.Lock()
		n.staged[mp.Part] = staging{pt: pt, donors: mp.Donors}
		n.mu.Unlock()
	}
	return nil
}

func (n *Node) stageOne(mp MigratePart) (*partition, error) {
	var lastErr error
	for _, durl := range mp.Donors {
		pt, err := n.fetchPart(durl, mp.Part)
		if err == nil {
			return pt, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dist: stage partition %d: no donor reachable: %w", mp.Part, lastErr)
}

// fetchPart fetches partition p's snapshot from a donor and builds a
// copy from it.
func (n *Node) fetchPart(url string, p int) (*partition, error) {
	var out PartSnapResponse
	if _, err := n.call(context.Background(), http.MethodPost, url+"/v1/partsnap", envelope{},
		PartSnapRequest{Part: p}, &out); err != nil {
		return nil, fmt.Errorf("dist: partsnap %d from %s: %w", p, url, err)
	}
	rows := wireToRows(out.Rows)
	if err := checkWidth(rows, -1); err != nil {
		return nil, fmt.Errorf("dist: partsnap %d from %s: %w", p, url, err)
	}
	return &partition{id: p, cols: storage.BuildColStore(-1, rows),
		baseLen: out.BaseLen, lastSeq: out.LastSeq}, nil
}

func (n *Node) handlePartSnap(w http.ResponseWriter, r *http.Request) {
	var req PartSnapRequest
	if !decodeBody(w, r, bodyLimit, &req) {
		return
	}
	pt, _ := n.find(req.Part)
	if pt == nil {
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": n.notHeld(req.Part)})
		return
	}
	// Reads under the copy's state lock only (never its ingest lock), so
	// two nodes repairing from each other cannot deadlock.
	view, baseLen, lastSeq := pt.snapshot()
	serve.WriteJSON(w, http.StatusOK, PartSnapResponse{
		Part: req.Part, LastSeq: lastSeq, BaseLen: baseLen,
		Rows: rowsToWire(view.Rows(0)),
	})
}

// applyView installs a newer membership view: staged gains go live, the
// member pointer swaps (new requests route on the new ring), lost
// partitions retire, and each gain drains its cutover delta from the
// donors. Serialised behind viewMu; an equal or older epoch is a no-op.
func (n *Node) applyView(nv View) error {
	if !n.ingestGate() {
		return errNodeClosing
	}
	defer n.closeDone()
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	cur := n.members()
	if nv.Epoch <= cur.view.Epoch {
		return nil
	}
	nv = nv.clone()
	nv.normalize()
	nms := newMemberState(nv, n.cfg.VNodes)

	// Diff this node's holdings against the new placement.
	var gains, losses []int
	selfIn := nv.has(n.id)
	for p := 0; p < n.cfg.Partitions; p++ {
		owned := selfIn && containsStr(nms.ring.Owners(partKey(p), n.cfg.Replicas), n.id)
		held := n.livePart(p) != nil
		if owned && !held {
			gains = append(gains, p)
		}
		if !owned && held {
			losses = append(losses, p)
		}
	}
	sort.Ints(gains)
	sort.Ints(losses)

	// Install every gain while holding its ingest lock: a replicate or
	// ingest racing the cutover blocks on the lock and lands after the
	// install, in sequence.
	var pending []staging
	for _, p := range gains {
		st := n.takeStaged(p, cur)
		st.pt.ingest.Lock()
		if err := n.goLive(st.pt); err != nil {
			st.pt.ingest.Unlock()
			n.logger.Warn("partition install failed", "part", p, "err", err)
			continue
		}
		pending = append(pending, st)
	}

	// The atomic cutover: requests arriving after this line route,
	// forward and sequence on the new view.
	n.member.Store(nms)
	n.lastChange.Store(time.Now().UnixMilli())

	// Retire losses: out of the live lookup (gatherLocal and the ring
	// agree the partition lives elsewhere) but retained as a donor and
	// ack sink until Close.
	for _, p := range losses {
		n.retirePartition(p)
	}

	// Drain each gain's cutover delta, releasing its lock as it syncs.
	for _, st := range pending {
		n.finalSyncLocked(st.pt, st.donors, nv.Epoch)
		st.pt.ingest.Unlock()
	}
	n.logger.Info("view applied", "epoch", nv.Epoch, "members", len(nv.Members),
		"gained", len(gains), "retired", len(losses))
	return nil
}

// takeStaged picks the copy of partition p to install: the staged one,
// else the retired one (a re-gain moves it back as it is, WAL and all)
// and, as the self-heal of last resort for a member that never saw the
// migrate RPC, an inline stage from the old view's holders. The copy
// stays in its lookup until goLive, so a racing replicate always finds it.
func (n *Node) takeStaged(p int, old *memberState) staging {
	n.mu.RLock()
	st, rp := n.staged[p], n.retired[p]
	n.mu.RUnlock()
	if st.pt != nil {
		if rp != nil {
			// A fresher snapshot supersedes the retired copy. goLive
			// reopens the same WAL directory for the staged one;
			// release the retired handle first.
			rp.ingest.Lock()
			rp.closeLog()
			rp.ingest.Unlock()
		}
		return st
	}
	var donors []string
	for _, o := range old.ring.Owners(partKey(p), n.cfg.Replicas) {
		if o == n.id {
			continue
		}
		if u := old.urls[o]; u != "" {
			donors = append(donors, u)
		}
	}
	if rp != nil {
		// The old view's holders carry whatever was sequenced since this
		// copy retired; the cutover sync drains it from them.
		return staging{pt: rp, donors: donors}
	}
	pt := newPartition(p)
	if len(donors) > 0 {
		if staged, err := n.stageOne(MigratePart{Part: p, Donors: donors}); err == nil {
			pt = staged
		} else {
			n.logger.Warn("inline stage failed; installing empty partition",
				"part", p, "err", err)
		}
	}
	return staging{pt: pt, donors: donors}
}

// goLive moves copy pt into the live lookup, out of whichever held it
// (the caller holds its ingest lock). Like Load it does NOT AbsorbRows —
// the cluster's models already absorbed these rows when they were first
// ingested on the old owners; absorbing again would double-count. With
// durability on, a copy that arrives without a WAL (it was staged)
// first gets one, seeded with only its ingested tail (seedLog).
func (n *Node) goLive(pt *partition) error {
	var err error
	if n.cfg.DataDir != "" && pt.wal.Load() == nil {
		var l *ingest.Log
		if l, err = n.openLog(pt.id); err == nil {
			if err = seedLog(l, pt); err != nil {
				_ = l.Close()
			} else {
				pt.wal.Store(l)
			}
		}
	}
	n.mu.Lock()
	delete(n.staged, pt.id)
	if err != nil {
		n.mu.Unlock()
		return fmt.Errorf("dist: install partition %d: %w", pt.id, err)
	}
	delete(n.retired, pt.id)
	n.live[pt.id] = pt
	ver := n.version.Add(1)
	n.mu.Unlock()
	n.publishAbsorbed(ver)
	return nil
}

// replaceLocked overwrites live copy pt with a shipped snapshot (the
// caller holds its ingest lock): WAL re-seeded first, then the fresh
// columns swap in. Nothing is re-absorbed, for goLive's reason.
func (n *Node) replaceLocked(pt, fresh *partition) error {
	if l := pt.wal.Load(); l != nil {
		if err := seedLog(l, fresh); err != nil {
			return fmt.Errorf("dist: install partition %d: %w", pt.id, err)
		}
	}
	n.publishAbsorbed(pt.swap(fresh.cols, fresh.baseLen, fresh.lastSeq, &n.version))
	return nil
}

// retirePartition moves p's copy from the live lookup to the retired
// one. The retired copy is documented as retained-until-Close: it is
// small (one partition's rows), keeps late replicate acks and catch-up
// fetches working while the old primary converges, and the whole node
// is usually shut down shortly after a graceful leave anyway.
func (n *Node) retirePartition(p int) {
	pt := n.lockLive(p)
	if pt == nil {
		return
	}
	n.mu.Lock()
	delete(n.live, p)
	n.retired[p] = pt
	ver := n.version.Add(1)
	n.mu.Unlock()
	pt.ingest.Unlock()
	// Cached answers may cover the departed rows: expire them.
	n.publishAbsorbed(ver)
}

// finalSyncLocked drains live copy pt's cutover delta (the caller holds
// its ingest lock): every batch the donors sequenced between the
// staging snapshot and the donors adopting the new view. It finishes
// when a donor serves a FENCED tail stamped at (or past) the new epoch
// showing nothing missing — fenced means the donor held its ingest lock, so
// its LastSeq cannot advance behind our back; at the new epoch the
// donor also no longer sequences fresh batches for the partition. On
// timeout it logs and returns: anti-entropy and gap-healing replication
// converge the remainder.
func (n *Node) finalSyncLocked(pt *partition, donors []string, newEpoch int64) {
	deadline := time.Now().Add(3 * n.cfg.Timeout)
	self := n.members().urls[n.id]
	for time.Now().Before(deadline) {
		progress := false
		for _, durl := range donors {
			if durl == "" || durl == self {
				continue
			}
			resp, epoch, err := n.fetchTail(durl, pt.id, pt.seq())
			if err != nil || resp == nil {
				continue
			}
			if resp.NoWAL {
				// Memory-only donor: no tail to fetch. If it is ahead,
				// re-stage wholesale from its snapshot.
				if resp.LastSeq > pt.seq() {
					if fresh, err := n.fetchPart(durl, pt.id); err == nil && fresh.lastSeq > pt.seq() {
						if err := n.replaceLocked(pt, fresh); err == nil {
							progress = true
						}
					}
				}
			} else {
				applied, err := n.applyTail(pt, true, resp.Entries)
				if err != nil {
					n.logger.Warn("final sync apply failed", "part", pt.id, "err", err)
				}
				progress = progress || applied > 0
			}
			if resp.Fenced && epoch >= newEpoch && resp.LastSeq <= pt.seq() && !resp.Truncated {
				return
			}
		}
		if !progress {
			time.Sleep(5 * time.Millisecond)
		}
	}
	n.logger.Warn("final sync timed out; anti-entropy will converge the remainder",
		"part", pt.id, "epoch", newEpoch)
}

// containsStr reports whether s contains v.
func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
