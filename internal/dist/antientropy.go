package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"time"

	"repro/internal/serve"
	"repro/internal/storage"
)

// This file is the anti-entropy repair loop: replica holders compare
// per-partition content digests against the partition's primary on a
// background cadence and heal any divergence wholesale via the same
// snapshot-ship path migrations use.
//
// Digest format (Merkle-style, one level deep — partitions are small
// enough that a chunk list beats a full tree): rows are hashed in
// insertion order into fixed-size chunks of aeChunkRows rows each;
// each chunk hash is FNV-64a over every row's key bytes and the raw
// IEEE-754 bits of every vector element. The root re-hashes the chunk
// hashes plus the row count and last applied ingest sequence, so two
// replicas agree iff they hold bit-identical rows in the same order at
// the same sequence. The chunk list travels with the root so a future
// partial-repair path could ship only divergent chunks; today repair
// replaces the partition wholesale, which is simpler and still cheap
// at our partition sizes.
//
// The primary is treated as ground truth: replicas repair FROM the
// primary, never the reverse, so a corrupted primary is not healed by
// this loop (it would need a primaryship change first). That matches
// the ingest path, where the primary's copy defines the sequence.

// aeChunkRows is the digest chunk width, in rows.
const aeChunkRows = 1024

// DigestRequest is the POST /v1/digest body: name a partition, get its
// content digest.
type DigestRequest struct {
	Part int `json:"part"`
}

// PartDigest is one partition's content digest.
type PartDigest struct {
	Part    int      `json:"part"`
	LastSeq uint64   `json:"last_seq"`
	Rows    int      `json:"rows"`
	Chunks  []uint64 `json:"chunks,omitempty"`
	Root    string   `json:"root"`
}

// AntiEntropyCounters snapshots the repair loop's lifetime counters.
type AntiEntropyCounters struct {
	Ticks     int64
	Checked   int64
	Divergent int64
	Repairs   int64
}

// digestPartition computes partition p's content digest. The second
// return is false when the node does not hold p live.
func (n *Node) digestPartition(p int) (PartDigest, bool) {
	pt := n.livePart(p)
	if pt == nil {
		return PartDigest{}, false
	}
	return pt.digest(), true
}

// digest hashes the copy straight from its columns, in the documented
// byte order: per row the key, then each column value's raw bits.
func (pt *partition) digest() PartDigest {
	view, _, lastSeq := pt.snapshot()
	d := PartDigest{Part: pt.id, LastSeq: lastSeq, Rows: view.Len()}
	var buf [8]byte
	h := fnv.New64a()
	for i, key := range view.Keys {
		if i > 0 && i%aeChunkRows == 0 {
			d.Chunks = append(d.Chunks, h.Sum64())
			h.Reset()
		}
		binary.LittleEndian.PutUint64(buf[:], key)
		h.Write(buf[:])
		for _, c := range view.Cols {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c[i]))
			h.Write(buf[:])
		}
	}
	if view.Len() > 0 {
		d.Chunks = append(d.Chunks, h.Sum64())
	}
	root := fnv.New64a()
	for _, c := range d.Chunks {
		binary.LittleEndian.PutUint64(buf[:], c)
		root.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(view.Len()))
	root.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], lastSeq)
	root.Write(buf[:])
	d.Root = fmt.Sprintf("%016x", root.Sum64())
	return d
}

func (n *Node) handleDigest(w http.ResponseWriter, r *http.Request) {
	var req DigestRequest
	if !decodeBody(w, r, bodyLimit, &req) {
		return
	}
	d, ok := n.digestPartition(req.Part)
	if !ok {
		serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": n.notHeld(req.Part)})
		return
	}
	serve.WriteJSON(w, http.StatusOK, d)
}

// fetchDigest fetches partition p's digest from a peer.
func (n *Node) fetchDigest(url string, p int) (*PartDigest, error) {
	var out PartDigest
	if _, err := n.call(context.Background(), http.MethodPost, url+"/v1/digest", envelope{},
		DigestRequest{Part: p}, &out); err != nil {
		return nil, fmt.Errorf("dist: digest %d from %s: %w", p, url, err)
	}
	return &out, nil
}

// AntiEntropyTick runs one pass of the repair loop: for every held
// partition whose primary is another node, compare content digests and
// heal divergence. Returns the number of repairs performed this tick.
// Disarmed (Config.AntiEntropy == 0) it is a single atomic load — the
// zero-allocation guarantee the CI bench grep pins.
func (n *Node) AntiEntropyTick() int {
	if !n.aeArmed.Load() {
		return 0
	}
	n.aeTicks.Add(1)
	ms := n.members()
	repaired := 0
	for _, pt := range n.liveParts() {
		p := pt.id
		owners := ms.ring.Owners(partKey(p), n.cfg.Replicas)
		if len(owners) == 0 || owners[0] == n.id {
			continue // primary is ground truth; nothing to compare against
		}
		purl := ms.urls[owners[0]]
		if purl == "" || !n.health.admit(purl) {
			continue
		}
		n.aeChecked.Add(1)
		remote, err := n.fetchDigest(purl, p)
		n.health.observe(purl, err)
		if err != nil {
			continue
		}
		local, ok := n.digestPartition(p)
		if !ok {
			continue // lost the partition mid-tick (view change)
		}
		if remote.LastSeq > local.LastSeq {
			// Plain replication lag, not divergence: catch up first (it
			// takes the partition lock itself), then re-compare.
			_, _ = n.catchUpPartition(p)
			local, ok = n.digestPartition(p)
			if !ok || remote.LastSeq > local.LastSeq {
				continue
			}
		}
		if remote.LastSeq < local.LastSeq {
			continue // the primary is behind us; its own heal path owns this
		}
		if remote.Root == local.Root {
			continue
		}
		// Same sequence, different content: a genuinely diverged
		// replica. Repair wholesale from the primary. Divergent and
		// Repairs are bumped together after the attempt so the status
		// plane's divergent-vs-repaired comparison never flags a
		// transient in-progress repair as critical.
		err = n.repairPartition(p, purl)
		n.aeDivergent.Add(1)
		if err != nil {
			n.logger.Warn("anti-entropy repair failed", "part", p, "primary", owners[0], "err", err)
			continue
		}
		n.aeRepairs.Add(1)
		repaired++
		n.logger.Info("anti-entropy repaired divergent replica",
			"part", p, "primary", owners[0], "root", remote.Root)
	}
	return repaired
}

// repairPartition installs the primary's snapshot of partition p at
// the copy's own sequence or later: a divergent copy has every batch, so
// no log tail can mend it. Safe against the ingest path: it holds p's
// ingest lock for the whole replace, and the donor's partsnap handler
// reads under the copy's state lock only (no ingest lock), so mutual
// repair cannot deadlock.
func (n *Node) repairPartition(p int, primaryURL string) error {
	if !n.ingestGate() {
		return errNodeClosing
	}
	defer n.closeDone()
	pt := n.lockLive(p)
	if pt == nil {
		return fmt.Errorf("dist: partition %d not held", p)
	}
	defer pt.ingest.Unlock()
	return n.replaceLocked(pt, primaryURL, pt.seq())
}

// AntiEntropyRepairs returns the lifetime count of successful repairs.
func (n *Node) AntiEntropyRepairs() int64 { return n.aeRepairs.Load() }

// AntiEntropyCountersSnapshot returns the loop's lifetime counters.
func (n *Node) AntiEntropyCountersSnapshot() AntiEntropyCounters {
	return AntiEntropyCounters{
		Ticks:     n.aeTicks.Load(),
		Checked:   n.aeChecked.Load(),
		Divergent: n.aeDivergent.Load(),
		Repairs:   n.aeRepairs.Load(),
	}
}

// antiEntropyLoop drives AntiEntropyTick at the configured cadence
// until Close.
func (n *Node) antiEntropyLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-n.aeStop:
			return
		case <-t.C:
			n.AntiEntropyTick()
		}
	}
}

// CorruptPartition deliberately diverges this node's in-memory copy of
// partition p (flips one vector element in a middle row) WITHOUT
// touching its WAL or sequence, so the copy disagrees with the primary
// at the same LastSeq — exactly the silent-divergence case the
// anti-entropy loop exists to catch. Test/experiment hook (E22).
// Returns false if the node does not hold p or p is empty.
func (n *Node) CorruptPartition(p int) bool {
	pt := n.lockLive(p)
	if pt == nil {
		return false
	}
	defer pt.ingest.Unlock()
	view, baseLen, lastSeq := pt.snapshot()
	rows := view.Rows(0)
	if len(rows) == 0 || view.Width() == 0 {
		return false
	}
	// Edit the private materialised rows and swap in a fresh store:
	// concurrent readers still scan the shared arrays through their views.
	vec := rows[len(rows)/2].Vec
	vec[len(vec)-1] += 1e6
	n.publishAbsorbed(pt.swap(storage.BuildColStore(-1, rows), baseLen, lastSeq, &n.version))
	return true
}
