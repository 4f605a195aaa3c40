package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/trace"
)

// partition is a node's copy of one data fragment — the unit of
// placement, replication and recovery — and its only representation in
// all three lifecycle states:
//
//	live     in Node.live: serves queries and sequences/applies ingest
//	staged   in Node.staged: shipped ahead of a view change; it keeps
//	         applying the primary's replicate stream so the cutover
//	         delta stays small, and has no WAL until it goes live
//	retired  in Node.retired: no longer owned, kept as a donor and ack
//	         sink (WAL still open) until the node closes
//
// A state change moves the pointer between those lookups under Node.mu
// with the ingest lock held; the data is never copied. Columnar is the
// only resident form: rows are materialised on demand (ColumnView.Rows).
//
// What every path relies on, enforced here:
//
//   - WAL append before visibility, and a batch the columns cannot hold
//     is refused BEFORE the append, so the log never holds a batch
//     replay cannot apply (append).
//   - Rows, baseLen and lastSeq change together under mu: one lock
//     acquisition (snapshot) yields a consistent point-in-time copy.
//   - A ColumnView taken under mu never changes afterwards: appends
//     write past its pinned length; repair and CorruptPartition swap in
//     a fresh ColStore instead of editing the shared arrays.
//   - The node data version advances inside the critical section that
//     makes rows visible, so whoever sees new rows sees the new version.
type partition struct {
	id int

	// ingest serialises everything that advances lastSeq and every
	// lifecycle move: its holder sees a stable state and assigns or
	// applies the next sequence without a racing writer.
	ingest sync.Mutex

	mu   sync.RWMutex
	cols *storage.ColStore
	// baseLen counts the base (bulk-loaded) row prefix: rows[:baseLen]
	// are re-laid deterministically by Load on restart and never belong
	// in the WAL; rows[baseLen:] arrived via ingest. Snapshots ship it
	// so a gainer re-seeds its WAL with only the ingested tail.
	baseLen int
	lastSeq uint64

	// wal is nil without a DataDir, on a staged copy, during Load's
	// replay (which reads the log and must not re-append to it), and
	// after Close. Attached and detached under the ingest lock.
	wal atomic.Pointer[ingest.Log]

	// repLag is the worst sequence gap among the replicas that responded
	// to this copy's latest replicate fan-out, written by its primary
	// under the ingest lock and zeroed when the copy is replicated to.
	repLag atomic.Uint64
}

// newPartition returns an empty copy of fragment id; its width is
// adopted from the first rows to land.
func newPartition(id int) *partition {
	return &partition{id: id, cols: storage.NewColStore(-1)}
}

// checkWidth reports rows that do not all share one vector width; want
// >= 0 pins that width. A mismatch is malformed input (ErrBadQuery).
func checkWidth(rows []storage.Row, want int) error {
	for i, r := range rows {
		if want < 0 {
			want = len(r.Vec)
		}
		if len(r.Vec) != want {
			return fmt.Errorf("%w: row %d has %d columns, want %d",
				query.ErrBadQuery, i, len(r.Vec), want)
		}
	}
	return nil
}

// snapshot returns columns, base-row count and last applied sequence
// as of one instant.
func (pt *partition) snapshot() (storage.ColumnView, int, uint64) {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	view, _ := pt.cols.View()
	return view, pt.baseLen, pt.lastSeq
}

// seq returns the last applied ingest sequence.
func (pt *partition) seq() uint64 {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return pt.lastSeq
}

// width returns the row width adopted from the data (-1 while unknown).
func (pt *partition) width() int {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return pt.cols.Width()
}

// bytes returns the capacity bytes of the copy's column arrays.
func (pt *partition) bytes() uint64 {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return pt.cols.Bytes()
}

// walSegments counts the write-ahead log's segment files (0 without one).
func (pt *partition) walSegments() int {
	if l := pt.wal.Load(); l != nil {
		return l.Segments()
	}
	return 0
}

// closeLog detaches and closes the write-ahead log.
func (pt *partition) closeLog() {
	if l := pt.wal.Swap(nil); l != nil {
		_ = l.Close()
	}
}

// partial evaluates q's mergeable aggregate state over the copy: chunks
// and blocks of the columnar view that the selection cannot reach are
// skipped, blocks wholly inside it are answered from their summaries,
// and the batch kernels stream the rest. It also returns the rows read,
// which are the rows streamed (not the rows held), and the rows answered
// from summaries.
func (pt *partition) partial(q query.Query) (partial []float64, scanned, summarised int64) {
	view, _, _ := pt.snapshot()
	return query.PartialEvalPruned(q, view)
}

// append makes one sequenced batch part of the copy (the caller holds
// the ingest lock and decided seq is the one to apply): refuse rows
// that disagree with the copy's width — or, while that is unknown, with
// each other — then the WAL append, and only then columns and lastSeq
// together. A non-nil ver is the node data version to advance with
// visibility (a live copy); the new version is returned. A non-nil
// parent span gets a wal_append child.
func (pt *partition) append(seq uint64, rows []storage.Row, ver *atomic.Int64, sp *trace.Span) (int64, error) {
	if err := checkWidth(rows, pt.width()); err != nil {
		return 0, fmt.Errorf("dist: partition %d: %w", pt.id, err)
	}
	wsp := sp.Child("wal_append")
	if l := pt.wal.Load(); l != nil {
		if err := l.Append(seq, rows); err != nil {
			return 0, fmt.Errorf("dist: partition %d: %w", pt.id, err)
		}
	}
	wsp.End()
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.cols.Append(rows...)
	pt.lastSeq = seq
	if ver == nil {
		return 0, nil
	}
	return ver.Add(1), nil
}

// swap replaces the content wholesale with a freshly built store (the
// caller holds the ingest lock) and advances the node data version
// with it. Outstanding views keep the old store's arrays.
func (pt *partition) swap(cols *storage.ColStore, baseLen int, lastSeq uint64, ver *atomic.Int64) int64 {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.cols, pt.baseLen, pt.lastSeq = cols, baseLen, lastSeq
	return ver.Add(1)
}

// seedLog resets l to hold exactly copy pt's ingested tail — one entry,
// rows[baseLen:] at lastSeq; logged base rows would replay twice. The
// seed is a checkpoint for replay, never a batch: /v1/walfetch serves
// only what follows it.
func seedLog(l *ingest.Log, pt *partition) error {
	view, baseLen, lastSeq := pt.snapshot()
	if err := l.Reset(); err != nil || lastSeq == 0 {
		return err
	}
	return l.Append(lastSeq, view.Rows(baseLen))
}
