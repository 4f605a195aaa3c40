package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// ErrNoSuchPartition is returned for out-of-range partition indices.
var ErrNoSuchPartition = errors.New("cluster: no such partition")

// ErrSchemaMismatch is returned when a row's width disagrees with the
// table schema.
var ErrSchemaMismatch = errors.New("cluster: schema mismatch")

// ErrAllReplicasDown is returned when a partition's primary and replica
// nodes have both failed.
var ErrAllReplicasDown = errors.New("cluster: all replicas down")

// ErrNoColumns is returned by ScanColumns when a partition has no
// usable columnar projection (its rows became ragged through an
// UpdateWhere that resized vectors); callers fall back to the
// row-at-a-time path.
var ErrNoColumns = errors.New("cluster: no columnar projection for partition")

// Table is the simulated storage back-end of a BDAS (paper §I: "a
// distributed file system, distributed SQL or NoSQL modern databases,
// or often a combination"): numeric rows hash- or range-partitioned
// across the cluster's nodes, with replication, cost-accounted scans and
// point reads, and a version counter that model maintenance (RT1.4)
// subscribes to. Partition i's primary lives on node i mod N; its
// replica on node (i+1) mod N. Tables are built by bulk load and support
// in-place updates (for maintenance experiments) but not
// re-partitioning. Alongside each row partition the table keeps a
// storage.ColStore, the columnar projection plus zone maps that the
// vectorized exact path scans.
//
// A Table is safe for concurrent use. Readers (ScanPartition,
// ScanColumns, Get) observe an immutable epoch: appends only grow
// partitions past every outstanding slice's length, and in-place
// mutation (UpdateWhere, SortPartitions) swaps in freshly copied
// partitions, so a slice or ColumnView returned earlier never changes
// underneath its holder. Returned slices must still not be mutated by
// callers.
type Table struct {
	name    string
	columns []string
	cl      *Cluster

	// Range partitioning (ranged) places rows by Vec[0]: partition i
	// covers [bounds[i], bounds[i+1]). Hash partitioning (the default)
	// places them by MixKey. Immutable after construction.
	ranged bool
	bounds []float64

	// mu guards parts, cols, rows and version. Reads snapshot slice
	// headers under RLock; writers either append (never visible through
	// older headers) or swap in copied partitions (copy-on-write).
	mu      sync.RWMutex
	parts   [][]storage.Row
	cols    []*storage.ColStore
	version int64
	rows    int64
}

// Option configures table construction.
type Option func(*Table)

// WithRangePartitioning switches the table to range partitioning on
// Vec[0] with the given ascending boundary values (len = partitions-1).
func WithRangePartitioning(bounds []float64) Option {
	return func(t *Table) {
		t.ranged = true
		t.bounds = append([]float64(nil), bounds...)
	}
}

// NewTable creates an empty table named name with the given columns,
// spread over nParts partitions on cl.
func NewTable(cl *Cluster, name string, columns []string, nParts int, opts ...Option) (*Table, error) {
	if nParts < 1 {
		return nil, fmt.Errorf("cluster: table %q needs >= 1 partition", name)
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("cluster: table %q needs >= 1 column", name)
	}
	t := &Table{
		name:    name,
		columns: append([]string(nil), columns...),
		parts:   make([][]storage.Row, nParts),
		cols:    make([]*storage.ColStore, nParts),
		cl:      cl,
	}
	for p := range t.cols {
		t.cols[p] = storage.NewColStore(len(columns))
	}
	for _, o := range opts {
		o(t)
	}
	if t.ranged && len(t.bounds) != nParts-1 {
		return nil, fmt.Errorf("cluster: table %q: range partitioning needs %d bounds, got %d",
			name, nParts-1, len(t.bounds))
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns a copy of the column names.
func (t *Table) Columns() []string { return append([]string(nil), t.columns...) }

// Width returns the number of schema columns.
func (t *Table) Width() int { return len(t.columns) }

// Partitions returns the partition count.
func (t *Table) Partitions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.parts)
}

// Rows returns the total row count.
func (t *Table) Rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Version returns the table's data version; every mutating operation
// increments it. SEA agents compare versions to detect base-data updates
// (RT1.4 model maintenance).
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// RowBytes returns the per-row serialised size.
func (t *Table) RowBytes() int64 { return 8 + 8*int64(len(t.columns)) }

// PartitionFor returns the partition index that key/vec map to.
func (t *Table) PartitionFor(key uint64, vec []float64) int {
	if t.ranged && len(vec) > 0 {
		v := vec[0]
		for i, b := range t.bounds {
			if v < b {
				return i
			}
		}
		return len(t.parts) - 1
	}
	return int(storage.MixKey(key) % uint64(len(t.parts)))
}

// primaryNode returns the node hosting partition p's primary copy.
func (t *Table) primaryNode(p int) int { return p % t.cl.Size() }

// replicaNode returns the node hosting partition p's replica.
func (t *Table) replicaNode(p int) int { return (p + 1) % t.cl.Size() }

// Load bulk-inserts rows (no cost accounting: load is out-of-band, like
// an ETL job preceding the experiments).
func (t *Table) Load(rows []storage.Row) error {
	for _, r := range rows {
		if len(r.Vec) != len(t.columns) {
			return fmt.Errorf("%w: row width %d, table %q width %d",
				ErrSchemaMismatch, len(r.Vec), t.name, len(t.columns))
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		p := t.PartitionFor(r.Key, r.Vec)
		t.parts[p] = append(t.parts[p], r)
		t.cols[p].Append(r)
	}
	t.rows += int64(len(rows))
	t.version++
	return nil
}

// readableNode picks the primary if healthy, else the replica, else
// fails.
func (t *Table) readableNode(p int) (int, error) {
	if n := t.primaryNode(p); !t.cl.Failed(n) {
		return n, nil
	}
	if n := t.replicaNode(p); !t.cl.Failed(n) {
		return n, nil
	}
	return 0, fmt.Errorf("%w: partition %d of %q", ErrAllReplicasDown, p, t.name)
}

// snapshotPartition returns partition p's current row epoch under the
// read lock, after the replica-availability check.
func (t *Table) snapshotPartition(p int) ([]storage.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if p < 0 || p >= len(t.parts) {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchPartition, p, len(t.parts))
	}
	if _, err := t.readableNode(p); err != nil {
		return nil, err
	}
	rows := t.parts[p]
	return rows[:len(rows):len(rows)], nil
}

// ScanPartition returns partition p's rows and the cost of scanning them
// on the hosting node. The returned slice is an immutable snapshot of
// the partition's current epoch (later appends and updates are not
// visible through it) and must not be mutated by the caller.
func (t *Table) ScanPartition(p int) ([]storage.Row, metrics.Cost, error) {
	rows, err := t.snapshotPartition(p)
	if err != nil {
		return nil, metrics.Cost{}, err
	}
	cost := t.cl.ScanCost(int64(len(rows)), t.RowBytes())
	return rows, cost, nil
}

// ScanColumns returns a zero-copy columnar view of partition p — the
// vectorized scan primitive: one contiguous []float64 per column plus
// the key column, snapshotted at the partition's current epoch. The
// cost charged equals a full row scan of the partition (same bytes,
// better layout). ErrNoColumns means the partition's projection is
// unavailable (ragged rows) and the caller should fall back to
// ScanPartition.
func (t *Table) ScanColumns(p int) (storage.ColumnView, metrics.Cost, error) {
	t.mu.RLock()
	if p < 0 || p >= len(t.parts) {
		t.mu.RUnlock()
		return storage.ColumnView{}, metrics.Cost{}, fmt.Errorf("%w: %d of %d", ErrNoSuchPartition, p, len(t.parts))
	}
	if _, err := t.readableNode(p); err != nil {
		t.mu.RUnlock()
		return storage.ColumnView{}, metrics.Cost{}, err
	}
	view, ok := t.cols[p].View()
	t.mu.RUnlock()
	if !ok {
		return storage.ColumnView{}, metrics.Cost{}, fmt.Errorf("%w: partition %d of %q", ErrNoColumns, p, t.name)
	}
	cost := t.cl.ScanCost(int64(view.Len()), t.RowBytes())
	return view, cost, nil
}

// ZoneMaps returns a copy of every partition's zone map (per-column
// min/max plus row count). Partitions whose columnar projection is
// unavailable report nil bounds with their true row count, so pruning
// keeps them.
func (t *Table) ZoneMaps() []storage.ZoneMap {
	out := make([]storage.ZoneMap, 0, len(t.parts))
	t.ZoneScan(func(_ int, zm storage.ZoneMap) {
		zm.Mins = append([]float64(nil), zm.Mins...)
		zm.Maxs = append([]float64(nil), zm.Maxs...)
		out = append(out, zm)
	})
	return out
}

// ZoneScan calls fn for every partition's zone map under the table's
// read lock, without copying: the ZoneMap passed to fn aliases live
// bounds and is valid only during the call. fn must be pure — it runs
// under the lock and must not call back into the table. This is the
// allocation-free pruning primitive the per-query hot path uses;
// ZoneMaps returns stable copies instead.
func (t *Table) ZoneScan(fn func(p int, zm storage.ZoneMap)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for p := range t.parts {
		if t.cols[p] != nil && !t.cols[p].Ragged() {
			fn(p, t.cols[p].ZoneView())
		} else {
			fn(p, storage.ZoneMap{Rows: len(t.parts[p])})
		}
	}
}

// ScanPartitionPrefix reads only the first n rows of partition p — the
// "surgical access" primitive (P3): an index tells the caller how deep to
// read into a sorted run, and only that prefix is charged.
func (t *Table) ScanPartitionPrefix(p, n int) ([]storage.Row, metrics.Cost, error) {
	rows, err := t.snapshotPartition(p)
	if err != nil {
		return nil, metrics.Cost{}, err
	}
	if n > len(rows) {
		n = len(rows)
	}
	if n < 0 {
		n = 0
	}
	cost := t.cl.ScanCost(int64(n), t.RowBytes())
	return rows[:n], cost, nil
}

// ScanPartitionRange reads rows [from, to) of partition p, charging only
// that segment — the incremental pull primitive of threshold-algorithm
// operators, which deepen their read of a sorted run round by round.
func (t *Table) ScanPartitionRange(p, from, to int) ([]storage.Row, metrics.Cost, error) {
	rows, err := t.snapshotPartition(p)
	if err != nil {
		return nil, metrics.Cost{}, err
	}
	if from < 0 {
		from = 0
	}
	if to > len(rows) {
		to = len(rows)
	}
	if from >= to {
		return nil, metrics.Cost{}, nil
	}
	cost := t.cl.ScanCost(int64(to-from), t.RowBytes())
	return rows[from:to], cost, nil
}

// HostNode returns the node that a read of partition p would hit now
// (primary, or replica after failover).
func (t *Table) HostNode(p int) (int, error) {
	if p < 0 || p >= len(t.parts) {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchPartition, p)
	}
	return t.readableNode(p)
}

// Get performs a point lookup by key: it routes to the key's partition
// and charges a hash-probe (single-row) read rather than a scan.
func (t *Table) Get(key uint64) (storage.Row, bool, metrics.Cost, error) {
	if t.ranged {
		// Range-partitioned tables cannot route point lookups by key;
		// fall back to scanning all partitions' keys (charged as scans).
		var total metrics.Cost
		for pi := 0; pi < len(t.parts); pi++ {
			rows, c, err := t.ScanPartition(pi)
			total = total.Merge(c)
			if err != nil {
				return storage.Row{}, false, total, err
			}
			for _, r := range rows {
				if r.Key == key {
					return r, true, total, nil
				}
			}
		}
		return storage.Row{}, false, total, nil
	}
	p := t.PartitionFor(key, nil)
	rows, err := t.snapshotPartition(p)
	if err != nil {
		return storage.Row{}, false, metrics.Cost{}, err
	}
	// Hash-indexed probe: O(1) storage touch, one row read.
	cost := t.cl.ScanCost(1, t.RowBytes())
	for _, r := range rows {
		if r.Key == key {
			return r, true, cost, nil
		}
	}
	return storage.Row{}, false, cost, nil
}

// Append inserts one row online (charged as one write on the primary and
// one LAN replication transfer) and bumps the version.
func (t *Table) Append(r storage.Row) (metrics.Cost, error) {
	if len(r.Vec) != len(t.columns) {
		return metrics.Cost{}, fmt.Errorf("%w: row width %d, table %q width %d",
			ErrSchemaMismatch, len(r.Vec), t.name, len(t.columns))
	}
	t.mu.Lock()
	p := t.PartitionFor(r.Key, r.Vec)
	t.parts[p] = append(t.parts[p], r)
	t.cols[p].Append(r)
	t.rows++
	t.version++
	t.mu.Unlock()
	cost := t.cl.ScanCost(1, t.RowBytes()).Add(t.cl.TransferLAN(r.Bytes()))
	return cost, nil
}

// AppendBatch inserts a batch of rows online under a single version
// bump — the streaming-ingest write primitive: one batch is one durable
// unit, so model maintenance sees one data-version step per batch
// instead of one per row. The whole batch is schema-checked before any
// row lands (all-or-nothing), and each row is charged one primary write
// plus one LAN replication transfer.
func (t *Table) AppendBatch(rows []storage.Row) (metrics.Cost, error) {
	for _, r := range rows {
		if len(r.Vec) != len(t.columns) {
			return metrics.Cost{}, fmt.Errorf("%w: row width %d, table %q width %d",
				ErrSchemaMismatch, len(r.Vec), t.name, len(t.columns))
		}
	}
	var cost metrics.Cost
	t.mu.Lock()
	for _, r := range rows {
		p := t.PartitionFor(r.Key, r.Vec)
		t.parts[p] = append(t.parts[p], r)
		t.cols[p].Append(r)
		cost = cost.Add(t.cl.ScanCost(1, t.RowBytes()).Add(t.cl.TransferLAN(r.Bytes())))
	}
	if len(rows) > 0 {
		t.rows += int64(len(rows))
		t.version++
	}
	t.mu.Unlock()
	return cost, nil
}

// UpdateWhere applies fn to every row satisfying pred and returns how
// many rows changed. Mutation is copy-on-write: a touched partition's
// rows (and each updated row's vector) are copied before fn runs and
// the copy is swapped in, so snapshots returned by earlier scans keep
// their pre-update epoch. The cost is a full scan of all partitions
// (updates are rare maintenance events in the experiments).
//
// pred and fn run under the table's write lock and therefore must not
// call back into any Table method (Rows, Get, ScanPartition, ...) —
// the lock is not reentrant and such a callback would deadlock.
func (t *Table) UpdateWhere(pred func(storage.Row) bool, fn func(*storage.Row)) (int64, metrics.Cost, error) {
	var changed int64
	var total metrics.Cost
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := range t.parts {
		if _, err := t.readableNode(p); err != nil {
			return changed, total, err
		}
		rows := t.parts[p]
		total = total.Merge(t.cl.ScanCost(int64(len(rows)), t.RowBytes()))
		var fresh []storage.Row // lazily copied epoch
		for i := range rows {
			if !pred(rows[i]) {
				continue
			}
			if fresh == nil {
				fresh = append(make([]storage.Row, 0, len(rows)), rows...)
			}
			r := fresh[i]
			r.Vec = append([]float64(nil), r.Vec...)
			fn(&r)
			fresh[i] = r
			changed++
		}
		if fresh != nil {
			t.parts[p] = fresh
			t.rebuildColumns(p)
		}
	}
	if changed > 0 {
		t.version++
	}
	return changed, total, nil
}

// SortPartitions orders every partition by less. Rank-aware indexes
// (ref [30]) require score-sorted runs; the sort itself is an offline
// index-build step and is not cost-charged. Like UpdateWhere, the sort
// is copy-on-write: earlier snapshots keep their original order.
func (t *Table) SortPartitions(less func(a, b storage.Row) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := range t.parts {
		rows := append([]storage.Row(nil), t.parts[p]...)
		sort.Slice(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
		t.parts[p] = rows
		t.rebuildColumns(p)
	}
	t.version++
}

// rebuildColumns reprojects partition p after an in-place rewrite.
// Caller holds mu. Rows whose width no longer matches the schema poison
// the projection; ScanColumns then reports ErrNoColumns and readers use
// the row path.
func (t *Table) rebuildColumns(p int) {
	t.cols[p] = storage.BuildColStore(len(t.columns), t.parts[p])
}
