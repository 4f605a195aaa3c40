// Package storage is the column store a BDAS data node serves from:
// rows of numeric attributes kept per partition as a ColStore, one
// contiguous array per column plus zone maps and block summaries, which
// the vectorized kernels in internal/query scan. MixKey is the
// row-placement hash every partitioned layer shares.
package storage

// Row is one stored record: a key plus a numeric attribute vector.
type Row struct {
	// Key is the record identifier (join key for rank-join workloads).
	Key uint64
	// Vec holds the attribute values, one per schema column.
	Vec []float64
}

// Bytes returns the serialised size of the row under the simulator's
// fixed-width encoding (8 bytes per field plus the key).
func (r Row) Bytes() int64 { return 8 + 8*int64(len(r.Vec)) }

// MixKey is the splitmix-style finalizer that keeps key-hash placement
// uniform even for sequential keys. It is THE row-placement hash: both
// the simulated table's hash partitioning (internal/cluster) and the
// serving cluster's ingest routing (internal/dist) use it, so the two
// layers agree on where a key lives.
func MixKey(key uint64) uint64 {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	return key
}

// Batch is a table of rows that holds no pointer per row: row i is
// Keys[i] and the Width values at Vals[i*Width:]. It is the form a bulk
// load takes, from the generator to ColStore.AppendClustered.
type Batch struct {
	// Keys holds one key per row.
	Keys []uint64
	// Vals holds the rows' values, row-major.
	Vals []float64
	// Width is the number of values per row.
	Width int
}

// Len returns the number of rows.
func (b Batch) Len() int { return len(b.Keys) }

// Vec returns row i's values; the slice aliases Vals, its capacity
// pinned to the row.
func (b Batch) Vec(i int) []float64 {
	return b.Vals[i*b.Width : (i+1)*b.Width : (i+1)*b.Width]
}

// Rows returns the table as rows whose vectors alias Vals.
func (b Batch) Rows() []Row {
	rows := make([]Row, b.Len())
	for i := range rows {
		rows[i] = Row{Key: b.Keys[i], Vec: b.Vec(i)}
	}
	return rows
}

// BatchOf copies rows into a table as wide as the first row. The rows
// must share that width; a caller holding rows from outside the program
// checks them first.
func BatchOf(rows []Row) Batch {
	if len(rows) == 0 {
		return Batch{}
	}
	w := len(rows[0].Vec)
	b := Batch{Keys: make([]uint64, len(rows)), Vals: make([]float64, len(rows)*w), Width: w}
	for i, r := range rows {
		b.Keys[i] = r.Key
		copy(b.Vec(i), r.Vec)
	}
	return b
}
