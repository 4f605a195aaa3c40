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
