package storage_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/workload"
)

// benchTable is a table of n rows of three columns: two uniform
// coordinates on [0, 100) and a third linear in the first.
func benchTable(n int) storage.Batch {
	rng := rand.New(rand.NewSource(1))
	t := storage.Batch{Keys: make([]uint64, n), Vals: make([]float64, 3*n), Width: 3}
	for i := range n {
		vec := t.Vec(i)
		vec[0], vec[1] = rng.Float64()*100, rng.Float64()*100
		vec[2] = 2*vec[0] + 5 + rng.NormFloat64()
		t.Keys[i] = uint64(i)
	}
	return t
}

// BenchmarkStoreLoad: building one store from a table of the named size,
// per loader. The stride-6 variant lays down one partition of six, as a
// member loading the table does. ns/row counts the rows loaded. Boot is
// a member's whole base load: the standard 1M-row table generated, then
// six stride-6 partitions built from it, timed together.
func BenchmarkStoreLoad(b *testing.B) {
	loaders := []struct {
		name   string
		stride int
		load   func(c *storage.ColStore, t storage.Batch, rows []storage.Row)
	}{
		{"AppendRowByRow", 1, func(c *storage.ColStore, _ storage.Batch, rows []storage.Row) {
			for _, r := range rows {
				c.Append(r)
			}
		}},
		{"AppendBatch", 1, func(c *storage.ColStore, _ storage.Batch, rows []storage.Row) { c.Append(rows...) }},
		{"ClusteredStride1", 1, func(c *storage.ColStore, t storage.Batch, _ []storage.Row) { c.AppendClustered(t, 0, 1) }},
		{"ClusteredStride6", 6, func(c *storage.ColStore, t storage.Batch, _ []storage.Row) { c.AppendClustered(t, 0, 6) }},
	}
	for _, n := range []int{16_384, 166_667, 1_000_000} {
		t := benchTable(n)
		rows := t.Rows()
		for _, l := range loaders {
			b.Run(fmt.Sprintf("%s/rows=%d", l.name, n), func(b *testing.B) {
				loaded := (n + l.stride - 1) / l.stride
				var spent time.Duration
				for i := 0; i < b.N; i++ {
					c := storage.NewColStore(3)
					start := time.Now()
					l.load(c, t, rows)
					spent += time.Since(start)
					if c.Len() != loaded {
						b.Fatalf("loaded %d rows, want %d", c.Len(), loaded)
					}
				}
				b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N*loaded), "ns/row")
			})
		}
	}
	const n, parts = 1_000_000, 6
	b.Run(fmt.Sprintf("Boot/rows=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := workload.StandardTable(n, 1)
			loaded := 0
			for p := range parts {
				c := storage.NewColStore(-1)
				c.AppendClustered(t, p, parts)
				loaded += c.Len()
			}
			if loaded != n {
				b.Fatalf("loaded %d rows, want %d", loaded, n)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	})
}
