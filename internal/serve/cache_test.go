package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/query"
)

// countingOracle answers instantly with a fixed value at a fixed data
// version.
type countingOracle struct{ version int64 }

func (o countingOracle) Answer(query.Query) (query.Result, metrics.Cost, error) {
	return query.Result{Value: 42, Support: 1}, metrics.Cost{RowsRead: 1}, nil
}

func (o countingOracle) DataVersion() int64 { return o.version }

func TestAnswerCacheVersionedGetPut(t *testing.T) {
	c := NewAnswerCache(64)
	ans := core.Answer{Value: 42, Predicted: true, Quantum: 3}
	c.Put("k", 7, ans)
	got, ok := c.Get("k", 7)
	if !ok || got != ans {
		t.Fatalf("Get(k, 7) = %+v, %v; want hit %+v", got, ok, ans)
	}
	// A different data version must miss AND evict the stale entry.
	if _, ok := c.Get("k", 8); ok {
		t.Fatal("Get at a newer version served a stale answer")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not evicted: len=%d", c.Len())
	}
	if _, ok := c.Get("absent", 7); ok {
		t.Fatal("hit on an absent key")
	}
}

func TestAnswerCacheBoundedLRU(t *testing.T) {
	c := NewAnswerCache(cacheShards) // one entry per shard
	// Overfill one shard far past its capacity: size must stay bounded.
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i, k := range keys {
		c.Put(k, 1, core.Answer{Value: float64(i)})
	}
	if got := c.Len(); got > cacheShards {
		t.Fatalf("cache grew past its bound: len=%d cap=%d", got, cacheShards)
	}
	// The most recently used key of its shard must have survived.
	last := keys[len(keys)-1]
	if _, ok := c.Get(last, 1); !ok {
		t.Fatalf("most recent key %q was evicted", last)
	}
}

func TestAnswerCacheTTLExpiry(t *testing.T) {
	c := NewAnswerCache(64)
	c.SetTTL(20 * time.Millisecond)
	c.Put("k", 1, core.Answer{Value: 1})
	if _, ok := c.Get("k", 1); !ok {
		t.Fatal("fresh entry missed")
	}
	time.Sleep(30 * time.Millisecond)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("aged-out entry served (TTL bounds invisible-write staleness)")
	}
	if c.Len() != 0 {
		t.Fatalf("aged-out entry not evicted: len=%d", c.Len())
	}
}

func TestAnswerCacheFlush(t *testing.T) {
	c := NewAnswerCache(64)
	for _, k := range []string{"x", "y", "z"} {
		c.Put(k, 1, core.Answer{Value: 1})
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Flush left %d entries", c.Len())
	}
	if _, ok := c.Get("x", 1); ok {
		t.Fatal("hit after Flush")
	}
}

func TestAnswerCacheConcurrent(t *testing.T) {
	c := NewAnswerCache(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := []string{"p", "q", "r", "s"}
			for i := 0; i < 2000; i++ {
				k := keys[(i+w)%len(keys)]
				if i%3 == 0 {
					c.Put(k, int64(i%5), core.Answer{Value: float64(i)})
				} else {
					c.Get(k, int64(i%5))
				}
				if i%500 == 0 {
					c.Flush()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestKeyCanonicalisesIgnoredColumns is the regression test for the
// cache/single-flight identity bug: columns an aggregate never reads
// must not split equivalent queries into distinct keys.
func TestKeyCanonicalisesIgnoredColumns(t *testing.T) {
	sel := query.Selection{Los: []float64{1, 2}, His: []float64{3, 4}}
	countA := query.Query{Select: sel, Aggregate: query.Count, Col: 3, Col2: 5}
	countB := query.Query{Select: sel, Aggregate: query.Count}
	if Key(countA) != Key(countB) {
		t.Errorf("COUNT keys split on ignored columns:\n %q\n %q", Key(countA), Key(countB))
	}
	sumA := query.Query{Select: sel, Aggregate: query.Sum, Col: 1, Col2: 9}
	sumB := query.Query{Select: sel, Aggregate: query.Sum, Col: 1}
	if Key(sumA) != Key(sumB) {
		t.Errorf("SUM keys split on ignored Col2:\n %q\n %q", Key(sumA), Key(sumB))
	}
	sumC := query.Query{Select: sel, Aggregate: query.Sum, Col: 2}
	if Key(sumA) == Key(sumC) {
		t.Error("SUM keys must still distinguish the aggregated column")
	}
	corrA := query.Query{Select: sel, Aggregate: query.Corr, Col: 0, Col2: 1}
	corrB := query.Query{Select: sel, Aggregate: query.Corr, Col: 0, Col2: 2}
	if Key(corrA) == Key(corrB) {
		t.Error("CORR keys must distinguish Col2")
	}
	if Key(countA) != string(AppendKey(nil, countA)) {
		t.Error("Key and AppendKey disagree")
	}
}

// TestPoolCacheDedupsEquivalentQueries proves two wire-level different
// but semantically identical queries share one cache entry: the second
// is served as a cache hit without another fallback.
func TestPoolCacheDedupsEquivalentQueries(t *testing.T) {
	agent, err := core.NewAgent(countingOracle{version: 1}, core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(agent, nil)
	pool.EnableCache(128)
	q1 := countAt(1, 2)
	q1.Col, q1.Col2 = 7, 8 // junk columns COUNT never reads
	q2 := countAt(1, 2)
	a1, err := pool.Answer(q1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := pool.Answer(q2)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Value != a2.Value {
		t.Fatalf("equivalent queries answered differently: %v vs %v", a1.Value, a2.Value)
	}
	snap := pool.Recorder().Snapshot()
	if snap.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1 (equivalent query must reuse the entry)", snap.CacheHits)
	}
	if snap.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", snap.Fallbacks)
	}
}
