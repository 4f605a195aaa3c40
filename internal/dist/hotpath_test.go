package dist

import (
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
)

// countBox returns a COUNT query covering the whole [0,100]^2 data
// space, so its exact answer is the cluster's total row count.
func countBox() query.Query {
	return query.Query{
		Select:    query.Selection{Los: []float64{-1e6, -1e6}, His: []float64{1e6, 1e6}},
		Aggregate: query.Count,
	}
}

// TestScatterGatherOnePartialRPCPerHolder is the acceptance check of
// the batched fan-out: a cluster-mode exact fallback must issue at most
// ONE partial RPC per remote holder per query — not one per partition —
// and the cost accounting must reflect that shape.
func TestScatterGatherOnePartialRPCPerHolder(t *testing.T) {
	lc, rows := exactCluster(t, 3)
	entry := lc.Node(lc.IDs()[0])
	others := lc.IDs()[1:]

	// The entry node can never need more RPCs than there are remote
	// members to batch to.
	remoteMax := len(others)

	qs := aggStreams(7)
	for round := 0; round < 10; round++ {
		q := qs[round%len(qs)].Next()
		sentBefore := entry.PartialRPCsSent()
		servedBefore := make(map[string]int64, len(others))
		for _, id := range others {
			servedBefore[id] = lc.Node(id).PartialRPCsServed()
		}
		res, cost, err := entry.ScatterGather(q)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := query.EvalRows(q, rows).Value
		if !closeEnough(q.Aggregate, res.Value, want) {
			t.Fatalf("round %d: got %v want %v", round, res.Value, want)
		}
		sent := entry.PartialRPCsSent() - sentBefore
		var served int64
		for _, id := range others {
			delta := lc.Node(id).PartialRPCsServed() - servedBefore[id]
			if delta > 1 {
				t.Fatalf("round %d: holder %s served %d partial RPCs for one query, want <= 1",
					round, id, delta)
			}
			served += delta
		}
		if sent != served {
			t.Fatalf("round %d: sent %d batched RPCs but holders served %d", round, sent, served)
		}
		if int(sent) > remoteMax {
			t.Fatalf("round %d: %d RPCs for %d remote holders", round, sent, remoteMax)
		}
		if cost.Messages != 2*sent {
			t.Fatalf("round %d: cost.Messages=%d, want 2 per RPC round trip (%d)",
				round, cost.Messages, 2*sent)
		}
		if sent > 0 && cost.BytesLAN <= 0 {
			t.Fatalf("round %d: remote RPCs moved no accounted bytes", round)
		}
		if err := fullWalk(cost.RowsRead, len(rows), entry.Partitions()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestScatterGatherFailoverRebatches kills one member and proves the
// batched fan-out re-batches the dead holder's partitions onto the
// surviving replicas: the answer stays exact and error-free.
func TestScatterGatherFailoverRebatches(t *testing.T) {
	lc, rows := exactCluster(t, 3)
	entry := lc.Node(lc.IDs()[0])
	lc.Kill(lc.IDs()[1])

	q := countBox()
	var got query.Result
	var err error
	// The first attempt may spend its error budget discovering the dead
	// peer; the peer tracker then holds it open.
	for attempt := 0; attempt < 3; attempt++ {
		got, _, err = entry.ScatterGather(q)
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("scatter never recovered after kill: %v", err)
	}
	if got.Value != float64(len(rows)) {
		t.Fatalf("failover answer %v, want %d", got.Value, len(rows))
	}
}

// TestIngestInvalidatesCachedAnswers is the staleness acceptance test:
// an ingest-driven DataVersion bump must invalidate cached answers — a
// query repeated after an acked batch sees the new rows, never the
// cached pre-ingest answer. The tail runs queries concurrently with
// ingest so `go test -race` exercises the cache/ingest interleaving.
func TestIngestInvalidatesCachedAnswers(t *testing.T) {
	lc, rows := exactCluster(t, 3)
	client := lc.Client()
	q := countBox()

	a1, err := client.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Value != float64(len(rows)) {
		t.Fatalf("baseline count %v, want %d", a1.Value, len(rows))
	}
	// Repeat: served from the versioned cache (same key, same owner).
	a2, err := client.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Value != a1.Value {
		t.Fatalf("repeat answer %v != %v", a2.Value, a1.Value)
	}
	var hits int64
	for _, id := range lc.IDs() {
		hits += lc.Node(id).Pool().Recorder().Snapshot().CacheHits
	}
	if hits == 0 {
		t.Fatal("repeated identical query never hit the answer cache")
	}

	// Ingest rows inside the selection; the ack means a quorum applied
	// them and bumped their data versions.
	batch := make([]storage.Row, 50)
	for i := range batch {
		batch[i] = storage.Row{Key: uint64(1_000_000 + i), Vec: []float64{50, 50, 1}}
	}
	resp, err := client.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.AckedRows != len(batch) {
		t.Fatalf("acked %d of %d rows on a healthy cluster", resp.AckedRows, len(batch))
	}

	a3, err := client.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(len(rows) + len(batch)); a3.Value != want {
		t.Fatalf("post-ingest answer %v, want %v (stale cached answer served?)", a3.Value, want)
	}

	// Concurrent readers vs writers: no errors, and once quiesced the
	// cache serves the final truth.
	var wg sync.WaitGroup
	const writers, batches, perBatch = 2, 10, 5
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := make([]storage.Row, perBatch)
				for i := range rows {
					rows[i] = storage.Row{
						Key: uint64(2_000_000 + w*batches*perBatch + b*perBatch + i),
						Vec: []float64{25, 75, 1},
					}
				}
				if _, err := client.Ingest(rows); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := client.Answer(q); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	final, err := client.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(len(rows) + len(batch) + writers*batches*perBatch); final.Value != want {
		t.Fatalf("final count %v, want %v", final.Value, want)
	}
}
