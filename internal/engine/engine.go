// Package engine implements the two distributed processing paradigms the
// paper contrasts (RT3.2): a MapReduce-style engine that launches job
// tasks on every node holding data, and a coordinator–cohort engine in
// which a coordinating node engages only selected nodes and pulls only
// selected rows ("surgical access", P3).
//
// Both paradigms run over internal/storage tables and charge their work
// to metrics.Cost values: the MapReduce path pays per-node framework
// overhead, full scans, and a shuffle; the cohort path pays light RPCs to
// just the nodes an index selects. Every experiment contrasting
// "traditional BDAS processing" (Fig. 1) against SEA methods goes through
// this package.
package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// Engine executes distributed tasks over a cluster.
type Engine struct {
	cl *cluster.Cluster
}

// New creates an engine bound to cl.
func New(cl *cluster.Cluster) *Engine { return &Engine{cl: cl} }

// Cluster returns the underlying cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// KV is one intermediate or final key/value pair of a MapReduce job.
type KV struct {
	// Key groups values for reduction.
	Key uint64
	// Value is the payload vector.
	Value []float64
}

// Bytes returns the pair's serialised size under the fixed-width
// encoding.
func (kv KV) Bytes() int64 { return 8 + 8*int64(len(kv.Value)) }

// Mapper emits zero or more KV pairs for one input row.
type Mapper func(row storage.Row, emit func(KV))

// Reducer folds all values that share a key into zero or more outputs.
type Reducer func(key uint64, values [][]float64) [][]float64

// MapReduce runs a full map → shuffle → reduce pass over every partition
// of t. Cost model, mirroring §II.A's complaints:
//
//   - every node holding data pays FrameworkOverhead (layer traversal),
//   - every partition is scanned in full,
//   - all intermediate pairs cross the LAN in a shuffle,
//   - reducers (spread over the same nodes) pay per-pair compute,
//   - virtual time is the max over parallel nodes plus the shuffle and
//     reduce critical path.
func (e *Engine) MapReduce(t *cluster.Table, m Mapper, r Reducer) ([]KV, metrics.Cost, error) {
	var mapPhase metrics.Cost // parallel across nodes
	intermediate := make(map[uint64][][]float64)
	var shuffleBytes int64
	var pairs int64

	nodesSeen := make(map[int]bool)
	for p := 0; p < t.Partitions(); p++ {
		rows, scanCost, err := t.ScanPartition(p)
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("mapreduce on %q: %w", t.Name(), err)
		}
		node, err := t.HostNode(p)
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("mapreduce on %q: %w", t.Name(), err)
		}
		partCost := scanCost
		if !nodesSeen[node] {
			nodesSeen[node] = true
			partCost = partCost.Add(e.cl.FrameworkLaunch())
			partCost.NodesTouched = 1
		} else {
			partCost.NodesTouched = 0 // same node, don't double-count
		}
		for _, row := range rows {
			m(row, func(kv KV) {
				intermediate[kv.Key] = append(intermediate[kv.Key], kv.Value)
				shuffleBytes += kv.Bytes()
				pairs++
			})
		}
		mapPhase = mapPhase.Merge(partCost)
	}

	shuffle := e.cl.TransferLAN(shuffleBytes)
	// The shuffle is all-to-all: charge one message per participating
	// node pair direction, approximated as one transfer per node.
	shuffle.Messages = int64(len(nodesSeen))

	reduceCost := e.cl.CPUCost(pairs)
	var out []KV
	keys := make([]uint64, 0, len(intermediate))
	for k := range intermediate {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		for _, v := range r(k, intermediate[k]) {
			out = append(out, KV{Key: k, Value: v})
		}
	}
	var outBytes int64
	for _, kv := range out {
		outBytes += kv.Bytes()
	}
	collect := e.cl.TransferLAN(outBytes)

	total := mapPhase.Add(shuffle).Add(reduceCost).Add(collect)
	total.RowsReturned = int64(len(out))
	return out, total, nil
}

// CohortTask is executed "on" a cohort node against one partition. It
// returns the produced result vectors and how many rows of the partition
// it actually read (surgical access reads fewer than len(part)).
type CohortTask func(part []storage.Row) (results [][]float64, rowsRead int64)

// CohortResult is one partition's contribution to a coordinator-cohort
// request.
type CohortResult struct {
	// Partition is the partition index the result came from.
	Partition int
	// Results holds the vectors the cohort node returned.
	Results [][]float64
}

// CoordinatorGather engages only the given partitions: the coordinator
// sends one request message per involved node, each node runs task over
// its partition (paying only for the rows the task actually reads), and
// the results stream back. Virtual time = request RTT + max per-node work
// + response transfer.
func (e *Engine) CoordinatorGather(t *cluster.Table, partitions []int, task CohortTask) ([]CohortResult, metrics.Cost, error) {
	var nodeWork metrics.Cost // parallel across cohort nodes
	var respBytes int64
	var out []CohortResult
	nodesSeen := make(map[int]bool)
	rowBytes := t.RowBytes()

	for _, p := range partitions {
		rows, _, err := t.ScanPartition(p) // access; actual read cost charged below
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("cohort gather on %q: %w", t.Name(), err)
		}
		node, err := t.HostNode(p)
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("cohort gather on %q: %w", t.Name(), err)
		}
		results, rowsRead := task(rows)
		c := e.cl.ScanCost(rowsRead, rowBytes)
		if !nodesSeen[node] {
			nodesSeen[node] = true
			c = c.Add(e.cl.CohortLaunch())
			c.NodesTouched = 1
		} else {
			c.NodesTouched = 0
		}
		nodeWork = nodeWork.Merge(c)
		for _, v := range results {
			respBytes += 8 + 8*int64(len(v))
		}
		out = append(out, CohortResult{Partition: p, Results: results})
	}

	// One request message per node plus the response transfer.
	req := metrics.Cost{
		Time:     e.cl.Config().LANLatency,
		Messages: int64(len(nodesSeen)),
	}
	resp := e.cl.TransferLAN(respBytes)
	total := req.Add(nodeWork).Add(resp)
	total.RowsReturned = int64(len(out))
	return out, total, nil
}

// PartTask is executed "on" a cohort node against one partition,
// addressed by index so the task can choose its own access path (e.g. a
// columnar scan). It returns the produced result vectors and how many
// rows it actually read.
type PartTask func(p int) (results [][]float64, rowsRead int64, err error)

// CoordinatorGatherParallel is CoordinatorGather with the node-side
// work fanned out across up to GOMAXPROCS coordinator workers — the
// simulator equivalent of cohort nodes genuinely working in parallel.
// The cost model is identical to CoordinatorGather (one launch per
// involved node, per-partition scan charges merged as parallel work,
// one request message per node plus the response transfer) and is
// assembled in partition order, so costs and results are deterministic
// regardless of goroutine scheduling.
func (e *Engine) CoordinatorGatherParallel(t *cluster.Table, partitions []int, task PartTask) ([]CohortResult, metrics.Cost, error) {
	type partOut struct {
		results  [][]float64
		rowsRead int64
		err      error
	}
	outs := make([]partOut, len(partitions))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(partitions) {
		workers = len(partitions)
	}
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(partitions) {
						return
					}
					o := &outs[i]
					o.results, o.rowsRead, o.err = task(partitions[i])
				}
			}()
		}
		wg.Wait()
	} else {
		for i, p := range partitions {
			o := &outs[i]
			o.results, o.rowsRead, o.err = task(p)
		}
	}

	var nodeWork metrics.Cost // parallel across cohort nodes
	var respBytes int64
	out := make([]CohortResult, 0, len(partitions))
	nodesSeen := make(map[int]bool)
	for i, p := range partitions {
		if outs[i].err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("cohort gather on %q: %w", t.Name(), outs[i].err)
		}
		node, err := t.HostNode(p)
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("cohort gather on %q: %w", t.Name(), err)
		}
		c := e.cl.ScanCost(outs[i].rowsRead, t.RowBytes())
		if !nodesSeen[node] {
			nodesSeen[node] = true
			c = c.Add(e.cl.CohortLaunch())
			c.NodesTouched = 1
		} else {
			c.NodesTouched = 0
		}
		nodeWork = nodeWork.Merge(c)
		for _, v := range outs[i].results {
			respBytes += 8 + 8*int64(len(v))
		}
		out = append(out, CohortResult{Partition: p, Results: outs[i].results})
	}

	req := metrics.Cost{
		Time:     e.cl.Config().LANLatency,
		Messages: int64(len(nodesSeen)),
	}
	resp := e.cl.TransferLAN(respBytes)
	total := req.Add(nodeWork).Add(resp)
	total.RowsReturned = int64(len(out))
	return out, total, nil
}

// CoordinatorPrefixGather is CoordinatorGather for sorted-run access: for
// each (partition, depth) request it reads only the first depth rows —
// the access pattern of threshold-algorithm rank joins (ref [30]).
func (e *Engine) CoordinatorPrefixGather(t *cluster.Table, depths map[int]int) (map[int][]storage.Row, metrics.Cost, error) {
	out := make(map[int][]storage.Row, len(depths))
	var nodeWork metrics.Cost
	var respBytes int64
	nodesSeen := make(map[int]bool)

	parts := make([]int, 0, len(depths))
	for p := range depths {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		rows, c, err := t.ScanPartitionPrefix(p, depths[p])
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("prefix gather on %q: %w", t.Name(), err)
		}
		node, err := t.HostNode(p)
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("prefix gather on %q: %w", t.Name(), err)
		}
		if !nodesSeen[node] {
			nodesSeen[node] = true
			c = c.Add(e.cl.CohortLaunch())
			c.NodesTouched = 1
		} else {
			c.NodesTouched = 0
		}
		nodeWork = nodeWork.Merge(c)
		respBytes += int64(len(rows)) * t.RowBytes()
		out[p] = rows
	}
	req := metrics.Cost{
		Time:     e.cl.Config().LANLatency,
		Messages: int64(len(nodesSeen)),
	}
	total := req.Add(nodeWork).Add(e.cl.TransferLAN(respBytes))
	return out, total, nil
}

// Segment names a half-open row range [From, To) of one partition.
type Segment struct {
	// From is the first row index to read.
	From int
	// To is one past the last row index to read.
	To int
}

// CoordinatorSegmentGather reads one row segment per partition — the
// incremental round of a threshold algorithm: each round deepens the read
// into each sorted run by a delta, paying only for the delta.
func (e *Engine) CoordinatorSegmentGather(t *cluster.Table, segs map[int]Segment) (map[int][]storage.Row, metrics.Cost, error) {
	out := make(map[int][]storage.Row, len(segs))
	var nodeWork metrics.Cost
	var respBytes int64
	nodesSeen := make(map[int]bool)

	parts := make([]int, 0, len(segs))
	for p := range segs {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		seg := segs[p]
		rows, c, err := t.ScanPartitionRange(p, seg.From, seg.To)
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("segment gather on %q: %w", t.Name(), err)
		}
		node, err := t.HostNode(p)
		if err != nil {
			return nil, metrics.Cost{}, fmt.Errorf("segment gather on %q: %w", t.Name(), err)
		}
		if !nodesSeen[node] {
			nodesSeen[node] = true
			c = c.Add(e.cl.CohortLaunch())
			c.NodesTouched = 1
		} else {
			c.NodesTouched = 0
		}
		nodeWork = nodeWork.Merge(c)
		respBytes += int64(len(rows)) * t.RowBytes()
		out[p] = rows
	}
	req := metrics.Cost{
		Time:     e.cl.Config().LANLatency,
		Messages: int64(len(nodesSeen)),
	}
	total := req.Add(nodeWork).Add(e.cl.TransferLAN(respBytes))
	return out, total, nil
}

// PointGet is a coordinator-side point lookup helper that wraps
// storage.Get with the request/response message costs.
func (e *Engine) PointGet(t *cluster.Table, key uint64) (storage.Row, bool, metrics.Cost, error) {
	row, ok, c, err := t.Get(key)
	if err != nil {
		return storage.Row{}, false, c, fmt.Errorf("point get on %q: %w", t.Name(), err)
	}
	total := e.cl.TransferLAN(64).Add(c)
	if ok {
		total = total.Add(e.cl.TransferLAN(row.Bytes()))
	}
	return row, ok, total, nil
}
