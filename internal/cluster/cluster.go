// Package cluster simulates the machine layer of a Big Data Analytics
// Stack: a set of data-server nodes connected by an intra-datacentre LAN,
// optionally grouped into geo-distributed regions connected by WAN links
// (paper Fig. 1 and Fig. 3), and the partitioned, replicated tables
// stored on them (Table).
//
// The simulator is a deterministic discrete-cost model, not a wall-clock
// one: operations return metrics.Cost values computed from configurable
// per-row, per-message, and per-byte constants. This substitution (see
// DESIGN.md) preserves exactly what the paper reasons about — nodes
// touched, bytes moved, passes executed — without needing a physical
// cluster.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
)

// ErrNoSuchNode is returned for out-of-range node indices.
var ErrNoSuchNode = errors.New("cluster: no such node")

// Config holds the cost-model constants. The defaults (DefaultConfig)
// approximate a 2018 commodity cluster: ~20M rows/s scan rate per node,
// 0.5 ms LAN round trips at 1 Gb/s, 50 ms WAN round trips at 100 Mb/s,
// and a 150 ms per-node framework overhead for MapReduce-style jobs (the
// layered-BDAS overhead of §II.A: job setup, container launch, task
// scheduling across YARN/Spark layers).
type Config struct {
	// PerRowScan is CPU time to scan one row from local storage.
	PerRowScan time.Duration
	// PerRowCPU is CPU time for per-row user compute (map/filter work).
	PerRowCPU time.Duration
	// LANLatency is the one-way latency of an intra-datacentre message.
	LANLatency time.Duration
	// LANBytesPerSec is intra-datacentre bandwidth.
	LANBytesPerSec float64
	// WANLatency is the one-way latency of an inter-region message.
	WANLatency time.Duration
	// WANBytesPerSec is inter-region bandwidth.
	WANBytesPerSec float64
	// FrameworkOverhead is charged once per node engaged in a
	// MapReduce-style job (layer traversal, task launch).
	FrameworkOverhead time.Duration
	// CohortOverhead is charged per node engaged by a coordinator-cohort
	// request (a lightweight RPC handler, no job machinery).
	CohortOverhead time.Duration
}

// DefaultConfig returns the cost model described on Config.
func DefaultConfig() Config {
	return Config{
		PerRowScan:        50 * time.Nanosecond,
		PerRowCPU:         20 * time.Nanosecond,
		LANLatency:        500 * time.Microsecond,
		LANBytesPerSec:    125e6, // 1 Gb/s
		WANLatency:        50 * time.Millisecond,
		WANBytesPerSec:    12.5e6, // 100 Mb/s
		FrameworkOverhead: 150 * time.Millisecond,
		CohortOverhead:    2 * time.Millisecond,
	}
}

// Node is one simulated data server.
type Node struct {
	// ID is the node's index within its cluster.
	ID int
	// Region is the geo region the node belongs to (0 for single-DC).
	Region int
	// Failed marks the node as crashed; reads redirect to replicas.
	Failed bool
}

// Cluster is a set of nodes plus the cost model.
type Cluster struct {
	cfg   Config
	nodes []Node
}

// New creates a single-region cluster of n nodes.
func New(n int, cfg Config) *Cluster {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: i}
	}
	return &Cluster{cfg: cfg, nodes: nodes}
}

// NewGeo creates a cluster with the given number of nodes per region.
func NewGeo(nodesPerRegion []int, cfg Config) *Cluster {
	var nodes []Node
	id := 0
	for region, n := range nodesPerRegion {
		for i := 0; i < n; i++ {
			nodes = append(nodes, Node{ID: id, Region: region})
			id++
		}
	}
	return &Cluster{cfg: cfg, nodes: nodes}
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Config returns the cost model.
func (c *Cluster) Config() Config { return c.cfg }

// Node returns node i.
func (c *Cluster) Node(i int) (Node, error) {
	if i < 0 || i >= len(c.nodes) {
		return Node{}, fmt.Errorf("%w: %d of %d", ErrNoSuchNode, i, len(c.nodes))
	}
	return c.nodes[i], nil
}

// Fail marks node i as crashed.
func (c *Cluster) Fail(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, i)
	}
	c.nodes[i].Failed = true
	return nil
}

// Recover clears node i's failure flag.
func (c *Cluster) Recover(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, i)
	}
	c.nodes[i].Failed = false
	return nil
}

// Failed reports whether node i is crashed (out-of-range is "failed").
func (c *Cluster) Failed(i int) bool {
	if i < 0 || i >= len(c.nodes) {
		return true
	}
	return c.nodes[i].Failed
}

// SameRegion reports whether nodes i and j are in the same region.
func (c *Cluster) SameRegion(i, j int) bool {
	if i < 0 || j < 0 || i >= len(c.nodes) || j >= len(c.nodes) {
		return false
	}
	return c.nodes[i].Region == c.nodes[j].Region
}

// ScanCost returns the cost of node work scanning rows rows of rowBytes
// each, plus per-row user compute.
func (c *Cluster) ScanCost(rows int64, rowBytes int64) metrics.Cost {
	t := time.Duration(rows) * (c.cfg.PerRowScan + c.cfg.PerRowCPU)
	return metrics.Cost{
		Time:         t,
		CPUTime:      t,
		RowsRead:     rows,
		BytesRead:    rows * rowBytes,
		NodesTouched: 1,
	}
}

// CPUCost returns the cost of pure per-row compute (no storage read) on
// one node.
func (c *Cluster) CPUCost(rows int64) metrics.Cost {
	t := time.Duration(rows) * c.cfg.PerRowCPU
	return metrics.Cost{Time: t, CPUTime: t}
}

// TransferLAN returns the cost of moving bytes across the LAN in one
// logical message exchange.
func (c *Cluster) TransferLAN(bytes int64) metrics.Cost {
	t := c.cfg.LANLatency
	if c.cfg.LANBytesPerSec > 0 {
		t += time.Duration(float64(bytes) / c.cfg.LANBytesPerSec * float64(time.Second))
	}
	return metrics.Cost{Time: t, BytesLAN: bytes, Messages: 1}
}

// TransferWAN returns the cost of moving bytes across a WAN link in one
// logical message exchange.
func (c *Cluster) TransferWAN(bytes int64) metrics.Cost {
	t := c.cfg.WANLatency
	if c.cfg.WANBytesPerSec > 0 {
		t += time.Duration(float64(bytes) / c.cfg.WANBytesPerSec * float64(time.Second))
	}
	return metrics.Cost{Time: t, BytesWAN: bytes, Messages: 1}
}

// Transfer returns TransferLAN when nodes i and j share a region and
// TransferWAN otherwise.
func (c *Cluster) Transfer(i, j int, bytes int64) metrics.Cost {
	if c.SameRegion(i, j) {
		return c.TransferLAN(bytes)
	}
	return c.TransferWAN(bytes)
}

// FrameworkLaunch returns the per-node overhead of engaging a node in a
// MapReduce-style job.
func (c *Cluster) FrameworkLaunch() metrics.Cost {
	return metrics.Cost{
		Time:         c.cfg.FrameworkOverhead,
		CPUTime:      c.cfg.FrameworkOverhead,
		NodesTouched: 1,
	}
}

// CohortLaunch returns the per-node overhead of a coordinator-cohort RPC.
func (c *Cluster) CohortLaunch() metrics.Cost {
	return metrics.Cost{
		Time:         c.cfg.CohortOverhead,
		CPUTime:      c.cfg.CohortOverhead,
		NodesTouched: 1,
	}
}
