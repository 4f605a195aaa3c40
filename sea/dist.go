package sea

// This file starts the distributed serving cluster (internal/dist)
// in-process: a consistent-hash ring shards the query space and the data
// partitions across HTTP/JSON members with R-way replication, exact
// answers scatter-gather the distributable aggregate kernels, replica
// failover masks dead members, and new replicas warm up by model-snapshot
// shipping. See cmd/seaserve for multi-process launch and DESIGN.md's
// "Distributed cluster" section for the architecture.

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/storage"
)

// ClusterConfig describes a member (see dist.Config).
type ClusterConfig = dist.Config

// LocalCluster runs N members in-process on loopback HTTP (tests,
// demos; see dist.LocalCluster).
type LocalCluster = dist.LocalCluster

// AgentSnapshot is the serialisable agent state used for model shipping
// (see core.AgentSnapshot).
type AgentSnapshot = core.AgentSnapshot

// StartLocalCluster boots n in-process members over rows.
func StartLocalCluster(n int, cfg ClusterConfig, rows []storage.Row) (*LocalCluster, error) {
	return dist.StartLocal(n, cfg, rows)
}

// Snapshot exports the agent's full learned state for model shipping.
func (a *Agent) Snapshot() *AgentSnapshot { return a.inner.Snapshot() }

// RestoreSnapshot replaces the agent's learned state with a shipped
// snapshot's; it fails (without touching the agent) on a version
// mismatch.
func (a *Agent) RestoreSnapshot(s *AgentSnapshot) error { return a.inner.Restore(s) }
