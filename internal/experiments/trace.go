package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// E18Row is one row of the observability scenario: what query-path
// tracing costs at serving speed, whether a cross-shard trace stitches
// into one multi-node span tree, and whether the continuous accuracy
// audit measures the model error the ground truth actually shows.
type E18Row struct {
	Rows int `json:"rows"`

	// Tracing overhead: the same repeat-heavy stream through a bare pool
	// and one sampling 1-in-SampleEvery queries (bound E18Bound).
	SampleEvery int      `json:"sample_every"`
	Overhead    Overhead `json:"overhead"`
	// SampledTraces is how many traces the sampler actually recorded
	// during the measurement (proves sampling was live, not disabled).
	SampledTraces int64 `json:"sampled_traces"`

	// Cross-shard stitching: one forced ?trace=1 exact query against a
	// 3-node cluster must come back as a single span tree spanning
	// multiple nodes, with at most one partial_rpc per remote holder.
	ClusterNodes     int `json:"cluster_nodes"`
	TraceSpans       int `json:"trace_spans"`
	TraceNodes       int `json:"trace_nodes"`
	PartialRPCSpans  int `json:"partial_rpc_spans"`
	MaxRemoteHolders int `json:"max_remote_holders"`

	// Accuracy audit: the shadow audit's measured MAPE on model-served
	// answers versus the ground-truth MAPE computed directly over the
	// same catalog. The audit is only trustworthy if they agree.
	AuditSamples int64   `json:"audit_samples"`
	AuditMAPE    float64 `json:"audit_mape"`
	TruthMAPE    float64 `json:"truth_mape"`
	// SlowLogged is the slow-query ring population after serving with a
	// deliberately tiny threshold (proves the slow log triggers).
	SlowLogged int `json:"slow_logged"`
}

// E18Bound is the tracing gate, in percent of throughput.
const E18Bound = 5

// E18TraceOverhead runs the observability scenario end to end.
//
// Overhead: two E17 fixtures serve the same repeat-heavy stream, one
// bare and one sampling 1-in-sampleEvery queries into a tracer, paired
// per query (measureOverhead).
//
// Audit: with the shadow audit forced to probe EVERY model-served
// answer, each catalog query is served once; the audit's measured MAPE
// is then compared against the ground-truth MAPE computed over the
// same predicted queries with the agent's exact probe.
//
// Cluster: a forced ?trace=1 exact query against a 3-node LocalCluster
// must return one stitched span tree covering multiple nodes with at
// most one partial_rpc span per remote holder.
func E18TraceOverhead(nRows, training, queries, sampleEvery int) (E18Row, error) {
	if sampleEvery < 1 {
		sampleEvery = 100
	}
	row := E18Row{Rows: nRows, SampleEvery: sampleEvery}

	catalog := countCatalog(300)
	bare, fix, err := fixturePair(nRows, training, catalog)
	if err != nil {
		return row, err
	}
	tracer := trace.NewTracer("local", 0)
	fix.Pool.EnableTracing(tracer)
	tracer.SetSampleEvery(int64(sampleEvery))
	row.Overhead, err = measurePools(queries, E18Bound, bare.Pool, fix.Pool, catalog, nil)
	if err != nil {
		return row, err
	}
	tracer.SetSampleRate(0)
	sampled, _ := tracer.Counters()
	row.SampledTraces = sampled
	if sampled == 0 {
		return row, fmt.Errorf("E18: sampler recorded no traces at 1-in-%d", sampleEvery)
	}

	// Continuous accuracy audit, shadow half: probe every model answer.
	// The answer cache is flushed first — a cache hit repeats an already
	// audited answer, so only model-tier answers are worth probing.
	fix.Pool.FlushCache()
	// Probe slots cover the whole catalog so no probe is shed — the
	// MAPE comparison below needs the full sample, not a biased subset.
	fix.Pool.EnableShadowAudit(1, len(catalog))
	tracer.SetSlowThreshold(time.Nanosecond) // everything is "slow": prove the log triggers
	var preds []struct {
		q    query.Query
		pred float64
	}
	for _, q := range catalog {
		if ans, ok := fix.Agent.TryPredict(q); ok {
			preds = append(preds, struct {
				q    query.Query
				pred float64
			}{q, ans.Value})
		}
		if _, err := fix.Pool.Answer(q); err != nil {
			return row, err
		}
	}
	fix.Pool.DrainAudits()
	tracer.SetSlowThreshold(0)
	row.SlowLogged = len(tracer.SlowLog())
	rec := fix.Pool.Recorder()
	row.AuditMAPE, row.AuditSamples = rec.AuditMAPE("shadow")
	if len(preds) == 0 {
		return row, fmt.Errorf("E18: trained agent predicted none of the catalog")
	}
	var errSum float64
	for _, pq := range preds {
		truth, err := fix.Agent.ExactProbe(pq.q)
		if err != nil {
			return row, err
		}
		errSum += core.NormError(pq.q.Aggregate, pq.pred, truth)
	}
	row.TruthMAPE = errSum / float64(len(preds))

	// Cluster half: a forced trace on an exact cross-shard query.
	ccfg := core.DefaultConfig(2)
	ccfg.TrainingQueries = 1 << 30 // never finishes training: every query is exact
	lc, err := dist.StartLocal(3, dist.Config{Agent: ccfg, Replicas: 2},
		workload.StandardRows(nRows/2, 11))
	if err != nil {
		return row, err
	}
	defer lc.Close()
	row.ClusterNodes = 3
	row.MaxRemoteHolders = row.ClusterNodes - 1
	entry := lc.IDs()[0]
	q := stream(5, query.Count).Next()
	wq := serve.QueryRequest{Agg: "count"}
	if q.Select.IsRadius() {
		wq.Center, wq.Radius = q.Select.Center, q.Select.Radius
	} else {
		wq.Los, wq.His = q.Select.Los, q.Select.His
	}
	body, err := json.Marshal(wq)
	if err != nil {
		return row, err
	}
	resp, err := http.Post(lc.URL(entry)+"/v1/query?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return row, err
	}
	defer resp.Body.Close()
	var qr dist.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return row, err
	}
	if resp.StatusCode != http.StatusOK {
		return row, fmt.Errorf("E18: traced query: HTTP %d", resp.StatusCode)
	}
	if qr.Trace == nil || qr.TraceID == "" {
		return row, fmt.Errorf("E18: ?trace=1 returned no span tree")
	}
	row.TraceSpans = qr.Trace.SpanCount()
	row.TraceNodes = len(qr.Trace.Nodes())
	row.PartialRPCSpans = qr.Trace.CountNamed("partial_rpc")
	if row.TraceNodes < 2 {
		return row, fmt.Errorf("E18: trace covers %d node(s), want a stitched multi-node tree", row.TraceNodes)
	}
	if row.PartialRPCSpans > row.MaxRemoteHolders {
		return row, fmt.Errorf("E18: %d partial_rpc spans exceed %d remote holders",
			row.PartialRPCSpans, row.MaxRemoteHolders)
	}
	// The ring must serve the same tree back by id.
	dresp, err := http.Get(lc.URL(qr.Node) + "/v1/debug/trace/" + qr.TraceID)
	if err != nil {
		return row, err
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		return row, fmt.Errorf("E18: debug trace lookup on %s: HTTP %d", qr.Node, dresp.StatusCode)
	}
	return row, nil
}
