package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// E19Row is one row of the cluster-introspection scenario: does the
// status plane surface a replica falling behind — and its recovery —
// and what do structured logging plus the runtime sampler cost at
// serving speed.
type E19Row struct {
	Rows  int `json:"rows"`
	Nodes int `json:"nodes"`

	// Failure narrative: batches acked while healthy, then with the
	// victim down, and the findings each phase produced.
	HealthyBatches int    `json:"healthy_batches"`
	DownBatches    int    `json:"down_batches"`
	Victim         string `json:"victim"`
	// DownCritical is the number of critical findings while the victim
	// is unreachable (must be >= 1, kind "unreachable").
	DownCritical int `json:"down_critical"`
	// LagParts / LagPeak describe the replication_lag findings right
	// after a cold revive: partitions behind and the worst batch gap.
	LagParts int    `json:"lag_parts"`
	LagPeak  uint64 `json:"lag_peak"`
	// CaughtUp reports whether the cluster was healthy with zero lag
	// findings after the explicit catch-up.
	CaughtUp bool `json:"caught_up"`

	// Observability overhead: the same repeat-heavy stream through a
	// bare pool and one with slow-query logging armed and the runtime
	// sampler ticking (bound E19Bound). The logger is rate limited — the
	// limiter, not luck, is what keeps the cost bounded.
	Overhead Overhead `json:"overhead"`
	// LogLines / LogDropped prove the logger was live and the limiter
	// engaged during the instrumented phase.
	LogLines   int64 `json:"log_lines"`
	LogDropped int64 `json:"log_dropped"`
}

// countingWriter counts emitted log lines; payloads are discarded.
type countingWriter struct{ lines int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.lines++
	return len(p), nil
}

// e19Rows builds fresh uniquely-keyed rows for ingest.
func e19Rows(n int, firstKey uint64) []storage.Row {
	out := make([]storage.Row, n)
	for i := range out {
		k := firstKey + uint64(i)
		out[i] = storage.Row{Key: k, Vec: []float64{float64(k%100) + 0.5, 50, 1}}
	}
	return out
}

// e19Findings counts findings of a kind and the worst lag among them.
func e19Findings(rep dist.ClusterReport, kind string) (n int, peak uint64) {
	for _, f := range rep.Findings {
		if f.Kind != kind {
			continue
		}
		n++
		if f.Lag > peak {
			peak = f.Lag
		}
	}
	return n, peak
}

// E19Bound is the logging and runtime-sampling gate, in percent of
// throughput.
const E19Bound = 2

// E19Introspection runs the cluster-introspection scenario end to end.
//
// Status plane: a 3-node cluster with WAL durability ingests batches,
// loses a member mid-ingest, and the /v1/debug/cluster aggregator must
// call it: a critical "unreachable" finding while the member is down,
// nonzero "replication_lag" findings after the member revives cold
// (own-WAL replay only, no log-tail fetch), and a healthy report with
// zero lag findings after an explicit CatchUp drains the gap.
//
// Overhead: two E17 fixtures serve the same fast-path stream, one bare
// and one with a slow-query threshold, a rate-limited logger and the
// runtime sampler, paired per query with the sampler's on-demand
// samples ticked by hand at its period (measureOverhead). A separate
// storm phase arms slow-query logging on every query to prove lines
// flow and the rate limiter bounds them.
func E19Introspection(nRows, training, queries int) (E19Row, error) {
	row := E19Row{Rows: nRows, Nodes: 3}

	// --- Status plane: kill, observe lag, drain it. ---
	dir, err := os.MkdirTemp("", "e19-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)

	ccfg := core.DefaultConfig(2)
	ccfg.TrainingQueries = 1 << 30 // exact-path cluster: ingest determinism
	lc, err := dist.StartLocal(row.Nodes, dist.Config{
		Agent:    ccfg,
		Replicas: 2,
		// Quorum 1: a primary acks after its own WAL write, replication
		// is best-effort — exactly the regime where a dead replica
		// falls behind instead of failing the write.
		WriteQuorum: 1,
		DataDir:     dir,
	}, workload.StandardRows(nRows/4, 7))
	if err != nil {
		return row, err
	}
	defer lc.Close()
	client := lc.Client()
	coord := lc.Node(lc.IDs()[0])

	ingest := func(batches, per int, firstKey uint64) (int, error) {
		acked := 0
		for b := 0; b < batches; b++ {
			resp, err := client.Ingest(e19Rows(per, firstKey+uint64(b*per)))
			if err != nil {
				return acked, err
			}
			if resp.AckedRows > 0 {
				acked++
			}
		}
		return acked, nil
	}

	if row.HealthyBatches, err = ingest(4, 40, 1_000_000); err != nil {
		return row, err
	}
	rep := coord.ClusterReport()
	if !rep.Healthy {
		return row, fmt.Errorf("E19: cluster unhealthy before any fault: %+v", rep.Findings)
	}

	// Kill the last member and keep writing. The victim is a replica
	// (not primary) for some partitions; those keep acking at quorum 1
	// while the victim's log stalls.
	row.Victim = lc.IDs()[row.Nodes-1]
	lc.Kill(row.Victim)
	if row.DownBatches, err = ingest(4, 40, 2_000_000); err != nil {
		return row, err
	}
	rep = coord.ClusterReport()
	row.DownCritical, _ = e19Findings(rep, "unreachable")
	if rep.Healthy || row.DownCritical == 0 {
		return row, fmt.Errorf("E19: dead member produced no critical unreachable finding: %+v", rep.Findings)
	}

	// Cold revive: the member replays only its own surviving WAL, so
	// the batches it missed show up as replication lag in the report.
	if err := lc.ReviveCold(row.Victim); err != nil {
		return row, err
	}
	rep = coord.ClusterReport()
	row.LagParts, row.LagPeak = e19Findings(rep, "replication_lag")
	if row.LagParts == 0 || row.LagPeak == 0 {
		return row, fmt.Errorf("E19: cold-revived member shows no replication lag: %+v", rep.Findings)
	}

	// Catch-up drains the gap; the next report must be clean.
	if _, err := lc.Node(row.Victim).CatchUp(); err != nil {
		return row, err
	}
	rep = coord.ClusterReport()
	if n, _ := e19Findings(rep, "replication_lag"); n == 0 && rep.Healthy {
		row.CaughtUp = true
	} else {
		return row, fmt.Errorf("E19: lag did not drain after catch-up: %+v", rep.Findings)
	}

	// --- Overhead: logging + runtime sampling at serving speed. ---
	// The dead cluster's heap goes first: carried into the measurement it
	// would make GC timing the dominant signal.
	lc.Close()
	catalog := countCatalog(300)
	bare, fix, err := fixturePair(nRows, training, catalog)
	if err != nil {
		return row, err
	}
	tracer := trace.NewTracer("local", 0)
	fix.Pool.EnableTracing(tracer)
	cw := &countingWriter{}
	logger := obs.New(cw, obs.LevelInfo)
	logger.SetRateLimit(2_000, 200)
	// Steady state: slow-query logging armed at a realistic threshold
	// (the repeat-heavy stream serves far under it, so the slow branch
	// stays cold — production's common case), logger attached, sampler
	// sampling every 50ms.
	tracer.SetSlowThreshold(50 * time.Millisecond)
	fix.Pool.SetLogger(logger)
	sampler := obs.NewRuntimeSampler(0)
	row.Overhead, err = measurePools(queries, E19Bound, bare.Pool, fix.Pool, catalog,
		&periodic{every: 50 * time.Millisecond, tick: sampler.Sample})
	if err != nil {
		return row, err
	}

	// Storm: drop the threshold to 1ns so EVERY query tries to log, and
	// prove the pipeline end to end — lines flow, and the token bucket
	// (not luck) bounds them while the Allow gate keeps suppressed calls
	// to one atomic load each.
	tracer.SetSlowThreshold(time.Nanosecond)
	before := cw.lines
	for i := 0; i < queries; i++ {
		if _, err := fix.Pool.Answer(catalog[i%len(catalog)]); err != nil {
			return row, err
		}
	}
	fix.Pool.SetLogger(nil)
	tracer.SetSlowThreshold(0)
	row.LogLines = cw.lines - before
	row.LogDropped = int64(queries) - row.LogLines
	if row.LogLines == 0 {
		return row, fmt.Errorf("E19: slow-query storm emitted no log lines")
	}
	if row.LogDropped <= 0 {
		return row, fmt.Errorf("E19: rate limiter suppressed nothing during a full storm")
	}
	return row, nil
}
