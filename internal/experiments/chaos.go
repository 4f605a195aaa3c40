package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/workload"
)

// E21Row is one row of the chaos-resilience scenario: what does the
// hardened RPC plane (deadlines, budgeted retries, breakers, hedging,
// degradation) cost with chaos disabled, and does a cluster under
// injected slow/flaky/partitioned peers keep serving with zero
// client-visible errors and honest degraded coverage.
type E21Row struct {
	Rows  int `json:"rows"`
	Nodes int `json:"nodes"`

	// Overhead: the same scatter stream against a resilience-stripped
	// cluster (no retries, no hedging, breakers pinned closed) and the
	// hardened defaults, chaos disarmed in both (bound E21Bound).
	Workers  int      `json:"workers"`
	Overhead Overhead `json:"overhead"`
	// Hedges counts hedged scatter RPCs fired by the hardened cluster
	// during the overhead measurement (the plumbing is live, not just
	// built).
	Hedges int64 `json:"hedges"`

	// Narrative: 3-node cluster, chaos armed — one peer's partials
	// blackholed, the other slowed +100ms jittered with a 10% injected
	// error rate.
	Queries      int     `json:"queries"`
	ClientErrors int     `json:"client_errors"`
	BaseP99MS    float64 `json:"base_p99_ms"`
	ChaosP99MS   float64 `json:"chaos_p99_ms"`
	Degraded     int     `json:"degraded"`
	MinCoverage  float64 `json:"min_coverage"`
	MaxCoverage  float64 `json:"max_coverage"`
	// HonestyErrPct is the worst relative error (in %) of a degraded
	// whole-space COUNT after coverage extrapolation against the true
	// row count: honest coverage makes the estimate land on the truth.
	HonestyErrPct float64 `json:"honesty_err_pct"`
	Delayed       int64   `json:"delayed"`
	Errored       int64   `json:"errored"`
	Blackholed    int64   `json:"blackholed"`
	RPCRetries    int64   `json:"rpc_retries"`
	// BreakerOpened reports that some member's breaker for the
	// blackholed peer observably opened under chaos; BreakerReclosed
	// that every breaker returned to closed (via half-open probes)
	// within RecoverMS after the rules cleared.
	BreakerOpened   bool  `json:"breaker_opened"`
	BreakerReclosed bool  `json:"breaker_reclosed"`
	RecoverMS       int64 `json:"recover_ms"`
}

// e21Client is the load-driver HTTP client: enough idle conns per host
// that concurrent workers reuse keep-alives instead of handshaking.
func e21Client() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
		},
	}
}

// e21Result is one driven query's client-side outcome.
type e21Result struct {
	err      error
	lat      time.Duration
	degraded bool
	coverage float64
	value    float64
}

// e21Drive posts reqs concurrently on workers goroutines, spraying
// them round-robin across the given member URLs (the way real clients
// spread over a cluster — every member coordinates its share, so every
// member's breakers see call volume), and returns per-query outcomes
// in request order.
func e21Drive(hc *http.Client, bases []string, reqs []serve.QueryRequest, workers int) []e21Result {
	out := make([]e21Result, len(reqs))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = e21Post(hc, bases[i%len(bases)], reqs[i])
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// e21Post sends one query and decodes the cluster's answer.
func e21Post(hc *http.Client, base string, req serve.QueryRequest) e21Result {
	body, err := json.Marshal(req)
	if err != nil {
		return e21Result{err: err}
	}
	start := time.Now()
	resp, err := hc.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return e21Result{err: err, lat: time.Since(start)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return e21Result{err: fmt.Errorf("HTTP %d", resp.StatusCode), lat: time.Since(start)}
	}
	var qr dist.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return e21Result{err: err, lat: time.Since(start)}
	}
	return e21Result{
		lat:      time.Since(start),
		degraded: qr.Degraded,
		coverage: qr.Coverage,
		value:    qr.Value,
	}
}

// e21P99 returns the p99 of latencies in milliseconds.
func e21P99(res []e21Result) float64 {
	lats := make([]float64, 0, len(res))
	for _, r := range res {
		lats = append(lats, float64(r.lat)/float64(time.Millisecond))
	}
	sort.Float64s(lats)
	if len(lats) == 0 {
		return 0
	}
	return lats[len(lats)*99/100]
}

// e21SetChaos drives the runtime toggle the operator would use:
// POST /v1/debug/chaos with the rule set (nil clears).
func e21SetChaos(hc *http.Client, base string, rules []chaos.Rule) error {
	st := struct {
		Enabled bool         `json:"enabled"`
		Rules   []chaos.Rule `json:"rules,omitempty"`
	}{Enabled: len(rules) > 0, Rules: rules}
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	resp, err := hc.Post(base+"/v1/debug/chaos", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos toggle HTTP %d", resp.StatusCode)
	}
	return nil
}

// E21Bound is the resilience-plane gate, in percent of throughput.
const E21Bound = 2

// memberURLs lists the cluster's member base URLs.
func memberURLs(lc *dist.LocalCluster) []string {
	urls := make([]string, 0, len(lc.IDs()))
	for _, id := range lc.IDs() {
		urls = append(urls, lc.URL(id))
	}
	return urls
}

// E21ChaosResilience runs the chaos-hardening scenario end to end.
//
// Overhead: two identical 3-node clusters serve the same repeat
// scatter stream (answer cache off, exact agents: every query fans out
// over /v1/partials) — one with the resilience plane stripped to its
// pre-hardening behaviour (RetryBudget<0, HedgeQuantile<0, breakers
// pinned closed), one with the hardened defaults and the chaos
// interceptor installed but disarmed, paired per query
// (measureOverhead). Sequential before/after phases swing ±10% per pair
// in this harness; the pairing cancels that noise.
//
// Narrative: a 3-node R=1 cluster serves unique whole-space COUNT
// queries while chaos rules injected at runtime blackhole one peer's
// /v1/partials (a partition of the scatter plane: that peer's data
// partitions have no other holder) and slow the other by 100ms ±100ms
// jitter with a 10% injected error rate. The cluster must answer every
// query (zero client-visible errors: injected errors are retried under
// budget, the partitioned peer's partitions degrade instead of
// failing), degraded answers must carry honest coverage (< 1, and the
// coverage-extrapolated COUNT lands on the true row count), p99 must
// stay bounded by the RPC timeout plus retry budget rather than the
// blackhole, and some member's breaker for the partitioned peer must
// observably open, then re-close via a half-open probe after the rules
// clear. Clients spray queries round-robin over every member, so each
// member coordinates a share of the stream and warms its own breakers.
func E21ChaosResilience(nRows, workers, perWorker int) (E21Row, error) {
	if workers < 1 {
		workers = 1
	}
	if perWorker < 1 {
		perWorker = 1
	}
	row := E21Row{Rows: nRows, Nodes: 3, Workers: workers}
	rows := workload.StandardRows(nRows/4, 7)
	hc := e21Client()

	// --- Overhead: stripped vs hardened resilience, chaos disarmed. ---
	ccfg := core.DefaultConfig(2)
	ccfg.TrainingQueries = 1 << 30 // exact path: every query scatters
	mk := func(stripped bool) (*dist.LocalCluster, error) {
		cfg := dist.Config{
			Agent:       ccfg,
			Replicas:    2,
			AnswerCache: -1, // every repeat re-scatters: the RPC plane is the workload
		}
		if stripped {
			cfg.RetryBudget = -1
			cfg.HedgeQuantile = -1
			cfg.BreakerFailureRate = -1
		}
		return dist.StartLocal(row.Nodes, cfg, rows)
	}
	base, err := mk(true)
	if err != nil {
		return row, err
	}
	defer base.Close()
	hard, err := mk(false)
	if err != nil {
		return row, err
	}
	defer hard.Close()

	catalog := countRequests(400)
	row.Overhead, err = measureOverhead(workers*perWorker, workers, E21Bound,
		postSide(hc, memberURLs(base), catalog), postSide(hc, memberURLs(hard), catalog), nil)
	if err != nil {
		return row, fmt.Errorf("E21: overhead query failed: %v", err)
	}
	for _, id := range hard.IDs() {
		row.Hedges += hard.Node(id).NodeStatus().Resilience.Hedges
	}
	base.Close()
	hard.Close()

	// --- Narrative: armed chaos on a live cluster. ---
	// R=1 so the blackholed peer's data partitions have no alternate
	// holder: the scatter path must degrade over them, not fail over.
	// Timeout bounds what one blackholed RPC can cost; Cooldown doubles
	// as the breaker's open interval, so recovery is observable fast.
	lc, err := dist.StartLocal(row.Nodes, dist.Config{
		Agent:       ccfg,
		Replicas:    1,
		AnswerCache: -1,
		Timeout:     400 * time.Millisecond,
		Cooldown:    300 * time.Millisecond,
		// One retry: enough to mask the 10% injected error rate (and to
		// show up in the counters) without letting a single query burn
		// its whole tail on the blackholed peer before the breaker opens.
		RetryBudget: 1,
		// Scatter waves block on the blackhole for the full RPC timeout
		// until the breaker opens; spare workers keep those stalls from
		// queueing the rest of the stream behind them.
		Workers: 16,
	}, rows)
	if err != nil {
		return row, err
	}
	defer lc.Close()
	ids := lc.IDs()
	slowURL, victimURL := lc.URL(ids[1]), lc.URL(ids[2])
	trueCount := float64(len(rows))
	bases := memberURLs(lc)
	// worstBreaker is the cluster-wide worst breaker state: clients spray
	// every member, so any member may coordinate a query and any member's
	// breaker for the victim may be the one that opens.
	worstBreaker := func() int {
		worst := 0
		for _, id := range ids {
			if w := lc.Node(id).NodeStatus().Resilience.WorstBreaker; w > worst {
				worst = w
			}
		}
		return worst
	}

	wholeSpace := func(i int) serve.QueryRequest {
		// Unique whole-space COUNTs: every query scatters across every
		// partition holder, and the true answer is the full row count.
		return serve.QueryRequest{Agg: "count",
			Los: []float64{-1e9 + float64(i), -1e9}, His: []float64{1e9, 1e9}}
	}
	narrative := func(n, from int) []e21Result {
		reqs := make([]serve.QueryRequest, n)
		for i := range reqs {
			reqs[i] = wholeSpace(from + i)
		}
		return e21Drive(hc, bases, reqs, 6)
	}

	const baseN, chaosN = 120, 240
	baseRes := narrative(baseN, 0)
	for _, r := range baseRes {
		if r.err != nil {
			return row, fmt.Errorf("E21: healthy-phase query failed: %v", r.err)
		}
		if r.degraded {
			return row, fmt.Errorf("E21: healthy phase produced a degraded answer")
		}
	}
	row.BaseP99MS = e21P99(baseRes)

	// Arm chaos over the wire on every member — the runtime toggle, not
	// a test backdoor. The same rule set everywhere: the victim's
	// partials endpoint is partitioned off, the slow peer's is delayed
	// 100ms ± 100ms with a 10% injected error rate.
	rules := []chaos.Rule{
		{Peer: victimURL, Endpoint: "/v1/partials", Blackhole: true},
		{Peer: slowURL, Endpoint: "/v1/partials", LatencyMS: 100, JitterMS: 100, ErrorRate: 0.10},
	}
	for _, id := range ids {
		if err := e21SetChaos(hc, lc.URL(id), rules); err != nil {
			return row, err
		}
	}
	// Watch the members' breakers for the victim while the chaos phase
	// runs: some breaker must observably leave closed (open or half-open).
	stopWatch := make(chan struct{})
	var watched sync.WaitGroup
	watched.Add(1)
	go func() {
		defer watched.Done()
		for {
			select {
			case <-stopWatch:
				return
			case <-time.After(50 * time.Millisecond):
				if worstBreaker() > 0 {
					row.BreakerOpened = true
				}
			}
		}
	}()
	chaosRes := narrative(chaosN, baseN)
	close(stopWatch)
	watched.Wait()
	row.Queries = baseN + chaosN

	row.MinCoverage, row.MaxCoverage = 2, 0
	for _, r := range chaosRes {
		if r.err != nil {
			row.ClientErrors++
			continue
		}
		if !r.degraded {
			continue
		}
		row.Degraded++
		row.MinCoverage = math.Min(row.MinCoverage, r.coverage)
		row.MaxCoverage = math.Max(row.MaxCoverage, r.coverage)
		if e := 100 * math.Abs(r.value-trueCount) / trueCount; e > row.HonestyErrPct {
			row.HonestyErrPct = e
		}
	}
	row.ChaosP99MS = e21P99(chaosRes)
	if row.ClientErrors != 0 {
		return row, fmt.Errorf("E21: chaos phase leaked %d client-visible errors", row.ClientErrors)
	}
	if row.Degraded == 0 {
		return row, fmt.Errorf("E21: blackholed partition produced no degraded answers")
	}
	if row.MinCoverage <= 0 || row.MaxCoverage >= 1 {
		return row, fmt.Errorf("E21: degraded coverage [%.3f, %.3f] not in (0, 1)",
			row.MinCoverage, row.MaxCoverage)
	}
	if row.HonestyErrPct > 5 {
		return row, fmt.Errorf("E21: coverage-extrapolated COUNT off by %.1f%% (dishonest coverage)",
			row.HonestyErrPct)
	}
	if !row.BreakerOpened {
		return row, fmt.Errorf("E21: no member's breaker left closed under a blackholed peer")
	}
	// p99 bounded structurally: before the breaker opens, one query can
	// burn its full retry budget against the blackholed peer — (1 +
	// RetryBudget) timeouts plus backoffs plus the slow peer — but never
	// hang on the blackhole itself. 6x the 400ms RPC timeout covers that
	// worst case with headroom; an unbounded tail fails loudly.
	if limit := 6 * float64(400*time.Millisecond/time.Millisecond); row.ChaosP99MS > limit {
		return row, fmt.Errorf("E21: chaos p99 %.0fms exceeds the structural bound %.0fms",
			row.ChaosP99MS, limit)
	}
	for _, id := range ids {
		row.RPCRetries += lc.Node(id).NodeStatus().Resilience.RPCRetries
	}
	if row.RPCRetries == 0 {
		return row, fmt.Errorf("E21: injected errors drove no budgeted retries")
	}
	for _, id := range ids {
		st := lc.Chaos(id).Stats()
		row.Delayed += st.Delayed
		row.Errored += st.Errored
		row.Blackholed += st.Blackholed
	}
	if row.Delayed == 0 || row.Errored == 0 || row.Blackholed == 0 {
		return row, fmt.Errorf("E21: chaos stats %+v: some armed fault never fired", row)
	}

	// Clear the rules over the wire and drive light traffic until every
	// member's breakers re-close (half-open probe admitted, probe
	// succeeded) and answers return to full coverage.
	for _, id := range ids {
		if err := e21SetChaos(hc, lc.URL(id), nil); err != nil {
			return row, err
		}
	}
	recoverStart := time.Now()
	seq := baseN + chaosN
	for i := 0; i < 80; i++ {
		r := e21Post(hc, bases[i%len(bases)], wholeSpace(seq))
		seq++
		if r.err == nil && !r.degraded && worstBreaker() == 0 {
			if math.Abs(r.value-trueCount) > 0.5 {
				return row, fmt.Errorf("E21: recovered COUNT %.0f != %.0f", r.value, trueCount)
			}
			row.BreakerReclosed = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	row.RecoverMS = time.Since(recoverStart).Milliseconds()
	if !row.BreakerReclosed {
		return row, fmt.Errorf("E21: breaker did not re-close within %dms of clearing chaos", row.RecoverMS)
	}
	return row, nil
}
