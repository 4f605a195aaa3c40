package dist

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/trace"
)

// scatterOracle is the exact engine behind each node's agents: a query
// that needs the exact path is scatter-gathered across the cluster's
// data partitions and merged with the distributable aggregate kernels
// in internal/query. The agent serialises oracle calls under its write
// lock, so the oracle itself needs no extra synchronisation beyond the
// node's read-only partition map.
type scatterOracle struct {
	n *Node
}

func (o scatterOracle) Answer(q query.Query) (query.Result, metrics.Cost, error) {
	return o.n.ScatterGather(q)
}

// AnswerSpan is the traced oracle hook (core.SpanOracle): the agent's
// fallback span becomes the parent of the scatter-gather's local-scan,
// per-holder RPC and merge spans.
func (o scatterOracle) AnswerSpan(q query.Query, sp *trace.Span) (query.Result, metrics.Cost, error) {
	return o.n.ScatterGatherSpan(q, sp)
}

// DataVersion tracks the node's live data version: the bulk load is
// version 1 and every applied ingest batch advances it. Agents absorb
// the same version through AbsorbRows, so the fast path stays live
// across ingest (incremental maintenance) while legacy agents see the
// change and invalidate. The serving layer's answer cache stamps its
// entries with the same version, so an applied batch also expires every
// cached answer it could have staled.
func (o scatterOracle) DataVersion() int64 { return o.n.DataVersion() }

type partialResult struct {
	partial []float64
	rows    int64 // rows streamed through the kernels (cost.rows_read)
	// summarised is the rows answered from block summaries; only the
	// local scan fills it (a holder reports its own in its span tree).
	summarised int64
	holder     string
}

// jsonBufPool pools call's request and response buffers, so a scatter
// under load does not churn a fresh buffer per round trip.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ScatterGather computes q's exact answer across every data partition:
// local partitions are evaluated in place while remote ones are fetched
// from their ring holders, and the per-partition aggregate states merge
// exactly (COUNT/SUM) or from per-shard moments (AVG/VAR/CORR) via
// query.MergeEval.
//
// The fan-out is message-minimal and bounded: missing partitions are
// grouped by holder and fetched with ONE batched POST /v1/partials per
// holder (not one RPC per partition), all work runs on a worker pool of
// at most DefaultGatherFanout goroutines, and a holder failure
// re-batches just its leftover partitions onto the next replicas. Cost
// accounting reflects the batched shape: Messages counts 2 per RPC
// round trip, BytesLAN the actual request+response payload bytes, and
// NodesTouched the distinct holders that contributed states.
//
// Resilience: a propagated deadline bounds every remote round trip and
// refuses dead-on-arrival work; exhausted candidate lists are re-walked
// under a per-query retry budget with exponential backoff + jitter;
// slow holders are hedged to a second replica after a quantile-based
// delay; and when a partition's holders are ALL gone, the merge
// degrades to the covered partitions (query.Extrapolate) instead of
// failing. A query with no partition covered at all still fails.
func (n *Node) ScatterGather(q query.Query) (query.Result, metrics.Cost, error) {
	return n.ScatterGatherSpan(q, nil)
}

// ScatterGatherSpan is ScatterGather under a (possibly nil) parent span:
// the local vectorized scan and each per-holder batched partial RPC
// (siblings that overlap in time), then the final merge, get child
// spans, and holders asked under a trace return their own span trees,
// which are grafted under the matching partial_rpc span — one stitched
// tree across node boundaries.
func (n *Node) ScatterGatherSpan(q query.Query, sp *trace.Span) (query.Result, metrics.Cost, error) {
	start := time.Now()
	if !q.Deadline.IsZero() && !start.Before(q.Deadline) {
		return query.Result{}, metrics.Cost{}, serve.ErrDeadline
	}
	// Validate aggregate columns against the local schema (adopted from
	// the data) before fanning out: a malformed query fails loudly here
	// instead of summing silent zeros across the cluster.
	if w := n.schemaWidth(); w >= 0 {
		if err := q.ValidateCols(w); err != nil {
			return query.Result{}, metrics.Cost{}, err
		}
	}
	results := make([]partialResult, n.cfg.Partitions)
	held := n.liveParts()
	var missing []int
	for p, i := 0, 0; p < n.cfg.Partitions; p++ {
		if i < len(held) && held[i].id == p {
			i++
		} else {
			missing = append(missing, p)
		}
	}
	// The peers scan while this node does: the remote gather runs on its
	// own goroutine beside the local scan (sibling spans that overlap in
	// time). The two fill disjoint entries of results; remoteErr and the
	// RPC cost belong to the gather goroutine until the join.
	cost := metrics.Cost{}
	var remoteErr error
	var remote sync.WaitGroup
	if len(missing) > 0 {
		remote.Add(1)
		go func() {
			defer remote.Done()
			rpcBytes, rpcs, err := n.gatherRemote(q, missing, results, sp)
			remoteErr = err
			cost.Messages += 2 * int64(rpcs) // one request + one response per holder round trip
			cost.BytesLAN += rpcBytes
		}()
	}
	lsp := sp.Child("local_scan")
	runBounded(DefaultGatherFanout, len(held), func(i int) {
		partial, scanned, summarised := held[i].partial(q)
		results[held[i].id] = partialResult{partial: partial, rows: scanned, summarised: summarised, holder: n.id}
	})
	lsp.End()
	if lsp != nil {
		var scanned, summarised int64
		for _, pt := range held {
			scanned += results[pt.id].rows
			summarised += results[pt.id].summarised
		}
		lsp.SetAttrInt("parts", int64(len(held)))
		lsp.SetAttrInt("rows_scanned", scanned)
		lsp.SetAttrInt("rows_summarised", summarised)
	}
	remote.Wait()

	msp := sp.Child("merge")
	partials := make([][]float64, 0, len(results))
	holders := make(map[string]bool)
	uncovered := 0
	for p := range results {
		r := &results[p]
		if r.partial == nil {
			if remoteErr == nil {
				remoteErr = fmt.Errorf("dist: partition %d unresolved", p)
			}
			uncovered++
			continue
		}
		partials = append(partials, r.partial)
		cost.RowsRead += r.rows
		holders[r.holder] = true
	}
	covered := n.cfg.Partitions - uncovered
	if uncovered > 0 && covered == 0 {
		msp.End()
		return query.Result{}, metrics.Cost{}, remoteErr
	}
	res := query.MergeEval(q, partials)
	if uncovered > 0 {
		res = query.Extrapolate(q, res, float64(covered)/float64(n.cfg.Partitions))
		msp.SetAttrFloat("coverage", res.Coverage)
	}
	msp.End()
	elapsed := time.Since(start)
	cost.Time = elapsed
	cost.CPUTime = elapsed
	cost.NodesTouched = len(holders)
	sp.SetAttrInt("nodes", int64(len(holders)))
	return res, cost, nil
}

// gatherRemote resolves the missing partitions: each round groups the
// still-unresolved partitions by their next untried ring holder, issues
// one batched /v1/partials RPC per holder on the bounded pool, and
// re-batches whatever a holder failed to deliver (transport error, or a
// per-partition "not held" entry) onto the next replicas. A partition
// whose candidates are all exhausted re-walks them under the per-query
// retry budget (exponential backoff + jitter, deadline-clamped); once
// the budget too is spent the partition is abandoned — left nil in
// results for the caller to degrade over — rather than failing the
// whole query. It returns the total wire bytes moved, the RPC round
// trips issued, and the last error when any partition was abandoned.
// Under a trace each holder round trip gets a partial_rpc child span
// carrying the holder's returned span tree.
func (n *Node) gatherRemote(q query.Query, missing []int, results []partialResult, sp *trace.Span) (int64, int, error) {
	wire := queryToWire(q, "")
	// Per-partition remote holder candidates in ring order, consumed by
	// a cursor as failovers advance.
	cand := make(map[int][]string, len(missing))
	next := make(map[int]int, len(missing))
	ms := n.members()
	for _, p := range missing {
		for _, h := range ms.ring.Owners(partKey(p), n.cfg.Replicas) {
			if h != n.id {
				cand[p] = append(cand[p], h)
			}
		}
	}

	var bytesMoved int64
	var rpcs int
	var lastErr error
	budget := n.cfg.RetryBudget
	backoff := DefaultRetryBackoff
	unresolved := append([]int(nil), missing...)
	for len(unresolved) > 0 {
		groups := make(map[string][]int)
		var exhausted, abandoned []int
		for _, p := range unresolved {
			if holder := n.nextHolder(ms.urls, groups, cand[p], next, p); holder != "" {
				groups[holder] = append(groups[holder], p)
			} else {
				exhausted = append(exhausted, p)
			}
		}
		if len(exhausted) > 0 {
			// Candidates exhausted: re-walk them if the retry budget and
			// deadline allow, otherwise abandon the partitions (degraded
			// merge) instead of failing the query. One budget unit buys
			// one re-walk ROUND for every exhausted partition — a single
			// failed batch RPC exhausts all its partitions at once, and
			// charging each of them separately would burn the whole
			// budget on one correlated failure.
			if budget > 0 && (q.Deadline.IsZero() || time.Now().Before(q.Deadline)) {
				budget--
				n.rec().RPCRetry()
				sleepBackoff(&backoff, q.Deadline)
				for _, p := range exhausted {
					next[p] = 0
					if holder := n.nextHolder(ms.urls, groups, cand[p], next, p); holder != "" {
						groups[holder] = append(groups[holder], p)
					} else {
						abandoned = append(abandoned, p)
					}
				}
			} else {
				abandoned = exhausted
			}
			if len(abandoned) > 0 && lastErr == nil {
				lastErr = errAllReplicas(fmt.Sprintf("partition %d", abandoned[0]), nil)
			}
		}

		type rpcOut struct {
			holder string
			parts  []int
			resp   []PartPartial
			bytes  int64
			err    error
		}
		outs := make([]rpcOut, 0, len(groups))
		for h, ps := range groups {
			sort.Ints(ps)
			outs = append(outs, rpcOut{holder: h, parts: ps})
		}
		sort.Slice(outs, func(i, j int) bool { return outs[i].holder < outs[j].holder })
		runBounded(DefaultGatherFanout, len(outs), func(i int) {
			o := &outs[i]
			url := ms.urls[o.holder]
			// A hedge candidate: the first abandoned-free partition's
			// next untried closed holder (cursor not advanced — a
			// hedge is speculative, not a failover).
			hedgeURL := n.hedgeCandidate(o.parts, cand, next, o.holder)
			// Span.Child is safe under concurrent workers; a nil sp
			// keeps the whole branch free.
			rsp := sp.Child("partial_rpc")
			o.resp, o.bytes, o.err = n.fetchPartialsHedged(url, hedgeURL, o.parts, wire, rsp)
			rsp.End()
			rsp.SetAttr("holder", o.holder)
			rsp.SetAttrInt("parts", int64(len(o.parts)))
			if o.err != nil {
				rsp.SetAttr("error", o.err.Error())
			}
		})

		unresolved = unresolved[:0]
		for _, o := range outs {
			if o.err != nil {
				lastErr = o.err
				unresolved = append(unresolved, o.parts...)
				continue
			}
			rpcs++
			bytesMoved += o.bytes
			got := make(map[int]bool, len(o.resp))
			for _, e := range o.resp {
				if e.Error != "" || e.Partial == nil {
					continue
				}
				if e.Part < 0 || e.Part >= len(results) {
					continue
				}
				got[e.Part] = true
				results[e.Part] = partialResult{
					partial: e.Partial, rows: e.Rows, holder: o.holder,
				}
			}
			for _, p := range o.parts {
				if !got[p] {
					unresolved = append(unresolved, p)
				}
			}
		}
		if len(abandoned) > 0 && len(unresolved) == 0 && len(groups) == 0 {
			break // nothing left but abandoned partitions
		}
	}
	return bytesMoved, rpcs, lastErr
}

// nextHolder advances partition p's candidate cursor to the next holder
// the peer tracker admits and returns it ("" = exhausted). A holder
// already in this round's groups was admitted for the one batched RPC
// it is about to get, so it is taken without a second admission: one
// admission per reported RPC, and a half-open holder's probe carries
// every partition it holds.
func (n *Node) nextHolder(urls map[string]string, groups map[string][]int, cands []string, next map[int]int, p int) string {
	for next[p] < len(cands) {
		h := cands[next[p]]
		next[p]++
		if _, admitted := groups[h]; admitted {
			return h
		}
		if url := urls[h]; url != "" && n.health.admit(url) {
			return h
		}
	}
	return ""
}

// hedgeCandidate picks a holder to hedge a batched RPC to: the first
// still-untried closed candidate of any partition in the batch that is
// not the primary holder. It reads the peer tracker without admitting —
// most hedges never fire, and an unfired hedge reports nothing — so a
// half-open peer's probe slot is left to a call that will report.
// Cursors are NOT advanced — if the primary answers first the candidate
// stays fresh for real failovers.
func (n *Node) hedgeCandidate(parts []int, cand map[int][]string, next map[int]int, primary string) string {
	if n.hedgeDelay() <= 0 {
		return ""
	}
	urls := n.members().urls
	for _, p := range parts {
		for i := next[p]; i < len(cand[p]); i++ {
			h := cand[p][i]
			if h == primary {
				continue
			}
			if url, ok := urls[h]; ok && url != "" && n.health.state(url) == peerClosed {
				return url
			}
		}
	}
	return ""
}

// sleepBackoff sleeps *backoff plus up to +100% jitter (clamped to the
// deadline) and doubles the backoff for the next use.
func sleepBackoff(backoff *time.Duration, deadline time.Time) {
	d := *backoff + time.Duration(rand.Int64N(int64(*backoff)))
	if !deadline.IsZero() {
		if left := time.Until(deadline); left < d {
			d = left
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
	*backoff *= 2
}

// fetchPartialsHedged runs one batched partials round trip, firing a
// second copy at hedgeURL if the primary is still unanswered after the
// node's quantile-based hedge delay. The first success wins and the
// loser's context is cancelled; the hedge is counted in
// sea_hedges_total but not in the partials-sent counter (it is
// deliberate extra fan-out, not part of the message-minimal shape).
//
// The common case — the primary answers before the delay — must cost
// nearly nothing beyond the RPC itself: the primary runs synchronously
// on the caller's goroutine and the hedge is armed as a time.AfterFunc,
// which spawns a goroutine only when the delay actually fires (for a
// p95-quantile delay, 19 RPCs in 20 never do). The overhead gate in E21
// rides on this: a goroutine+timer+select per RPC was measurable against
// the stripped baseline, an armed-but-unfired AfterFunc is not.
func (n *Node) fetchPartialsHedged(url, hedgeURL string, parts []int, wq serve.QueryRequest, sp *trace.Span) ([]PartPartial, int64, error) {
	delay := n.hedgeDelay()
	if hedgeURL == "" || delay <= 0 {
		ps, b, err := n.fetchPartials(context.Background(), url, parts, wq, sp, false)
		n.health.observe(url, err)
		return ps, b, err
	}
	type out struct {
		resp  []PartPartial
		bytes int64
		err   error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // kills a still-in-flight hedge on every return path
	priCtx, priCancel := context.WithCancel(ctx)
	defer priCancel()
	ch := make(chan out, 1)
	tm := time.AfterFunc(delay, func() {
		n.rec().Hedge()
		ps, b, err := n.fetchPartials(ctx, hedgeURL, parts, wq, sp, true)
		if err == nil {
			priCancel() // the hedge won: yank the still-blocked primary
		}
		ch <- out{resp: ps, bytes: b, err: err}
	})
	ps, b, err := n.fetchPartials(priCtx, url, parts, wq, sp, false)
	hedgeLaunched := !tm.Stop()
	// The primary was admitted, so its outcome is reported on every
	// path; the winning hedge's cancellation of it reads as no verdict.
	n.health.observe(url, err)
	if err == nil {
		// The primary won (or tied). A launched hedge dies with the
		// deferred cancel; its outcome is dropped unobserved (it was
		// never admitted, and a cancellation says nothing).
		return ps, b, nil
	}
	if !hedgeLaunched {
		// The primary failed before the delay: the caller's normal
		// failover handles the next replica — a fast failure needs no
		// hedge.
		return nil, 0, err
	}
	o := <-ch
	n.health.observe(hedgeURL, o.err)
	if o.err == nil {
		return o.resp, o.bytes, nil
	}
	// The hedge failed, so it never cancelled the primary: err is the
	// primary's own, and the first error wins as before.
	return nil, 0, err
}

// hedgeDelay returns the current hedging delay (0 = hedging off or not
// enough latency samples yet).
func (n *Node) hedgeDelay() time.Duration {
	return time.Duration(n.hedgeNs.Load())
}

// observePartialLat feeds one successful primary partials RPC latency
// into the hedge-delay estimate: every hedgeRecalcEvery samples the
// configured quantile is re-read from the histogram and cached in an
// atomic (the per-RPC cost stays one histogram record + one load).
func (n *Node) observePartialLat(d time.Duration) {
	if n.cfg.HedgeQuantile < 0 {
		return
	}
	n.partialLat.RecordDur(d)
	if c := n.partialLatN.Add(1); c >= hedgeMinSamples && c%hedgeRecalcEvery == 0 {
		q := n.partialLat.Snapshot().Quantile(n.cfg.HedgeQuantile)
		if min := int64(hedgeMinDelay); q < min {
			q = min
		}
		n.hedgeNs.Store(q)
	}
}

const (
	// hedgeMinSamples is how many primary RPC latencies must be
	// observed before hedging arms (an empty histogram's quantile
	// would hedge everything).
	hedgeMinSamples = 32
	// hedgeRecalcEvery bounds how often the quantile is recomputed.
	hedgeRecalcEvery = 32
	// hedgeMinDelay floors the hedge delay so loopback-fast clusters
	// do not hedge the common case.
	hedgeMinDelay = 2 * time.Millisecond
)

// fetchPartials runs one batched partials round trip against a holder,
// returning its per-partition entries and the request+response payload
// bytes. The query's deadline rides in the envelope and bounds the
// round trip. A non-nil span asks the holder for its own span tree and
// grafts it underneath.
func (n *Node) fetchPartials(ctx context.Context, url string, parts []int, wq serve.QueryRequest, sp *trace.Span, hedge bool) ([]PartPartial, int64, error) {
	var pr PartialsResponse
	start := time.Now()
	rep, err := n.call(ctx, http.MethodPost, url+"/v1/partials",
		envelope{deadline: wq.DeadlineMS, trace: sp != nil}, PartialsRequest{Parts: parts, Query: wq}, &pr)
	if err != nil {
		return nil, 0, fmt.Errorf("partials from %s: %w", url, err)
	}
	sp.AttachWire(pr.Spans)
	if !hedge {
		n.partialsSent.Add(1)
		n.observePartialLat(time.Since(start))
	}
	return pr.Partials, rep.bytes, nil
}

// runBounded runs fn(0..n-1) on at most fanout worker goroutines
// (fanout <= 0: one per item; a single worker runs inline) and waits
// for completion — the bounded replacement for the old
// goroutine-per-partition spawn.
func runBounded(fanout, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	if fanout <= 0 || fanout > n {
		fanout = n
	}
	if fanout == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(fanout)
	for w := 0; w < fanout; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}
