package experiments

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Overhead is an overhead gate's reading, taken by the one estimator all
// five gates share (measureOverhead): a per-query paired A/B of the
// instrument's in-line cost, plus — for an instrument that also runs
// periodic background work — that work's busy time per period.
type Overhead struct {
	// Pairs is how many logical queries went to both sides.
	Pairs int
	// PairedPct is 100·(1 − ΣA/ΣB) over the winsorised per-query
	// latencies of the bare side A and the instrumented side B: the
	// closed-loop throughput drop.
	PairedPct float64
	// Period is the cadence the periodic work ran at (0: none), TickBusy
	// its median busy time per tick, TickPct = 100·TickBusy/Period.
	Period   time.Duration
	TickBusy time.Duration
	TickPct  float64
	// BoundPct is the gate: PairedPct + TickPct may not exceed it.
	BoundPct float64
}

// Pct is the overhead the gate charges: in-line plus periodic.
func (o Overhead) Pct() float64 { return o.PairedPct + o.TickPct }

// Check fails a reading above its bound, naming the estimator.
func (o Overhead) Check() error {
	if o.Pct() > o.BoundPct {
		return fmt.Errorf("overhead %s exceeds the %.0f%% bound", o, o.BoundPct)
	}
	return nil
}

func (o Overhead) String() string {
	s := fmt.Sprintf("%.2f%% [paired A/B over %d queries: %.2f%%", o.Pct(), o.Pairs, o.PairedPct)
	if o.Period > 0 {
		s += fmt.Sprintf(" + ticks %.2f%%, %v busy per %v", o.TickPct, o.TickBusy, o.Period)
	}
	return s + "]"
}

// periodic is background work an instrument runs on a cadence. The
// gates drive it by hand at that cadence instead of through the
// instrument's own loop, so that it can be timed: a pairing inside one
// process cannot see it, because both sides share the CPU it burns.
type periodic struct {
	every time.Duration
	tick  func()
}

// measureOverhead is the overhead estimator of every gate. Each of n
// logical queries goes to side a (bare) and side b (instrumented) back to
// back, on one of workers goroutines, alternating which side goes first,
// so ambient noise — a CPU-steal lump, a frequency shift, a scheduler
// stall — lands on both halves of a pair and cancels in the ratio. The
// collector is off for the run and collects between blocks; one warm-up
// block is discarded. While a measured block runs, work (if any) ticks at
// its cadence: its effect on side b's queries lands in the pair, and its
// own busy time is charged per period beside it.
func measureOverhead(n, workers int, boundPct float64, a, b func(i int) error, work *periodic) (Overhead, error) {
	ov := Overhead{Pairs: n, BoundPct: boundPct}
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	runtime.GC()
	if _, _, err := driveAB(0, n/4+1, workers, a, b); err != nil {
		return ov, err
	}
	if work != nil {
		work.tick() // first-touch costs stay out of the reading
	}
	var latA, latB, busy []time.Duration
	const blocks = 4
	for blk := 0; blk < blocks; blk++ {
		runtime.GC()
		stop := tickDuring(work)
		la, lb, err := driveAB(blk*n/blocks, (blk+1)*n/blocks, workers, a, b)
		busy = append(busy, stop()...)
		if err != nil {
			return ov, err
		}
		latA, latB = append(latA, la...), append(latB, lb...)
	}
	ov.PairedPct = 100 * pairedOverhead(latA, latB)
	if work != nil {
		if len(busy) == 0 { // a run shorter than one period
			start := time.Now()
			work.tick()
			busy = append(busy, time.Since(start))
		}
		ov.Period = work.every
		ov.TickBusy = median(busy)
		ov.TickPct = 100 * periodicShare(busy, work.every)
	}
	return ov, nil
}

// driveAB runs queries [lo, hi) through both sides and returns each
// side's per-query latencies, in query order.
func driveAB(lo, hi, workers int, a, b func(i int) error) (latA, latB []time.Duration, err error) {
	latA = make([]time.Duration, hi-lo)
	latB = make([]time.Duration, hi-lo)
	errs := make([]error, workers)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				one := func(side func(int) error, lat []time.Duration) {
					start := time.Now()
					if err := side(i); err != nil && errs[w] == nil {
						errs[w] = err
					}
					lat[i-lo] = time.Since(start)
				}
				if i%2 == 0 {
					one(a, latA)
					one(b, latB)
				} else {
					one(b, latB)
					one(a, latA)
				}
			}
		}(w)
	}
	for i := lo; i < hi; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, nil, e
		}
	}
	return latA, latB, nil
}

// tickDuring calls work.tick (if work is not nil) every work.every until
// stop is called; stop returns the busy time of each tick. Ticks run
// inside a block only, never across the collection between blocks,
// which would stall them.
func tickDuring(work *periodic) (stop func() []time.Duration) {
	if work == nil {
		return func() []time.Duration { return nil }
	}
	quit, done := make(chan struct{}), make(chan []time.Duration)
	go func() {
		t := time.NewTicker(work.every)
		defer t.Stop()
		var busy []time.Duration
		for {
			select {
			case <-quit:
				done <- busy
				return
			case <-t.C:
				start := time.Now()
				work.tick()
				busy = append(busy, time.Since(start))
			}
		}
	}()
	return func() []time.Duration {
		close(quit)
		return <-done
	}
}

// pairedOverhead is the statistic: 1 − ΣA/ΣB over the two sides'
// latencies, each winsorised at the pooled 99th percentile first. An
// ambient multi-ms stall lands on one side of one pair and would
// otherwise move the ratio by itself; the cap is taken over both sides
// pooled, so it clips outliers symmetrically, and a systematic tail
// shift still shows as mass piling up at the cap. With closed-loop
// clients throughput is workers/mean latency, so this is the throughput
// drop from A to B.
func pairedOverhead(latA, latB []time.Duration) float64 {
	pooled := make([]time.Duration, 0, len(latA)+len(latB))
	pooled = append(append(pooled, latA...), latB...)
	if len(pooled) == 0 {
		return 0
	}
	slices.Sort(pooled)
	limit := pooled[len(pooled)*99/100]
	sum := func(lats []time.Duration) float64 {
		var s time.Duration
		for _, l := range lats {
			s += min(l, limit)
		}
		return s.Seconds()
	}
	return 1 - sum(latA)/sum(latB)
}

// periodicShare charges periodic work its busy time per period: the
// median tick's. A run holds a few dozen ticks at most, and a tick the
// OS or the runtime deschedules midway reads milliseconds of waiting as
// busy; one such tick would set a mean on its own.
func periodicShare(busy []time.Duration, period time.Duration) float64 {
	return median(busy).Seconds() / period.Seconds()
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}

// countCatalog is a 64-query dashboard catalogue over the standard
// interest regions: the repeat-heavy stream every overhead gate replays.
func countCatalog(seed int64) []query.Query {
	cs := workload.NewQueryStream(workload.NewRNG(seed), workload.DefaultRegions(2), query.Count)
	catalog := make([]query.Query, 64)
	for i := range catalog {
		catalog[i] = cs.Next()
	}
	return catalog
}

// countRequests is countCatalog as wire requests.
func countRequests(seed int64) []serve.QueryRequest {
	var reqs []serve.QueryRequest
	for _, q := range countCatalog(seed) {
		reqs = append(reqs, serve.QueryRequest{Agg: "count", Los: q.Select.Los, His: q.Select.His})
	}
	return reqs
}

// fixturePair builds two identical E17 fixtures, one to stay bare and
// one for the instrument under test, with the catalogue's answers
// cached in both.
func fixturePair(nRows, training int, catalog []query.Query) (bare, fix *E17Fixture, err error) {
	if bare, err = NewE17Fixture(nRows, training); err != nil {
		return nil, nil, err
	}
	if fix, err = NewE17Fixture(nRows, training); err != nil {
		return nil, nil, err
	}
	for _, q := range catalog {
		_, _ = bare.Pool.Answer(q)
		_, _ = fix.Pool.Answer(q)
	}
	return bare, fix, nil
}

// measurePools is measureOverhead for the E18–E20 gates: query i of the
// catalogue (modulo its length) goes through a one-worker scheduler in
// front of each pool, as a server serves it, from one client.
//
// One client, because these queries cost a few µs: two identically
// built pools driven by four concurrent clients on a 2-vCPU VM read up
// to 5% apart, the same way round on every run (which hot fields share a
// cache line differs between the two heaps, and contention amplifies
// it). From one client the both-sides-bare reading stays within ±0.8%.
func measurePools(queries int, boundPct float64, bare, fix *serve.Pool, catalog []query.Query, work *periodic) (Overhead, error) {
	side := func(pool *serve.Pool) (func(int) error, func()) {
		sched := serve.NewScheduler(pool, serve.SchedulerConfig{Workers: 1, TenantInflight: -1})
		return func(i int) error {
			_, err := sched.Answer("gate", catalog[i%len(catalog)])
			return err
		}, sched.Close
	}
	a, stopA := side(bare)
	defer stopA()
	b, stopB := side(fix)
	defer stopB()
	return measureOverhead(queries, 1, boundPct, a, b, work)
}

// postSide posts query i of reqs to the cluster, round-robin over its
// members: a side of the E21 and E22 gates.
func postSide(hc *http.Client, urls []string, reqs []serve.QueryRequest) func(int) error {
	return func(i int) error {
		return e21Post(hc, urls[i%len(urls)], reqs[i%len(reqs)]).err
	}
}
