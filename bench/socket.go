package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	// Shares of -seconds: open loop at the base rate, open loop at the
	// hi rate, closed loop at saturation.
	baseShare, hiShare = 0.35, 0.35
	tailWindows        = 3
	satWindows         = 4
	// minAchieved is the share of the timetable the generator must keep.
	minAchieved = 0.98
)

// socketRun is everything the run over real sockets measured.
type socketRun struct {
	endToEnd *report
	// layers holds the per-layer metrics only the real processes can
	// give: server counters, response bodies, /proc and the data dir.
	layers    *report
	problems  []string
	attempted int
	failed    int
	ops       []op
	firstOp   int     // index of the first timed op
	oneConnUS float64 // one-connection closed-loop query p50 (trace runs)
}

func runSockets(c config, sp spec, bin, scratch string) (*socketRun, error) {
	conns := runtime.NumCPU()
	total := time.Duration(c.seconds) * time.Second
	baseSpan := time.Duration(float64(total) * baseShare)
	hiSpan := time.Duration(float64(total) * hiShare)
	satSpan := total - baseSpan - hiSpan
	nBase := int(sp.baseRate * baseSpan.Seconds())
	nHi := int(sp.hiRate * hiSpan.Seconds())
	nSat := int(float64(sp.satCap) * satSpan.Seconds())
	nOne := 0
	if c.trace == 1 {
		nOne = sp.satCap
	}
	ops := genOps(sp, c.seed, sp.warmOps+nBase+nHi+nSat+nOne)

	var truth *oracle
	if sp.readOnly {
		truth = newOracle(workload.StandardRows(sp.rows, stateSeed))
	}

	var setups []float64
	var topo *topology
	var gen *generator
	var warm phase
	for rep := 0; rep < sp.setupReps; rep++ {
		dir := filepath.Join(scratch, fmt.Sprintf("setup%d", rep))
		t0 := time.Now()
		var err error
		if topo, err = startTopology(bin, sp, dir); err != nil {
			return nil, err
		}
		gen = newGenerator(ops, topo.urls(), conns)
		warm = gen.closedLoop("warm", 0, sp.warmOps, time.Hour)
		setups = append(setups, time.Since(t0).Seconds())
		if rep < sp.setupReps-1 {
			gen.close()
			topo.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	// Error returns leave the servers to the caller's cleanup, which kills
	// whatever is still running.
	fail := func(err error) (*socketRun, error) {
		return nil, fmt.Errorf("%w\n%s", err, topo.failureReport())
	}

	before, err := servingCounters(topo)
	if err != nil {
		return fail(err)
	}
	_, cpu0, err := topo.usage()
	if err != nil {
		return fail(err)
	}
	// The generator shares the machine with the servers it measures, so
	// its own garbage collector stays off while a phase is timed: a mark
	// cycle over the op sequence would show up as server latency. The
	// phases allocate well under a GiB between them.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	off := sp.warmOps
	base := gen.openLoop("base", off, nBase, sp.baseRate)
	_, cpu1, err := topo.usage()
	if err != nil {
		return fail(err)
	}
	runtime.GC()
	hi := gen.openLoop("hi", off+nBase, nHi, sp.hiRate)
	runtime.GC()
	sat := gen.closedLoop("sat", off+nBase+nHi, nSat, satSpan)
	debug.SetGCPercent(gcPercent)
	rss, _, err := topo.usage()
	if err != nil {
		return fail(err)
	}
	after, err := servingCounters(topo)
	if err != nil {
		return fail(err)
	}

	out := &socketRun{endToEnd: newReport(), layers: newReport(), ops: ops, firstOp: off}
	phases := []phase{warm, base, hi, sat}
	if c.trace == 1 {
		one := newGenerator(ops, topo.urls(), 1)
		ph := one.closedLoop("one-conn", off+nBase+nHi+nSat, nOne, time.Second)
		one.close()
		lat := sortedValues(ph.latencies(ops, false))
		p50, err := percentile(lat, 0.5)
		if err != nil {
			return fail(fmt.Errorf("one-connection phase: %w", err))
		}
		out.oneConnUS = p50 * 1000
		phases = append(phases, ph)
	}
	for _, ph := range phases {
		out.count(ops, ph)
	}
	for _, ph := range []phase{base, hi} {
		if a := ph.achieved(); a < minAchieved {
			return fail(fmt.Errorf("invalid run: the generator kept %.1f%% of the %s timetable, need %.0f%%",
				a*100, ph.name, minAchieved*100))
		}
	}

	// End-to-end metrics.
	e := out.endToEnd
	e.set("setup_s", median(append([]float64(nil), setups...)), fmt.Sprintf("median of %d boots, spawn to end of the %d-op warm-up", sp.setupReps, sp.warmOps))
	baseQ, hiQ := base.latencies(ops, false), hi.latencies(ops, false)
	for _, m := range []struct {
		into *report
		name string
		ph   phase
		lat  []timed
		p    float64
	}{
		{e, "q_p50_ms", base, baseQ, 0.5},
		{out.layers, "q_tail_ms", base, baseQ, sp.tail},
		{out.layers, "q_hi_tail_ms", hi, hiQ, sp.tail},
	} {
		v, err := windowed(m.lat, m.ph.span, tailWindows, m.p)
		if err != nil {
			return fail(fmt.Errorf("%s: %w (raise -seconds)", m.name, err))
		}
		m.into.set(m.name, v, fmt.Sprintf("p%g, median of %d windows, n=%d, %s phase at %.0f ops/s",
			m.p*100, tailWindows, len(m.lat), m.ph.name, float64(len(m.ph.results))/m.ph.span.Seconds()))
	}
	within, hiQueries := 0, 0
	for _, r := range hi.results {
		if ops[r.op].ingest {
			continue
		}
		hiQueries++
		if r.ok && ms(r.lat) <= sp.sloMS {
			within++
		}
	}
	e.set("q_hi_within_slo", float64(within)/float64(hiQueries), fmt.Sprintf("hi-phase queries answered within %g ms, n=%d", sp.sloMS, hiQueries))
	e.set("sat_ops_s", satThroughput(sat), fmt.Sprintf("closed loop, %d connections, median of %d windows, n=%d", conns, satWindows, len(sat.results)))
	e.set("rss_mb", rss, fmt.Sprintf("sum of VmRSS over %d servers after the sat phase", sp.members))

	// Per-layer metrics that only the real processes can give.
	l := out.layers
	d := after.minus(before)
	l.set("serve.cache_hit_ratio", ratio(d.CacheHits, d.Queries), fmt.Sprintf("timed phases, n=%d", d.Queries))
	l.set("serve.rejected_ratio", ratio(d.Rejected, d.Queries+d.Rejected), "admission refusals over submissions")
	l.set("dist.retry_ratio", ratio(d.RPCRetries, d.Queries), "scatter re-walks per query")
	l.set("dist.hedge_ratio", ratio(d.Hedges, d.Queries), "hedged partial RPCs per query")
	l.set("dist.degraded_ratio", ratio(d.DegradedAnswers, d.Queries), "partial-coverage answers per query")
	var rowsRead, predicted, answered int64
	for _, r := range base.results {
		if !r.ok || ops[r.op].ingest {
			continue
		}
		var resp serve.QueryResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fail(fmt.Errorf("op %d: unreadable answer: %w", r.op, err))
		}
		answered++
		rowsRead += resp.Cost.RowsRead
		if resp.Predicted {
			predicted++
		}
	}
	l.set("proc.cpu_ms_per_op", ms(cpu1-cpu0)/float64(nBase), fmt.Sprintf("server utime+stime over the base phase, n=%d ops", nBase))
	l.set("query.rows_per_result", ratio(rowsRead, answered), fmt.Sprintf("mean cost.rows_read, base phase, n=%d", answered))
	l.set("pred_share", ratio(predicted, answered), fmt.Sprintf("answers with predicted:true, base phase, n=%d", answered))
	late, err := lateP99(base, hi)
	if err != nil {
		return fail(err)
	}
	l.set("gen.late_p99_ms", late, "how long after its ideal start an op was sent, base and hi phases")
	l.set("gen.achieved_ratio", min(base.achieved(), hi.achieved()), "share of the timetable kept, worse of base and hi")
	l.set("fail_ratio", ratio(int64(out.failed), int64(out.attempted)), fmt.Sprintf("all phases, n=%d", out.attempted))

	if sp.ingestEvery > 0 {
		ing := base.latencies(ops, true)
		p50, err := windowed(ing, base.span, tailWindows, 0.5)
		if err != nil {
			return fail(fmt.Errorf("ing_p50_ms: %w (raise -seconds)", err))
		}
		hiIng := hi.latencies(ops, true)
		p90, err := percentile(sortedValues(hiIng), 0.9)
		if err != nil {
			return fail(fmt.Errorf("ing_hi_p90_ms: %w (raise -seconds)", err))
		}
		l.set("ing_p50_ms", p50, fmt.Sprintf("batch ack latency, base phase, median of %d windows, n=%d", tailWindows, len(ing)))
		l.set("ing_hi_p90_ms", p90, fmt.Sprintf("whole hi phase: n=%d supports neither windows nor more than p90", len(hiIng)))
		totals, problems := tallyIngest(ops, phases...)
		out.problems = append(out.problems, problems...)
		l.set("dist.unacked_ratio", ratio(int64(totals.unacks), int64(totals.parts)), fmt.Sprintf("partition batches below quorum, n=%d", totals.parts))
		var walBytes int64
		for _, m := range topo.members {
			n, err := dirBytes(m.walDir)
			if err != nil {
				return fail(err)
			}
			walBytes += n
		}
		l.set("ingest.wal_bytes_per_row", ratio(walBytes, int64(replicas*totals.ackedRows)), "WAL bytes on disk per replicated row")
		out.problems = append(out.problems, checkReplication(topo, sp, totals.ackedRows)...)
	}

	gen.close()
	topo.stop()
	if truth != nil {
		chk := checkAnswers(truth, ops, conns, base, phases...)
		out.problems = append(out.problems, chk.problems...)
		relErr := 0.0
		if len(chk.predRelErr) > 0 {
			relErr = median(chk.predRelErr)
		}
		l.set("pred_rel_err_p50", relErr, fmt.Sprintf(
			"|predicted - exact| / max(|exact|, 1), base phase, n=%d; %d exact answers checked", len(chk.predRelErr), chk.exact))
	}
	if len(out.problems) > 0 {
		out.problems = append(out.problems, topo.failureReport())
	}
	return out, nil
}

// count adds a phase's ops to the run's attempted and failed totals.
// An op fails on a transport error, a status outside 2xx, or an ingest
// ack that reports rows below quorum.
func (s *socketRun) count(ops []op, ph phase) {
	for _, r := range ph.results {
		s.attempted++
		switch {
		case !r.ok:
			s.failed++
		case ops[r.op].ingest:
			var resp dist.IngestResponse
			if json.Unmarshal(r.body, &resp) != nil || resp.FailedRows > 0 {
				s.failed++
			}
		}
	}
}

// satThroughput is the median over windows of ops completed per second.
func satThroughput(sat phase) float64 {
	done := make([]float64, satWindows)
	for _, r := range sat.results {
		w := int(int64(r.at+r.lat) * satWindows / int64(sat.span))
		if r.ok && w < satWindows {
			done[w]++
		}
	}
	return median(done) / (sat.span.Seconds() / satWindows)
}

func sortedValues(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.v
	}
	sort.Float64s(out)
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counters is the subset of the servers' own serving counters the
// benchmark reads, summed over members.
type counters metrics.ServeSnapshot

func (a counters) minus(b counters) counters {
	a.Queries -= b.Queries
	a.CacheHits -= b.CacheHits
	a.Rejected -= b.Rejected
	a.RPCRetries -= b.RPCRetries
	a.Hedges -= b.Hedges
	a.DegradedAnswers -= b.DegradedAnswers
	return a
}

func servingCounters(t *topology) (counters, error) {
	var sum counters
	for _, m := range t.members {
		var snap metrics.ServeSnapshot
		if len(t.members) == 1 {
			var st serve.StatsResponse
			if err := t.getJSON(m, "/v1/stats", &st); err != nil {
				return sum, err
			}
			snap = st.Serving
		} else {
			var st dist.ClusterStatus
			if err := t.getJSON(m, "/v1/cluster", &st); err != nil {
				return sum, err
			}
			snap = st.Serving
		}
		sum.Queries += snap.Queries
		sum.CacheHits += snap.CacheHits
		sum.Rejected += snap.Rejected
		sum.RPCRetries += snap.RPCRetries
		sum.Hedges += snap.Hedges
		sum.DegradedAnswers += snap.DegradedAnswers
	}
	return sum, nil
}
