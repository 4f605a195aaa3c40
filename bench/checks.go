package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
)

// oracle is the harness's own copy of a read-only workload's data. It
// answers with query.EvalRows, the row-at-a-time reference kernel the
// servers' vectorised scan is tested against, over the rows of the grid
// cells a selection can touch; rows elsewhere cannot match, so the
// answer equals a full scan up to summation order.
type oracle struct {
	cells [gridN * gridN][]storage.Row
}

const (
	gridN    = 50
	gridCell = 100.0 / gridN // data lives on about [0,100]^2; cells at the rim take the rest
)

func cellOf(v float64) int {
	c := int(math.Floor(v / gridCell))
	if c < 0 {
		return 0
	}
	if c >= gridN {
		return gridN - 1
	}
	return c
}

func newOracle(rows []storage.Row) *oracle {
	o := &oracle{}
	for _, r := range rows {
		c := cellOf(r.Vec[0])*gridN + cellOf(r.Vec[1])
		o.cells[c] = append(o.cells[c], r)
	}
	return o
}

// eval returns q's exact answer; scratch is reused between calls.
func (o *oracle) eval(q query.Query, scratch []storage.Row) (query.Result, []storage.Row) {
	var lo, hi [2]float64
	s := q.Select
	for d := 0; d < 2; d++ {
		if s.IsRadius() {
			lo[d], hi[d] = s.Center[d]-s.Radius, s.Center[d]+s.Radius
		} else {
			lo[d], hi[d] = s.Los[d], s.His[d]
		}
	}
	scratch = scratch[:0]
	for cx := cellOf(lo[0]); cx <= cellOf(hi[0]); cx++ {
		for cy := cellOf(lo[1]); cy <= cellOf(hi[1]); cy++ {
			scratch = append(scratch, o.cells[cx*gridN+cy]...)
		}
	}
	return query.EvalRows(q, scratch), scratch
}

// answerTolerance is how far a served exact answer may sit from the
// oracle's, relative to max(|truth|, 1): summation order differs
// between a partitioned scan and one pass, and var/corr subtract
// nearly equal sums.
func answerTolerance(agg query.Agg) float64 {
	switch agg {
	case query.Var, query.Corr, query.RegSlope:
		return 1e-6
	}
	return 1e-9
}

// answerCheck is the outcome of holding every answer of a read-only
// run against the oracle.
type answerCheck struct {
	problems   []string
	exact      int       // predicted:false answers compared
	predRelErr []float64 // |predicted - exact| / max(|exact|, 1), base phase
}

// checkAnswers compares every predicted:false answer of phases with
// the oracle and collects the relative error of the predicted answers
// of the base phase (one of phases). The work is split over the CPUs; the servers are
// gone by now.
func checkAnswers(o *oracle, ops []op, workers int, base phase, phases ...phase) answerCheck {
	type job struct {
		r      opResult
		inBase bool
	}
	var jobs []job
	for _, ph := range phases {
		for _, r := range ph.results {
			jobs = append(jobs, job{r, ph.name == base.name})
		}
	}
	parts := make([]answerCheck, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &parts[w]
			var scratch []storage.Row
			for i := w; i < len(jobs); i += workers {
				r := jobs[i].r
				if !r.ok || ops[r.op].ingest {
					continue
				}
				var resp serve.QueryResponse
				if err := json.Unmarshal(r.body, &resp); err != nil {
					out.problems = append(out.problems, fmt.Sprintf("op %d: unreadable answer: %v", r.op, err))
					continue
				}
				if resp.Predicted && !jobs[i].inBase {
					continue
				}
				q := ops[r.op].q
				var want query.Result
				want, scratch = o.eval(q, scratch)
				diff := math.Abs(resp.Value-want.Value) / math.Max(math.Abs(want.Value), 1)
				if resp.Predicted {
					out.predRelErr = append(out.predRelErr, diff)
					continue
				}
				out.exact++
				if !(diff <= answerTolerance(q.Aggregate)) || resp.Degraded {
					out.problems = append(out.problems, fmt.Sprintf(
						"op %d (%s): served %v (degraded=%v), harness evaluates %v",
						r.op, ops[r.op].body, resp.Value, resp.Degraded, want.Value))
				}
			}
		}(w)
	}
	wg.Wait()
	var all answerCheck
	for _, p := range parts {
		all.problems = append(all.problems, p.problems...)
		all.exact += p.exact
		all.predRelErr = append(all.predRelErr, p.predRelErr...)
	}
	return all
}

// ingestTotals is what the ingest responses of a run add up to.
type ingestTotals struct {
	ackedRows     int
	parts, unacks int
}

func tallyIngest(ops []op, phases ...phase) (ingestTotals, []string) {
	var t ingestTotals
	var problems []string
	for _, ph := range phases {
		for _, r := range ph.results {
			if !r.ok || !ops[r.op].ingest {
				continue
			}
			var resp dist.IngestResponse
			if err := json.Unmarshal(r.body, &resp); err != nil {
				problems = append(problems, fmt.Sprintf("op %d: unreadable ingest ack: %v", r.op, err))
				continue
			}
			t.ackedRows += resp.AckedRows
			for _, p := range resp.Parts {
				t.parts++
				if !p.Acked {
					t.unacks++
				}
			}
		}
	}
	return t, problems
}

// checkReplication holds a quiesced cluster to its write-path
// guarantees: every acked row is held replicas times, holders of a
// partition agree on its last sequence, and a member killed outright
// and restarted on its data directory comes back holding what it held.
// Killing a process leaves the OS page cache intact, so this proves
// replay and catch-up, not survival of a power loss.
func checkReplication(t *topology, sp spec, acked int) []string {
	var problems []string
	want := int64(replicas * (sp.rows + acked))
	held, seqs, err := replicationState(t)
	if err != nil {
		return []string{err.Error()}
	}
	var sum int64
	for _, h := range held {
		sum += h
	}
	if sum != want {
		problems = append(problems, fmt.Sprintf(
			"rows held over all members: %d, want %d = %d x (%d base + %d acked)",
			sum, want, replicas, sp.rows, acked))
	}
	for part, byHolder := range seqs {
		var first uint64
		var firstID string
		for id, seq := range byHolder {
			if firstID == "" {
				first, firstID = seq, id
			} else if seq != first {
				problems = append(problems, fmt.Sprintf(
					"partition %d: %s is at seq %d, %s at %d", part, firstID, first, id, seq))
			}
		}
		if len(byHolder) != replicas {
			problems = append(problems, fmt.Sprintf("partition %d has %d holders, want %d",
				part, len(byHolder), replicas))
		}
	}

	victim := t.members[len(t.members)-1]
	before := held[victim.id]
	victim.kill()
	<-victim.exited
	if err := victim.start(); err != nil {
		return append(problems, err.Error())
	}
	if err := t.awaitHealthy(victim, 30*time.Second); err != nil {
		return append(problems, fmt.Sprintf("%v\n%s", err, victim.stderrTail()))
	}
	var st dist.ClusterStatus
	if err := t.getJSON(victim, "/v1/cluster", &st); err != nil {
		return append(problems, err.Error())
	}
	if st.RowsHeld != before {
		problems = append(problems, fmt.Sprintf(
			"%s holds %d rows after kill -9 and restart, held %d before", victim.id, st.RowsHeld, before))
	}
	return problems
}

// replicationState reads every member's rows held and, per partition,
// each holder's last applied sequence.
func replicationState(t *topology) (held map[string]int64, seqs map[int]map[string]uint64, err error) {
	held = map[string]int64{}
	seqs = map[int]map[string]uint64{}
	for _, m := range t.members {
		var st dist.NodeStatus
		if err := t.getJSON(m, "/v1/status", &st); err != nil {
			return nil, nil, err
		}
		held[m.id] = st.RowsHeld
		for _, p := range st.Partitions {
			if seqs[p.Part] == nil {
				seqs[p.Part] = map[string]uint64{}
			}
			seqs[p.Part][m.id] = p.LastSeq
		}
	}
	return held, seqs, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
