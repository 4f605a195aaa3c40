// Package rankjoin implements the top-K rank-join operator the paper uses
// as its flagship P3 result (ref [30], "Rank join queries in NoSQL
// databases"): join two tables on key, rank joined pairs by the sum of
// their scores, return the best K.
//
// Two implementations are provided:
//
//   - MapReduce: the state-of-the-art-circa-the-paper baseline — a full
//     reduce-side join of both tables followed by a global sort, touching
//     every row of both tables and shuffling everything.
//
//   - Threshold: the paper's approach — per-partition score-sorted runs
//     plus statistical indexes (internal/index.RankIndex) let a
//     coordinator pull shallow prefixes of each run in rounds, maintain
//     the classic rank-join threshold, and stop as soon as the K-th best
//     joined score beats any undiscovered pair. Only the pulled prefixes
//     are read or moved ("surgical access"), which is where the paper's
//     up-to-6-orders-of-magnitude claim comes from.
package rankjoin

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// ErrBadK is returned for non-positive K.
var ErrBadK = errors.New("rankjoin: k must be positive")

// Pair is one joined result.
type Pair struct {
	// Key is the join key.
	Key uint64
	// ScoreR and ScoreS are the two sides' scores.
	ScoreR, ScoreS float64
}

// Combined returns the pair's ranking score.
func (p Pair) Combined() float64 { return p.ScoreR + p.ScoreS }

// Operator executes rank joins between two tables whose score lives in
// the given column.
type Operator struct {
	eng      *engine.Engine
	r, s     *cluster.Table
	scoreCol int
	idxR     *index.RankIndex
	idxS     *index.RankIndex
	// BatchRows is the per-round prefix deepening of the threshold
	// algorithm (ablation A4); default 64.
	BatchRows int
}

// New builds the operator and its rank indexes (offline step: sorts
// partitions by score and builds histograms).
func New(eng *engine.Engine, r, s *cluster.Table, scoreCol int) (*Operator, error) {
	idxR, err := index.BuildRankIndex(r, scoreCol, 64)
	if err != nil {
		return nil, fmt.Errorf("rankjoin: index R: %w", err)
	}
	idxS, err := index.BuildRankIndex(s, scoreCol, 64)
	if err != nil {
		return nil, fmt.Errorf("rankjoin: index S: %w", err)
	}
	return &Operator{
		eng: eng, r: r, s: s,
		scoreCol: scoreCol,
		idxR:     idxR, idxS: idxS,
		BatchRows: 64,
	}, nil
}

// MapReduce answers the top-K rank join with a full reduce-side join: two
// complete table scans (with job overheads), a shuffle of every row, the
// join, and a sort of all joined pairs.
func (o *Operator) MapReduce(k int) ([]Pair, metrics.Cost, error) {
	if k < 1 {
		return nil, metrics.Cost{}, ErrBadK
	}
	// Tag values so the reducer can tell the sides apart: tag 0 = R.
	mkMapper := func(tag float64) engine.Mapper {
		col := o.scoreCol
		return func(row storage.Row, emit func(engine.KV)) {
			score := 0.0
			if col < len(row.Vec) {
				score = row.Vec[col]
			}
			emit(engine.KV{Key: row.Key, Value: []float64{tag, score}})
		}
	}
	joinReducer := func(key uint64, values [][]float64) [][]float64 {
		var rs, ss []float64
		for _, v := range values {
			if len(v) < 2 {
				continue
			}
			if v[0] == 0 {
				rs = append(rs, v[1])
			} else {
				ss = append(ss, v[1])
			}
		}
		var out [][]float64
		for _, a := range rs {
			for _, b := range ss {
				out = append(out, []float64{a, b})
			}
		}
		return out
	}

	// Two "jobs" (one per table) feed one logical reduce-side join. The
	// simulator runs them as two MapReduce passes whose intermediate
	// outputs are unioned before reduction; costs add sequentially, as a
	// real two-input Hadoop join would schedule them.
	union := make(map[uint64][][]float64)
	collect := func(t *cluster.Table, tag float64) (metrics.Cost, error) {
		m := mkMapper(tag)
		passThrough := func(key uint64, values [][]float64) [][]float64 { return values }
		out, cost, err := o.eng.MapReduce(t, m, passThrough)
		if err != nil {
			return cost, err
		}
		for _, kv := range out {
			union[kv.Key] = append(union[kv.Key], kv.Value)
		}
		return cost, nil
	}
	costR, err := collect(o.r, 0)
	if err != nil {
		return nil, costR, fmt.Errorf("rankjoin mapreduce: %w", err)
	}
	costS, err := collect(o.s, 1)
	if err != nil {
		return nil, costR.Add(costS), fmt.Errorf("rankjoin mapreduce: %w", err)
	}
	total := costR.Add(costS)

	var pairs []Pair
	var joinedRows int64
	keys := make([]uint64, 0, len(union))
	for key := range union {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		for _, v := range joinReducer(key, union[key]) {
			pairs = append(pairs, Pair{Key: key, ScoreR: v[0], ScoreS: v[1]})
			joinedRows++
		}
	}
	// Join compute + the sort pass over all joined pairs.
	total = total.Add(o.eng.Cluster().CPUCost(joinedRows))
	total = total.Add(o.eng.Cluster().TransferLAN(joinedRows * 24))
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Combined() != pairs[j].Combined() {
			return pairs[i].Combined() > pairs[j].Combined()
		}
		return pairs[i].Key < pairs[j].Key
	})
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	total.RowsReturned = int64(len(pairs))
	return pairs, total, nil
}

// Threshold answers the top-K rank join with the index-guided pull
// algorithm. Rounds deepen each partition's sorted-run prefix by
// BatchRows; the classic rank-join threshold (best-unseen-R +
// best-unseen-S) decides termination.
func (o *Operator) Threshold(k int) ([]Pair, metrics.Cost, error) {
	if k < 1 {
		return nil, metrics.Cost{}, ErrBadK
	}
	var total metrics.Cost

	mk := func(t *cluster.Table, ri *index.RankIndex) *side {
		s := &side{
			t: t, idx: ri,
			depth:  make([]int, t.Partitions()),
			seen:   make(map[uint64][]float64),
			unseen: make([]float64, t.Partitions()),
		}
		for p := range s.unseen {
			s.unseen[p] = ri.Top(p)
		}
		return s
	}
	sides := [2]*side{mk(o.r, o.idxR), mk(o.s, o.idxS)}

	batch := o.BatchRows
	if batch < 1 {
		batch = 64
	}

	var results []Pair
	kthScore := func() float64 {
		if len(results) < k {
			return negInf
		}
		return results[len(results)-1].Combined()
	}

	insert := func(p Pair) {
		results = append(results, p)
		sort.Slice(results, func(i, j int) bool {
			if results[i].Combined() != results[j].Combined() {
				return results[i].Combined() > results[j].Combined()
			}
			return results[i].Key < results[j].Key
		})
		if len(results) > k {
			results = results[:k]
		}
	}

	maxUnseen := func(s *side) float64 {
		best := negInf
		for p := range s.unseen {
			if s.depth[p] >= s.idx.Rows(p) {
				continue // run exhausted
			}
			if s.unseen[p] > best {
				best = s.unseen[p]
			}
		}
		return best
	}

	for round := 0; ; round++ {
		uR, uS := maxUnseen(sides[0]), maxUnseen(sides[1])
		if uR == negInf && uS == negInf {
			break // both exhausted
		}
		threshold := 0.0
		switch {
		case uR == negInf:
			threshold = sides[0].maxSeenScore() + uS
		case uS == negInf:
			threshold = uR + sides[1].maxSeenScore()
		default:
			threshold = uR + uS
		}
		if kthScore() >= threshold {
			break // no unseen pair can beat the current top-K
		}
		// Pull the next batch from every non-exhausted partition of the
		// side with the higher unseen score (HRJN's pull policy).
		pull := sides[0]
		other := sides[1]
		if uS > uR {
			pull, other = sides[1], sides[0]
		}
		segs := make(map[int]engine.Segment)
		for p := 0; p < pull.t.Partitions(); p++ {
			if pull.depth[p] >= pull.idx.Rows(p) {
				continue
			}
			to := pull.depth[p] + batch
			if to > pull.idx.Rows(p) {
				to = pull.idx.Rows(p)
			}
			segs[p] = engine.Segment{From: pull.depth[p], To: to}
		}
		if len(segs) == 0 {
			break
		}
		got, cost, err := o.eng.CoordinatorSegmentGather(pull.t, segs)
		if err != nil {
			return nil, total, fmt.Errorf("rankjoin threshold: %w", err)
		}
		total = total.Add(cost)
		for p, rows := range got {
			for _, r := range rows {
				score := 0.0
				if o.scoreCol < len(r.Vec) {
					score = r.Vec[o.scoreCol]
				}
				pull.seen[r.Key] = append(pull.seen[r.Key], score)
				// Join against the other side's seen rows.
				for _, os := range other.seen[r.Key] {
					pr := Pair{Key: r.Key}
					if pull == sides[0] {
						pr.ScoreR, pr.ScoreS = score, os
					} else {
						pr.ScoreR, pr.ScoreS = os, score
					}
					insert(pr)
				}
				pull.unseen[p] = score // next unseen is <= last seen
			}
			pull.depth[p] = segs[p].To
		}
	}
	total.RowsReturned = int64(len(results))
	return results, total, nil
}

// side is one input stream of the threshold algorithm: a table with its
// rank index, per-partition pull depths, and the rows seen so far.
type side struct {
	t      *cluster.Table
	idx    *index.RankIndex
	depth  []int                // rows pulled so far per partition
	seen   map[uint64][]float64 // key -> scores seen on this side
	unseen []float64            // next unseen score per partition
}

func (s *side) maxSeenScore() float64 {
	best := negInf
	for _, scores := range s.seen {
		for _, sc := range scores {
			if sc > best {
				best = sc
			}
		}
	}
	if best == negInf {
		return 0
	}
	return best
}

const negInf = -1e308
