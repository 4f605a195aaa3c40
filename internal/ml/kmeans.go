package ml

import (
	"fmt"
	"math"
)

// NearestCentroid returns the index of and squared distance to the
// centroid nearest to x. An empty centroid set returns (-1, +Inf).
func NearestCentroid(centroids [][]float64, x []float64) (int, float64) {
	best := -1
	bestD := math.Inf(1)
	for i, c := range centroids {
		d := SquaredDistance(c, x)
		if d < bestD {
			bestD = d
			best = i
		}
	}
	return best, bestD
}

// OnlineAVQ is an online adaptive vector quantiser: competitive learning
// with a decaying per-prototype learning rate and growth. This is the
// streaming counterpart of learn.KMeans used by the live SEA agent (RT1.1
// "learn the structure of the query space ... as interests shift with
// time"): prototypes migrate toward the current query mass, new
// prototypes are spawned when a query is far from all existing ones, and
// stale prototypes can be purged.
type OnlineAVQ struct {
	// SpawnDistance is the squared distance beyond which a new prototype
	// is created instead of moving the winner (0 disables growth).
	SpawnDistance float64
	// MaxPrototypes caps growth (default 64).
	MaxPrototypes int
	// LearningRate0 is the initial per-prototype step (default 0.5).
	LearningRate0 float64

	protos [][]float64
	counts []int64
	age    []int64 // observations since last win, for purging
	clock  int64

	// grid is the exact uniform-cell prototype index (see index.go):
	// built lazily once the prototype set outgrows a linear scan,
	// maintained incrementally by Observe, dropped (and lazily rebuilt)
	// by PurgeStale. nil means "scan linearly".
	grid *protoGrid
	// noGrid force-disables the index; tests use it to diff the indexed
	// quantiser against the pure linear-scan reference.
	noGrid bool
}

// NewOnlineAVQ constructs a quantiser. spawnDist is a squared distance.
func NewOnlineAVQ(spawnDist float64, maxProtos int) *OnlineAVQ {
	if maxProtos <= 0 {
		maxProtos = 64
	}
	return &OnlineAVQ{
		SpawnDistance: spawnDist,
		MaxPrototypes: maxProtos,
		LearningRate0: 0.5,
	}
}

// Observe folds x into the quantiser and returns the index of the winning
// (or newly spawned) prototype. The prototype index is maintained in
// step: spawns insert, a migrating winner is re-bucketed.
func (q *OnlineAVQ) Observe(x []float64) int {
	q.clock++
	if len(q.protos) == 0 {
		q.protos = append(q.protos, CopyVec(x))
		q.counts = append(q.counts, 1)
		q.age = append(q.age, 0)
		return 0
	}
	q.ensureGrid()
	win, d2 := q.nearest(x)
	if q.SpawnDistance > 0 && d2 > q.SpawnDistance && len(q.protos) < q.MaxPrototypes {
		q.protos = append(q.protos, CopyVec(x))
		q.counts = append(q.counts, 1)
		q.age = append(q.age, 0)
		if q.grid != nil && !q.grid.insert(q.protos[len(q.protos)-1]) {
			q.grid = nil
		}
		return len(q.protos) - 1
	}
	q.counts[win]++
	q.age[win] = 0
	for i := range q.age {
		if i != win {
			q.age[i]++
		}
	}
	// Harmonic-decay step keeps prototypes at the running mean of their
	// wins while staying responsive to drift.
	lr := q.LearningRate0 / (1 + float64(q.counts[win])*q.LearningRate0)
	p := q.protos[win]
	for j := 0; j < len(p) && j < len(x); j++ {
		p[j] += lr * (x[j] - p[j])
	}
	if q.grid != nil && !q.grid.update(win, p) {
		q.grid = nil
	}
	return win
}

// Assign returns the nearest prototype's index and squared distance
// without updating ANY state — it is a pure read, safe for concurrent
// callers as long as Observe/PurgeStale are externally serialised
// against them (the SEA agent holds its RWMutex accordingly). It is
// bit-identical to a NearestCentroid scan over Prototypes(); the grid
// index only accelerates it.
func (q *OnlineAVQ) Assign(x []float64) (int, float64) {
	return q.nearest(x)
}

// nearest is the indexed nearest-prototype lookup with linear-scan
// fallback whenever the grid is absent or cannot prove the winner.
// Pure read: all index mutation lives in Observe/ensureGrid.
func (q *OnlineAVQ) nearest(x []float64) (int, float64) {
	if q.grid != nil {
		if best, bestD, ok := q.grid.nearest(q.protos, x); ok {
			return best, bestD
		}
	}
	return NearestCentroid(q.protos, x)
}

// ensureGrid lazily builds the prototype index once the set is big
// enough for it to pay off. Cell side = sqrt(SpawnDistance): prototypes
// spawn at least that far apart, so occupied cells stay sparse and the
// winner is almost always within one ring.
func (q *OnlineAVQ) ensureGrid() {
	if q.grid != nil || q.noGrid || q.SpawnDistance <= 0 || len(q.protos) < gridMinProtos {
		return
	}
	dims := len(q.protos[0])
	if dims > gridMaxDims {
		dims = gridMaxDims
	}
	if dims == 0 {
		return
	}
	q.grid = newProtoGrid(math.Sqrt(q.SpawnDistance), dims, q.protos)
}

// Prototypes returns copies of the current prototypes.
func (q *OnlineAVQ) Prototypes() [][]float64 {
	out := make([][]float64, len(q.protos))
	for i, p := range q.protos {
		out[i] = CopyVec(p)
	}
	return out
}

// Len returns the number of prototypes.
func (q *OnlineAVQ) Len() int { return len(q.protos) }

// Count returns the win count of prototype i.
func (q *OnlineAVQ) Count(i int) int64 {
	if i < 0 || i >= len(q.counts) {
		return 0
	}
	return q.counts[i]
}

// AVQState is the complete serialisable state of an OnlineAVQ quantiser.
// A quantiser restored from its state assigns and observes bit-identically
// to the original, so shipped agents keep the donor's query-space
// partitioning exactly.
type AVQState struct {
	SpawnDistance float64     `json:"spawn_distance"`
	MaxPrototypes int         `json:"max_prototypes"`
	LearningRate0 float64     `json:"learning_rate0"`
	Prototypes    [][]float64 `json:"prototypes"`
	Counts        []int64     `json:"counts"`
	Age           []int64     `json:"age"`
	Clock         int64       `json:"clock"`
}

// State exports the quantiser's full state (copies, no aliasing).
func (q *OnlineAVQ) State() AVQState {
	counts := make([]int64, len(q.counts))
	copy(counts, q.counts)
	age := make([]int64, len(q.age))
	copy(age, q.age)
	return AVQState{
		SpawnDistance: q.SpawnDistance,
		MaxPrototypes: q.MaxPrototypes,
		LearningRate0: q.LearningRate0,
		Prototypes:    q.Prototypes(),
		Counts:        counts,
		Age:           age,
		Clock:         q.clock,
	}
}

// NewOnlineAVQFromState rebuilds a quantiser from an exported state.
func NewOnlineAVQFromState(st AVQState) (*OnlineAVQ, error) {
	if len(st.Counts) != len(st.Prototypes) || len(st.Age) != len(st.Prototypes) {
		return nil, fmt.Errorf("%w: AVQ state with %d prototypes, %d counts, %d ages",
			ErrDimensionMismatch, len(st.Prototypes), len(st.Counts), len(st.Age))
	}
	q := NewOnlineAVQ(st.SpawnDistance, st.MaxPrototypes)
	q.LearningRate0 = st.LearningRate0
	q.clock = st.Clock
	for i, p := range st.Prototypes {
		q.protos = append(q.protos, CopyVec(p))
		q.counts = append(q.counts, st.Counts[i])
		q.age = append(q.age, st.Age[i])
	}
	return q, nil
}

// PurgeStale removes prototypes that have not won in the last maxAge
// observations and returns the indices (into the pre-purge ordering) that
// were removed; the SEA agent discards the matching answer models
// ("purging older models", RT5.3). The relative order of survivors is
// preserved.
func (q *OnlineAVQ) PurgeStale(maxAge int64) []int {
	var removed []int
	var protos [][]float64
	var counts, ages []int64
	for i := range q.protos {
		if q.age[i] > maxAge && len(q.protos)-len(removed) > 1 {
			removed = append(removed, i)
			continue
		}
		protos = append(protos, q.protos[i])
		counts = append(counts, q.counts[i])
		ages = append(ages, q.age[i])
	}
	q.protos, q.counts, q.age = protos, counts, ages
	// Purging renumbers the survivors; drop the index and let the next
	// lookup rebuild it over the compacted set.
	q.grid = nil
	return removed
}
