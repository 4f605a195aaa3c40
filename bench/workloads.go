package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// spec is one workload: the topology it boots, the traffic it offers
// and the limits its answers are held to. README.md gives the reason
// for every number.
type spec struct {
	name    string
	members int // seaserve processes; 1 is single-node mode
	rows    int // -rows of every member
	// Server settings that differ from seaserve's defaults. The socket
	// run passes them as flags, the traced run as dist.Config fields.
	training    int  // -training (0: the default, 300)
	noCache     bool // -answer-cache 0
	writeQuorum int  // -write-quorum (0: the default, a majority)
	walDir      bool // a per-member -data-dir: WAL on, fsync every batch
	// Open-loop offered rates, in ops/s over all connections.
	baseRate, hiRate float64
	// ingestEvery makes every n-th timed op a 64-row ingest batch (0:
	// none). The warm-up stays read-only, so that setup_s does not move
	// with the disk.
	ingestEvery int
	// sloMS is the latency limit behind q_hi_within_slo.
	sloMS float64
	// tail is the percentile behind q_tail_ms and q_hi_tail_ms: the
	// highest one the base phase's thinnest window supports.
	tail float64
	// warmOps is the length of the untimed prefix of the op sequence:
	// enough for the agents to stop changing how they answer.
	warmOps int
	// setupReps is how often a run boots and warms the topology; the
	// median is setup_s and the last boot is the one measured. A boot
	// that takes seconds of steady CPU work needs no repeating.
	setupReps int
	// satCap bounds the ops generated for the closed-loop phase, in
	// ops per second of that phase.
	satCap int
	// traceOps is how many timed ops the traced run replays.
	traceOps int
	// readOnly workloads keep their data fixed, so every exact answer
	// can be checked against the harness's own evaluation.
	readOnly bool
}

const (
	// replicas is -replicas of every cluster workload.
	replicas      = 2
	catalogueSize = 512
	batchRows     = 64
	// ingestKeyBase keeps ingested keys clear of the base table's.
	ingestKeyBase = 1 << 32
)

var specs = []spec{
	{
		name: "dash-1n", members: 1, rows: 20_000,
		baseRate: 2000, hiRate: 4000, sloMS: 5, tail: 0.99,
		warmOps: 80_000, setupReps: 1, satCap: 30_000, traceOps: 2000, readOnly: true,
	},
	{
		name: "exact-3n", members: 3, rows: 1_000_000,
		training: 1_000_000_000, noCache: true,
		baseRate: 75, hiRate: 150, sloMS: 25, tail: 0.95,
		warmOps: 300, setupReps: 3, satCap: 2000, traceOps: 400, readOnly: true,
	},
	{
		name: "ingest-3n", members: 3, rows: 200_000,
		writeQuorum: 2, walDir: true,
		baseRate: 88, hiRate: 176, ingestEvery: 11, sloMS: 50, tail: 0.95,
		warmOps: 1500, setupReps: 3, satCap: 6000, traceOps: 1100,
	},
}

func specByName(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// serverFlags are the seaserve flags the spec's settings translate to.
func (sp spec) serverFlags() []string {
	var f []string
	if sp.members > 1 {
		f = append(f, "-replicas", strconv.Itoa(replicas))
	}
	if sp.training > 0 {
		f = append(f, "-training", strconv.Itoa(sp.training))
	}
	if sp.noCache {
		f = append(f, "-answer-cache", "0")
	}
	if sp.writeQuorum > 0 {
		f = append(f, "-write-quorum", strconv.Itoa(sp.writeQuorum))
	}
	return f
}

// op is one request of the seeded sequence.
type op struct {
	ingest bool
	body   []byte        // the JSON the server receives
	q      query.Query   // set for queries
	rows   []storage.Row // set for ingest batches
}

// path is the URL path the op posts to.
func (o *op) path() string {
	if o.ingest {
		return "/v1/ingest"
	}
	return "/v1/query"
}

// stateSeed seeds everything that shapes what the servers have learnt by
// the time the clock starts: the table they load and pretrain on
// (seaserve -seed), the warm-up prefix of the op sequence and the
// dashboard catalogue. Only the timed ops follow --seed. With the whole
// sequence drawn from --seed, agents trained on different tables and
// warm-ups fell back at different rates, and the spread of sat_ops_s
// over ten seeds on ingest-3n was twice that of ten runs of one seed.
const stateSeed = 1

// genOps draws the first n ops of the workload's sequence: the warm-up
// from stateSeed, the timed ops from seed. Equal (spec, seed, n) give
// byte-identical sequences, and a longer sequence extends a shorter one.
func genOps(sp spec, seed int64, n int) []op {
	warm := newOpGen(sp, stateSeed)
	timed := newOpGen(sp, seed)
	timed.catalogue = warm.catalogue
	ops := make([]op, n)
	for i := range ops {
		if i < sp.warmOps {
			ops[i] = warm.next(i)
		} else {
			ops[i] = timed.next(i)
		}
	}
	return ops
}

// opGen holds the seeded streams one workload draws from.
type opGen struct {
	sp        spec
	rng       *rand.Rand
	streams   []*workload.QueryStream
	catalogue []query.Query
	zipf      *rand.Zipf
	fresh     int
	batches   uint64
	mixture   []workload.MixtureComponent
}

func newOpGen(sp spec, seed int64) *opGen {
	g := &opGen{sp: sp, rng: workload.NewRNG(seed*7919 + 17)}
	mk := func(i int, agg query.Agg, col, col2 int, radius float64) {
		qs := workload.NewQueryStream(workload.NewRNG(seed*7919+100+int64(i)),
			workload.DefaultRegions(2), agg)
		qs.Col, qs.Col2, qs.RadiusFrac = col, col2, radius
		g.streams = append(g.streams, qs)
	}
	switch sp.name {
	case "exact-3n":
		mk(0, query.Count, 0, 0, 0.5)
		mk(1, query.Avg, 2, 0, 0.5)
		mk(2, query.Var, 2, 0, 0.5)
		mk(3, query.Corr, 0, 2, 0.5)
	default:
		// The aggregates seaserve pretrains, over the same regions.
		mk(0, query.Count, 0, 0, 0)
		mk(1, query.Avg, 2, 0, 0)
		mk(2, query.Corr, 0, 2, 0)
	}
	if sp.name == "dash-1n" {
		g.catalogue = make([]query.Query, catalogueSize)
		for i := range g.catalogue {
			g.catalogue[i] = g.streams[i%len(g.streams)].Next()
		}
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, catalogueSize-1)
	}
	if sp.ingestEvery > 0 {
		g.mixture = workload.DefaultMixture(2)
	}
	return g
}

func (g *opGen) next(i int) op {
	if t := i - g.sp.warmOps; g.sp.ingestEvery > 0 && t >= 0 && t%g.sp.ingestEvery == g.sp.ingestEvery-1 {
		return g.ingestOp()
	}
	var q query.Query
	switch {
	case g.catalogue != nil && i < catalogueSize:
		q = g.catalogue[i] // the warm-up touches every dashboard query once
	case g.catalogue != nil && g.rng.Float64() < 0.5:
		q = g.catalogue[g.zipf.Uint64()]
	default:
		q = g.streams[g.fresh%len(g.streams)].Next()
		g.fresh++
	}
	return queryOp(q)
}

func queryOp(q query.Query) op {
	req := serve.QueryRequest{
		Agg: strings.ToLower(q.Aggregate.String()),
		Col: q.Col, Col2: q.Col2,
	}
	if q.Select.IsRadius() {
		req.Center, req.Radius = q.Select.Center, q.Select.Radius
	} else {
		req.Los, req.His = q.Select.Los, q.Select.His
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return op{body: body, q: q}
}

// ingestOp draws one batch from the base table's own distribution
// (x, y from the default mixture, z = 2x + 5 + noise), so ingest spends
// drift budget without moving the data the models learnt.
func (g *opGen) ingestOp() op {
	rows := workload.GaussianMixture(g.rng, batchRows, 3, g.mixture,
		ingestKeyBase+g.batches*batchRows)
	workload.CorrelatedColumns(g.rng, rows, 0, 2, 2, 5, 1)
	g.batches++
	body, err := json.Marshal(dist.IngestRequest{Rows: toWire(rows)})
	if err != nil {
		panic(err)
	}
	return op{ingest: true, body: body, rows: rows}
}

func toWire(rows []storage.Row) []dist.WireRow {
	out := make([]dist.WireRow, len(rows))
	for i, r := range rows {
		out[i] = dist.WireRow{Key: r.Key, Vec: r.Vec}
	}
	return out
}
