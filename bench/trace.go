package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/sea"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one op share Req; Parent is the id of the span
// that stands for the whole request (0 for that span itself).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, when the
// replay is over.
type recorder struct {
	t0    time.Time
	spans []span
	// overhead is what the two clock reads of an empty span cost; it is
	// taken off every duration used in a metric (the file keeps raw
	// times).
	overhead time.Duration
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	empty := make([]float64, 1001)
	for i := range empty {
		id := r.reserve("calibrate", 0, "empty")
		empty[i] = float64(r.run(id, func() {}))
	}
	r.overhead = time.Duration(median(empty))
	r.spans = r.spans[:0]
	return r
}

// reserve allots a span whose call happens later (a request's root is
// allotted first so its probes can name it as their parent).
func (r *recorder) reserve(req string, parent int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name})
	return len(r.spans)
}

// run times fn as span id and returns the corrected duration.
func (r *recorder) run(id int, fn func()) time.Duration {
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	s := &r.spans[id-1]
	s.Start, s.End = int64(start), int64(end)
	return max(end-start-r.overhead, 0)
}

// time is reserve followed by run.
func (r *recorder) time(req string, parent int, name string, fn func()) time.Duration {
	return r.run(r.reserve(req, parent, name), fn)
}

// durations returns the corrected durations in ns of every span
// called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(max(time.Duration(s.End-s.Start)-r.overhead, 0)))
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budget accumulates, over the replayed queries, how much of the
// request handler's time the layer probes account for.
type budget struct {
	handler, unattributed   time.Duration
	predictTries, predictOK int
	fwd, local              []float64 // handler ns of forwarded and locally answered queries
}

// account charges one query: handler is the real request, layers the
// probes of the layers that request went through.
func (b *budget) account(handler time.Duration, layers ...time.Duration) {
	var sum time.Duration
	for _, l := range layers {
		sum += l
	}
	b.handler += handler
	b.unattributed += max(handler-sum, 0)
}

// tracedRun boots the workload's topology in-process with the settings
// the server processes had, replays the first traceOps timed ops on one
// goroutine and turns the recorded spans into the per-layer report,
// filling in what the socket run measured.
func tracedRun(sp spec, root, scratch string, sock *socketRun) (*report, error) {
	rec := newRecorder()
	measured := newReport()
	var b budget
	var err error
	if sp.members == 1 {
		err = replaySingle(sp, sock, rec, measured, &b)
	} else {
		err = replayCluster(sp, scratch, sock, rec, measured, &b)
	}
	if err != nil {
		return nil, err
	}
	spanFile := filepath.Join(root, "bench", "out", sp.name+".spans.jsonl")
	if err := rec.write(spanFile); err != nil {
		return nil, err
	}

	// A time metric is the median of the spans it is named after:
	// serve.decode_us of the serve.decode spans, in its unit.
	for _, d := range perLayerDefs {
		div, timed := map[string]float64{"us": 1e3, "ns": 1}[d.unit]
		spanName := strings.TrimSuffix(d.name, "_"+d.unit)
		if ds := rec.durations(spanName); timed && len(ds) > 0 {
			n := len(ds)
			measured.set(d.name, median(ds)/div, fmt.Sprintf("median of %d %s spans", n, spanName))
		}
	}
	measured.set("core.predict_ok_ratio", ratio(int64(b.predictOK), int64(b.predictTries)),
		fmt.Sprintf("TryPredict answers over attempts, n=%d", b.predictTries))
	measured.set("layer.unattributed_share", float64(b.unattributed)/float64(b.handler),
		"query handler time the layer probes of the same op do not cover")
	if len(b.fwd) > 0 && len(b.local) > 0 {
		measured.set("dist.forward_us", max(median(b.fwd)-median(b.local), 0)/1e3,
			fmt.Sprintf("median handler time of %d forwarded queries minus that of %d answered at entry", len(b.fwd), len(b.local)))
	}
	handlerName := "serve.handler_us"
	if sp.members > 1 {
		handlerName = "dist.query_handler_us"
	}
	measured.set("http.residual_us", max(sock.oneConnUS-measured.vals[handlerName].Value, 0),
		fmt.Sprintf("one-connection closed-loop socket p50 (%.1f us) minus %s: net/http, loopback, client", sock.oneConnUS, handlerName))

	// Every per-layer metric is printed on every workload: what neither
	// run measured is a layer this workload's requests never enter.
	out := newReport()
	for _, d := range perLayerDefs {
		switch {
		case hasMetric(measured, d.name):
			out.set(d.name, measured.vals[d.name].Value, measured.notes[d.name])
		case hasMetric(sock.layers, d.name):
			out.set(d.name, sock.layers.vals[d.name].Value, sock.layers.notes[d.name])
		default:
			out.set(d.name, 0, "no span or count: the layer is not on this workload's path")
		}
	}
	printBudget(sp, sock, out, handlerName, len(rec.spans), spanFile)
	return out, nil
}

func hasMetric(r *report, name string) bool {
	_, ok := r.vals[name]
	return ok
}

// printBudget lays the layer medians of one query against the
// one-connection socket p50 and names the layer that takes most of it.
func printBudget(sp spec, sock *socketRun, layers *report, handlerName string, spans int, spanFile string) {
	us := func(name string) float64 {
		v := layers.vals[name]
		if v.Unit == "ns" {
			return v.Value / 1e3
		}
		return v.Value
	}
	parts := []string{"http.residual_us", "serve.decode_us", "serve.encode_us", "serve.key_ns",
		"serve.cache_lookup_ns", "serve.sched_wait_us", "core.try_predict_ns", "dist.ring_owners_ns"}
	// A fallback and a forward hop are paid by a share of the queries
	// only; the budget charges them at that share.
	fallbackShare := (1 - layers.vals["serve.cache_hit_ratio"].Value) * (1 - layers.vals["core.predict_ok_ratio"].Value)
	weighted := map[string]float64{
		"core.fallback_us": fallbackShare,
		"dist.forward_us":  1.0 / 3,
	}
	fmt.Printf("budget of one %s query: socket p50 on one connection %.1f us, handler %.1f us (%d spans in %s)\n",
		sp.name, sock.oneConnUS, us(handlerName), spans, spanFile)
	type line struct {
		name string
		us   float64
	}
	var lines []line
	for _, p := range parts {
		lines = append(lines, line{p, us(p)})
	}
	for p, w := range weighted {
		lines = append(lines, line{fmt.Sprintf("%s x %.2f of queries", p, w), us(p) * w})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].us > lines[j].us })
	for _, l := range lines {
		if l.us > 0 {
			fmt.Printf("  %-40s %10.2f us  %5.1f%%\n", l.name, l.us, 100*l.us/sock.oneConnUS)
		}
	}
	fmt.Printf("  dominant layer: %s\n", lines[0].name)
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pretrain feeds an agent the stream cmd/seaserve trains on before it
// serves (that function lives in package main, so it is repeated here):
// count, avg and corr over the default interest regions, half again as
// long as the training prefix.
func pretrain(ag *sea.Agent, training int, seed int64) error {
	streams := []*workload.QueryStream{
		workload.NewQueryStream(workload.NewRNG(seed), workload.DefaultRegions(2), query.Count),
		workload.NewQueryStream(workload.NewRNG(seed+100), workload.DefaultRegions(2), query.Avg),
		workload.NewQueryStream(workload.NewRNG(seed+200), workload.DefaultRegions(2), query.Corr),
	}
	streams[1].Col = 2
	streams[2].Col, streams[2].Col2 = 0, 2
	for i := 0; i < training+training/2; i++ {
		if _, err := ag.Answer(streams[i%len(streams)].Next()); err != nil {
			return err
		}
	}
	return nil
}

// Scheduler and agent settings of cmd/seaserve's flag defaults.
const (
	defaultTraining    = 300
	defaultDriftBudget = 200
	defaultWorkers     = 8
	defaultQueue       = 256
	defaultInflight    = 64
)

// decodeQuery is what both front-ends do with a request body.
func decodeQuery(body []byte) (query.Query, error) {
	var req serve.QueryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return query.Query{}, err
	}
	return req.Query()
}

// requestProbe is what the probes of a query's way in found and cost.
type requestProbe struct {
	q            query.Query
	key          string
	decode, keyT time.Duration
}

// probeRequest times what either front-end does before it can route a
// query: decode the body, build the canonical key (into buf, reused).
func probeRequest(rec *recorder, req string, root int, body []byte, buf *[]byte) (requestProbe, error) {
	var p requestProbe
	var err error
	p.decode = rec.time(req, root, "serve.decode", func() { p.q, err = decodeQuery(body) })
	if err != nil {
		return p, err
	}
	p.keyT = rec.time(req, root, "serve.key", func() { *buf = serve.AppendKey((*buf)[:0], p.q) })
	p.key = string(*buf)
	return p, nil
}

// probeResponse times what follows the answer: encoding resp, and one
// hand-off to a scheduler worker and back (an empty job).
func probeResponse(rec *recorder, req string, root int, resp any, sched *serve.Scheduler) (encode, wait time.Duration) {
	encode = rec.time(req, root, "serve.encode", func() {
		serve.WriteJSON(httptest.NewRecorder(), http.StatusOK, resp)
	})
	wait = rec.time(req, root, "serve.sched_wait", func() {
		_, _ = sched.Do("", func() (any, error) { return nil, nil })
	})
	return encode, wait
}

func postRequest(path string, body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
}

// replaySingle traces dash-1n: one serve.Server over one pretrained
// agent, as cmd/seaserve's single-node mode wires it.
func replaySingle(sp spec, sock *socketRun, rec *recorder, out *report, b *budget) error {
	h0 := heapAlloc()
	sys, err := sea.NewSystem(sea.SystemConfig{Nodes: 8, Columns: []string{"x", "y", "z"}})
	if err != nil {
		return err
	}
	if err := sys.Load(workload.StandardRows(sp.rows, stateSeed)); err != nil {
		return err
	}
	out.set("storage.resident_bytes_per_row", float64(heapAlloc()-h0)/float64(sp.rows),
		fmt.Sprintf("live heap growth across System.Load over %d rows", sp.rows))
	ag, err := sys.NewAgent(sea.AgentConfig{
		Dims: 2, TrainingQueries: defaultTraining, UseMapReduceOracle: true,
		DriftRowBudget: defaultDriftBudget,
	})
	if err != nil {
		return err
	}
	if err := pretrain(ag, defaultTraining, stateSeed); err != nil {
		return err
	}
	srv, err := sea.NewServer([]*sea.Agent{ag}, sea.ServeOptions{
		Workers: defaultWorkers, QueueDepth: defaultQueue, TenantInflight: defaultInflight,
		AnswerCache: dist.DefaultAnswerCache,
	})
	if err != nil {
		return err
	}
	sched := srv.Scheduler()
	defer sched.Close()
	cache, inner := sched.Pool().Cache(), ag.Inner()

	serveOne := func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, postRequest("/v1/query", body))
		return w
	}
	for i := 0; i < sock.firstOp; i++ { // the same untimed warm-up the servers got
		if w := serveOne(sock.ops[i].body); w.Code != http.StatusOK {
			return fmt.Errorf("traced warm-up op %d: HTTP %d", i, w.Code)
		}
	}

	var key []byte
	for i := 0; i < sp.traceOps; i++ {
		o := sock.ops[sock.firstOp+i]
		req := strconv.Itoa(i)
		root := rec.reserve(req, 0, "serve.handler")
		in, err := probeRequest(rec, req, root, o.body, &key)
		if err != nil {
			return err
		}
		q, ks, ver := in.q, in.key, inner.CacheVersion()
		var hit, predicted bool
		lookup := rec.time(req, root, "serve.cache_lookup", func() { _, hit = cache.Get(ks, ver) })
		var predict, fallback time.Duration
		if !hit {
			predict = rec.time(req, root, "core.try_predict", func() { _, predicted = inner.TryPredict(q) })
			b.predictTries++
			if predicted {
				b.predictOK++
			} else {
				var ansErr error
				fallback = rec.time(req, root, "core.fallback", func() { _, ansErr = inner.Answer(q) })
				if ansErr != nil {
					return ansErr
				}
			}
		}
		var w *httptest.ResponseRecorder
		handler := rec.run(root, func() { w = serveOne(o.body) })
		var resp serve.QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
			return fmt.Errorf("traced op %d: HTTP %d: %s", i, w.Code, w.Body.Bytes())
		}
		encode, wait := probeResponse(rec, req, root, resp, sched)
		// The handler went through the layers its answer shows: a hit
		// stops at the cache, a predicted answer at the model, anything
		// else ran the fallback.
		layers := []time.Duration{in.decode, in.keyT, lookup, wait, encode}
		if !hit {
			layers = append(layers, predict)
			if !resp.Predicted {
				layers = append(layers, fallback)
			}
		}
		b.account(handler, layers...)
	}
	return nil
}

// replayCluster traces the three-member workloads on dist.StartLocal:
// real dist.Nodes on loopback listeners inside this process.
func replayCluster(sp spec, scratch string, sock *socketRun, rec *recorder, out *report, b *budget) error {
	agent := core.DefaultConfig(2)
	agent.DriftRowBudget = defaultDriftBudget
	if sp.training > 0 {
		agent.TrainingQueries = sp.training
	}
	cfg := dist.Config{
		Replicas: replicas, Agents: 1, Agent: agent,
		Workers: defaultWorkers, QueueDepth: defaultQueue, TenantInflight: defaultInflight,
		WriteQuorum:  sp.writeQuorum,
		RequantCheck: 2 * time.Second, RuntimeSample: 10 * time.Second,
	}
	if sp.noCache {
		cfg.AnswerCache = -1
	}
	if sp.walDir {
		cfg.DataDir = filepath.Join(scratch, "trace-wal")
	}
	h0 := heapAlloc()
	rows := workload.StandardRows(sp.rows, stateSeed)
	lc, err := dist.StartLocal(sp.members, cfg, rows)
	if err != nil {
		return err
	}
	defer lc.Close()
	nodes := make([]*dist.Node, sp.members)
	byID := map[string]*dist.Node{}
	holds := map[string]map[int]bool{} // member -> partitions it holds
	var held int64
	for i, id := range lc.IDs() {
		nodes[i] = lc.Node(id)
		byID[id] = nodes[i]
		st := nodes[i].Status()
		held += st.RowsHeld
		holds[id] = map[int]bool{}
		for _, p := range st.PartitionsHeld {
			holds[id][p] = true
		}
	}
	out.set("storage.resident_bytes_per_row", float64(heapAlloc()-h0)/float64(held),
		fmt.Sprintf("live heap growth across StandardRows and Node.Load of %d members over %d rows held", sp.members, held))

	// The harness's own columnar copy of each partition, cut the way
	// Node.Load cuts the table, for the scan-kernel and pruning probes.
	nparts := nodes[0].Partitions()
	views := make([]storage.ColumnView, nparts)
	stores := make([]*storage.ColStore, nparts)
	for p := range stores {
		stores[p] = storage.NewColStore(3)
	}
	for i, r := range rows {
		stores[i%nparts].Append(r)
	}
	for p, s := range stores {
		views[p], _ = s.View()
	}
	rows = nil

	sched := serve.NewScheduler(nodes[0].Pool(), serve.SchedulerConfig{
		Workers: defaultWorkers, QueueDepth: defaultQueue, TenantInflight: defaultInflight,
	})
	defer sched.Close()
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()

	serveOne := func(opIdx int) *httptest.ResponseRecorder {
		o := sock.ops[opIdx]
		w := httptest.NewRecorder()
		nodes[opIdx%len(nodes)].Handler().ServeHTTP(w, postRequest(o.path(), o.body))
		return w
	}
	for i := 0; i < sock.firstOp; i++ {
		if w := serveOne(i); w.Code != http.StatusOK {
			return fmt.Errorf("traced warm-up op %d: HTTP %d: %s", i, w.Code, w.Body.Bytes())
		}
	}
	sumOver := func(f func(*dist.Node) int64) int64 {
		var s int64
		for _, n := range nodes {
			s += f(n)
		}
		return s
	}

	// applied is how many partition batches a member has applied so far.
	applied := func(n *dist.Node) int64 {
		var s int64
		for p := 0; p < nparts; p++ {
			s += int64(n.PartLastSeq(p))
		}
		return s
	}

	// probeEvery thins the probes that repeat a whole scatter, so the
	// replay stays inside the run's time limit.
	const probeEvery = 4
	var key []byte
	var queries, rpcs, queryBytes int64
	var scanRows, scanNS, pruned, zoneTests int64
	var batches, parts, replicateRPCs, wireIngest int64
	var wirePartials, partialRPCs int64
	walSync, err := ingest.Open(filepath.Join(scratch, "probe-wal-sync"), ingest.Options{SyncEvery: 1})
	if err != nil {
		return err
	}
	defer walSync.Close()
	walLazy, err := ingest.Open(filepath.Join(scratch, "probe-wal-lazy"), ingest.Options{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	defer walLazy.Close()
	probeStore := storage.NewColStore(3)

	for i := 0; i < sp.traceOps; i++ {
		opIdx := sock.firstOp + i
		o := sock.ops[opIdx]
		req := strconv.Itoa(i)
		entry := nodes[opIdx%len(nodes)]

		if o.ingest {
			root := rec.reserve(req, 0, "dist.ingest_handler")
			a0 := sumOver(applied)
			var w *httptest.ResponseRecorder
			rec.run(root, func() { w = serveOne(opIdx) })
			var resp dist.IngestResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
				return fmt.Errorf("traced op %d: HTTP %d: %s", i, w.Code, w.Body.Bytes())
			}
			// Each partition batch is applied once by its primary and once
			// more by every holder a POST /v1/replicate reached.
			batches++
			parts += int64(len(resp.Parts))
			replicateRPCs += sumOver(applied) - a0 - int64(len(resp.Parts))
			wireIngest += int64(len(o.body) + w.Body.Len())

			seq := uint64(batches)
			var e1, e2, e3 error
			rec.time(req, root, "ingest.wal_append", func() { e1 = walSync.Append(seq, o.rows) })
			rec.time(req, root, "ingest.wal_append_nosync", func() { e2 = walLazy.Append(seq, o.rows) })
			rec.time(req, root, "ingest.fsync", func() { e3 = walLazy.Sync() })
			for _, e := range []error{e1, e2, e3} {
				if e != nil {
					return e
				}
			}
			rec.time(req, root, "storage.col_append", func() { probeStore.Append(o.rows...) })
			continue
		}

		root := rec.reserve(req, 0, "dist.query_handler")
		in, err := probeRequest(rec, req, root, o.body, &key)
		if err != nil {
			return err
		}
		q, ks := in.q, in.key
		var owners []string
		ring := entry.Ring()
		ownersT := rec.time(req, root, "dist.ring_owners", func() { owners = ring.Owners(ks, replicas) })
		answering, forwarded := byID[owners[0]], true
		for _, id := range owners {
			if id == entry.ID() {
				answering, forwarded = entry, false
			}
		}
		var lookup time.Duration
		if cache := answering.Pool().Cache(); cache != nil {
			// These workloads never repeat a query, so the key is absent
			// whatever version it is asked at, and the probe evicts nothing.
			lookup = rec.time(req, root, "serve.cache_lookup", func() { _, _ = cache.Get(ks, 0) })
		}
		ag := answering.Pool().Agents()[0]
		var predicted bool
		predict := rec.time(req, root, "core.try_predict", func() { _, predicted = ag.TryPredict(q) })
		b.predictTries++
		var fallback time.Duration
		if predicted {
			b.predictOK++
		} else {
			var ansErr error
			fallback = rec.time(req, root, "core.fallback", func() { _, ansErr = ag.Answer(q) })
			if ansErr != nil {
				return ansErr
			}
		}

		if i%probeEvery == 0 {
			var sgErr error
			rec.time(req, root, "dist.scatter", func() { _, _, sgErr = answering.ScatterGather(q) })
			if sgErr != nil {
				return sgErr
			}
			partials := make([][]float64, 0, nparts)
			missing := map[string][]int{} // peer -> partitions the answering node lacks
			for p := 0; p < nparts; p++ {
				var st []float64
				if holds[answering.ID()][p] {
					rec.time(req, root, "dist.local_scan", func() { st, _ = answering.PartialState(p, q) })
				} else {
					peer := answering.PartitionOwners(p)[0]
					missing[peer] = append(missing[peer], p)
					st, _ = byID[peer].PartialState(p, q)
				}
				partials = append(partials, st)
			}
			rec.time(req, root, "query.merge", func() { _ = query.MergeEval(q, partials) })
			for peer, ps := range missing {
				body, err := json.Marshal(dist.PartialsRequest{Parts: ps, Query: wireQuery(o.body)})
				if err != nil {
					return err
				}
				var n int
				var rpcErr error
				rec.time(req, root, "dist.partial_rpc", func() { n, rpcErr = post(hc, lc.URL(peer)+"/v1/partials", body) })
				if rpcErr != nil {
					return rpcErr
				}
				wirePartials += int64(len(body) + n)
				partialRPCs++
			}
			p := i / probeEvery % nparts
			d := rec.time(req, root, "query.scan", func() { _ = query.PartialEvalView(q, views[p]) })
			scanRows += int64(views[p].Len())
			scanNS += int64(d)
			for _, s := range stores {
				zoneTests++
				if !query.ZoneCanMatch(q.Select, s.ZoneView()) {
					pruned++
				}
			}
		}

		r0 := sumOver((*dist.Node).PartialRPCsSent)
		var w *httptest.ResponseRecorder
		handler := rec.run(root, func() { w = serveOne(opIdx) })
		rpcs += sumOver((*dist.Node).PartialRPCsSent) - r0
		queries++
		queryBytes += int64(len(o.body) + w.Body.Len())
		var resp dist.QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
			return fmt.Errorf("traced op %d: HTTP %d: %s", i, w.Code, w.Body.Bytes())
		}
		encode, wait := probeResponse(rec, req, root, resp, sched)
		layers := []time.Duration{in.decode, in.keyT, ownersT, lookup, predict, wait, encode}
		if !resp.Predicted {
			layers = append(layers, fallback)
		}
		b.account(handler, layers...)
		if forwarded {
			b.fwd = append(b.fwd, float64(handler))
		} else {
			b.local = append(b.local, float64(handler))
		}
	}

	out.set("dist.rpcs_per_query", ratio(rpcs, queries), fmt.Sprintf("batched /v1/partials round trips, n=%d queries", queries))
	out.set("dist.wire_bytes_query", ratio(queryBytes, queries), "request plus response body of /v1/query")
	out.set("dist.wire_bytes_partials", ratio(wirePartials, partialRPCs), fmt.Sprintf("request plus response body of /v1/partials, n=%d", partialRPCs))
	out.set("query.scan_mrows_s", ratio(scanRows*1000, scanNS), fmt.Sprintf("PartialEvalView over one partition view, %d rows scanned", scanRows))
	out.set("query.prune_ratio", ratio(pruned, zoneTests), fmt.Sprintf("partitions whose zone map rules the selection out, n=%d", zoneTests))
	if batches == 0 {
		return nil
	}
	out.set("dist.parts_per_batch", ratio(parts, batches), fmt.Sprintf("partitions a 64-row batch splits into, n=%d batches", batches))
	out.set("dist.replicate_rpcs_per_batch", ratio(replicateRPCs, batches), "POST /v1/replicate per batch")
	out.set("dist.wire_bytes_ingest", ratio(wireIngest, batches), "request plus response body of /v1/ingest")

	// The last probes write: a replicate sent past the primary forks
	// the partition's log, and a second absorb double-counts drift. The
	// cluster is about to be closed, so nothing reads either again.
	const writeProbes = 40
	batch := sock.ops[sock.firstOp+sp.ingestEvery-1] // the first timed ingest batch
	vecs := make([][]float64, len(batch.rows))
	for i, r := range batch.rows {
		vecs[i] = r.Vec
	}
	for k := 0; k < writeProbes; k++ {
		req := "probe-" + strconv.Itoa(k)
		p := k % nparts
		holders := nodes[0].PartitionOwners(p)
		replica := byID[holders[len(holders)-1]]
		body, err := json.Marshal(dist.ReplicateRequest{
			Part: p, Seq: replica.PartLastSeq(p) + 1, Rows: toWire(batch.rows),
		})
		if err != nil {
			return err
		}
		var rpcErr error
		rec.time(req, 0, "dist.replicate", func() { _, rpcErr = post(hc, lc.URL(replica.ID())+"/v1/replicate", body) })
		if rpcErr != nil {
			return rpcErr
		}
		ag := replica.Pool().Agents()[0]
		ver := replica.DataVersion() + 1
		rec.time(req, 0, "core.absorb", func() { ag.AbsorbRows(ver, vecs) })
	}
	return nil
}

// wireQuery turns an op's body back into the wire form the node-to-node
// requests embed.
func wireQuery(body []byte) serve.QueryRequest {
	var req serve.QueryRequest
	_ = json.Unmarshal(body, &req) // the body was marshalled from this type
	return req
}

// post sends body and returns the size of the response body.
func post(hc *http.Client, url string, body []byte) (int, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, buf.Bytes())
	}
	return buf.Len(), nil
}
