package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/serve"
)

// postJSON posts v to url and returns the status code and decoded body.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

// TestScatterDegradesWhenHoldersGone: with replication 1, killing a
// member makes its partitions unreachable; the exact path must then
// return an honest degraded answer over the covered partitions instead
// of failing.
func TestScatterDegradesWhenHoldersGone(t *testing.T) {
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30 // never predict: every answer is exact
	rows := testRows(2_000, 11)
	lc, err := StartLocal(2, Config{
		Agent:       agentCfg,
		Replicas:    1,
		RetryBudget: -1, // no retries: a gone holder is gone, fail over fast
		AnswerCache: -1, // the post-kill query must recompute, not hit cache
		Timeout:     500 * time.Millisecond,
	}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)

	n0 := lc.Node("n0")
	q := aggStreams(7)[0].Next() // COUNT

	// Healthy cluster: full coverage, not degraded.
	ans, err := n0.Answer("", q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded || ans.Coverage != 0 {
		t.Fatalf("healthy answer flagged degraded (coverage %v)", ans.Coverage)
	}

	lc.Kill("n1")
	ans, err = n0.Answer("", q)
	if err != nil {
		t.Fatalf("scatter with dead holders should degrade, got error: %v", err)
	}
	if !ans.Degraded {
		t.Fatal("answer with unreachable partitions not flagged degraded")
	}
	if ans.Coverage <= 0 || ans.Coverage >= 1 {
		t.Fatalf("degraded coverage = %v, want in (0,1)", ans.Coverage)
	}
	if got := n0.Pool().Recorder().Snapshot().DegradedAnswers; got == 0 {
		t.Fatal("degraded_answers counter not incremented")
	}
	st := n0.NodeStatus()
	if st.Resilience.DegradedAnswers == 0 {
		t.Fatal("resilience status missing degraded answers")
	}
}

// TestDeadlineRefusedServerSide: every RPC handler refuses a
// dead-on-arrival propagated deadline with HTTP 504 before doing work.
func TestDeadlineRefusedServerSide(t *testing.T) {
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(1, Config{Agent: agentCfg}, testRows(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	base := lc.URL("n0")
	dead := time.Now().Add(-time.Second).UnixMilli()

	wq := queryToWire(aggStreams(7)[0].Next(), "")
	wq.DeadlineMS = dead
	if code := postJSON(t, base+"/v1/query", wq, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("/v1/query DOA deadline: HTTP %d, want 504", code)
	}
	// Node-to-node calls carry the deadline in the envelope.
	body, _ := json.Marshal(PartialsRequest{Parts: []int{0}, Query: queryToWire(aggStreams(7)[0].Next(), "")})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/partials", bytes.NewReader(body))
	envelope{deadline: dead}.write(req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("/v1/partials DOA deadline: HTTP %d, want 504", resp.StatusCode)
	}
	if code := postJSON(t, base+"/v1/ingest", IngestRequest{
		Rows: []WireRow{{Key: 1, Vec: []float64{1, 2, 3}}}, DeadlineMS: dead,
	}, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("/v1/ingest DOA deadline: HTTP %d, want 504", code)
	}

	// A live deadline sails through.
	wq.DeadlineMS = time.Now().Add(10 * time.Second).UnixMilli()
	if code := postJSON(t, base+"/v1/query", wq, nil); code != http.StatusOK {
		t.Fatalf("/v1/query live deadline: HTTP %d, want 200", code)
	}
}

// TestHedgeFiresOnceAndCancelsLoser pins the hedging contract: a slow
// primary triggers exactly one hedge RPC, the hedge's answer wins, the
// primary's in-flight request is cancelled, and the hedge never counts
// toward the message-minimal partials-sent counter.
func TestHedgeFiresOnceAndCancelsLoser(t *testing.T) {
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(1, Config{Agent: agentCfg}, testRows(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	n0 := lc.Node("n0")

	partials := PartialsResponse{Node: "remote", Partials: []PartPartial{
		{Part: 0, Partial: query.ZeroPartial(), Rows: 1},
	}}
	slowCanceled := make(chan struct{}, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only notices a client
		// disconnect (and fires r.Context) once the request body has
		// been consumed — which every real handler does by decoding.
		_, _ = io.ReadAll(r.Body)
		select {
		case <-r.Context().Done():
			slowCanceled <- struct{}{}
			return
		case <-time.After(5 * time.Second):
		}
		serve.WriteJSON(w, http.StatusOK, partials)
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, partials)
	}))
	defer fast.Close()

	n0.hedgeNs.Store(int64(5 * time.Millisecond))
	sentBefore := n0.PartialRPCsSent()
	resp, _, err := n0.fetchPartialsHedged(
		slow.URL, fast.URL, []int{0}, queryToWire(aggStreams(7)[0].Next(), ""), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || resp[0].Part != 0 {
		t.Fatalf("unexpected hedged response: %+v", resp)
	}
	if got := n0.Pool().Recorder().Snapshot().Hedges; got != 1 {
		t.Fatalf("hedges counter = %d, want exactly 1", got)
	}
	if got := n0.PartialRPCsSent(); got != sentBefore {
		t.Fatalf("hedge RPC incremented partials-sent (%d -> %d)", sentBefore, got)
	}
	select {
	case <-slowCanceled:
	case <-time.After(2 * time.Second):
		t.Fatal("losing primary request was not cancelled")
	}
}

// TestIngestIdempotentReplay: re-delivering a batch under the same
// idempotency key replays the stored outcome instead of re-applying the
// rows — the client-retry double-ingest guard.
func TestIngestIdempotentReplay(t *testing.T) {
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(1, Config{Agent: agentCfg}, testRows(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	n0 := lc.Node("n0")
	base := lc.URL("n0")

	req := IngestRequest{
		Rows:    []WireRow{{Key: 42, Vec: []float64{1, 2, 3}}, {Key: 43, Vec: []float64{4, 5, 6}}},
		IdemKey: "batch-1",
	}
	var first IngestResponse
	if code := postJSON(t, base+"/v1/ingest", req, &first); code != http.StatusOK {
		t.Fatalf("first ingest: HTTP %d", code)
	}
	if first.AckedRows != 2 {
		t.Fatalf("first ingest acked %d rows, want 2", first.AckedRows)
	}
	rowsAfterFirst := n0.NodeStatus().RowsHeld

	var second IngestResponse
	if code := postJSON(t, base+"/v1/ingest", req, &second); code != http.StatusOK {
		t.Fatalf("retried ingest: HTTP %d", code)
	}
	if second.AckedRows != 2 {
		t.Fatalf("replayed ingest acked %d rows, want 2", second.AckedRows)
	}
	if got := n0.NodeStatus().RowsHeld; got != rowsAfterFirst {
		t.Fatalf("idempotent retry re-applied rows: %d -> %d", rowsAfterFirst, got)
	}
	for i := range first.Parts {
		if first.Parts[i].Seq != second.Parts[i].Seq {
			t.Fatalf("replayed outcome differs: seq %d vs %d",
				first.Parts[i].Seq, second.Parts[i].Seq)
		}
	}

	// A distinct key is a distinct batch.
	req.IdemKey = "batch-2"
	if code := postJSON(t, base+"/v1/ingest", req, nil); code != http.StatusOK {
		t.Fatal("third ingest failed")
	}
	if got := n0.NodeStatus().RowsHeld; got != rowsAfterFirst+2 {
		t.Fatalf("new key did not apply: rows %d, want %d", got, rowsAfterFirst+2)
	}
}

// setChaos arms the same rules on every member (nil clears them).
func setChaos(lc *LocalCluster, rules []chaos.Rule) {
	for _, id := range lc.IDs() {
		lc.Chaos(id).Set(rules)
	}
}

// assertRowsOnce checks that the cluster holds exactly want rows, each
// once per replica: by the exact COUNT(*), by holder agreement on
// sequence and digest (assertConserved), and by the sum of rows_held.
func assertRowsOnce(t *testing.T, lc *LocalCluster, step string, want int) {
	t.Helper()
	if got := countAll(t, lc.Client()); int(got) != want {
		t.Fatalf("%s: COUNT(*) = %v, want %d", step, got, want)
	}
	assertConserved(t, lc, step, want)
	held := 0
	for _, id := range lc.IDs() {
		held += int(lc.Node(id).NodeStatus().RowsHeld)
	}
	if held != 2*want {
		t.Fatalf("%s: sum of rows_held = %d, want %d", step, held, 2*want)
	}
}

// TestIngestIdempotentRetryReoffersUnackedBatch: a keyed batch that was
// applied under quorum must not replay acked:false forever. Once the
// replicas answer again, a retry under the same key ships the stored
// sequence to them, acks, and leaves the rows in the cluster exactly once.
func TestIngestIdempotentRetryReoffersUnackedBatch(t *testing.T) {
	lc, base := liveCluster(t, 3, t.TempDir())
	url := lc.URL(lc.IDs()[0]) + "/v1/ingest"
	req := IngestRequest{Rows: rowsToWire(ingestRows(48, 3_000_000)), IdemKey: "retry-me"}

	setChaos(lc, []chaos.Rule{{Endpoint: "/v1/replicate", ErrorRate: 1}})
	var first IngestResponse
	if code := postJSON(t, url, req, &first); code != http.StatusOK {
		t.Fatalf("first ingest: HTTP %d", code)
	}
	if first.AckedRows != 0 || first.FailedRows != len(req.Rows) {
		t.Fatalf("replicate blocked, yet acked %d / failed %d: %+v", first.AckedRows, first.FailedRows, first.Parts)
	}

	setChaos(lc, nil)
	var second IngestResponse
	if code := postJSON(t, url, req, &second); code != http.StatusOK {
		t.Fatalf("retried ingest: HTTP %d", code)
	}
	if second.AckedRows != len(req.Rows) || second.FailedRows != 0 {
		t.Fatalf("retry with healthy replicas acked %d / failed %d: %+v", second.AckedRows, second.FailedRows, second.Parts)
	}
	if len(second.Parts) != len(first.Parts) {
		t.Fatalf("retry answered %d parts, first attempt %d", len(second.Parts), len(first.Parts))
	}
	for i, pr := range second.Parts {
		if pr.Part != first.Parts[i].Part || pr.Seq != first.Parts[i].Seq {
			t.Fatalf("retry changed the outcome: %+v vs %+v", pr, first.Parts[i])
		}
	}

	assertRowsOnce(t, lc, "after retry", len(base)+len(req.Rows))
}

// ingestStacks returns the stacks of goroutines still inside the ingest
// write path.
func ingestStacks() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "dist.(*Node).handleIngest") || strings.Contains(g, "dist.runBounded") {
			left = append(left, g)
		}
	}
	return strings.Join(left, "\n\n")
}

// TestIngestPartitionsCommitConcurrently: the partitions of one batch
// commit side by side. With a delay injected into every replicate RPC a
// six-partition batch acks in about one delay (a walk one after the
// other needs six), and nothing else about the outcome changes: every
// part acked, parts in partition order, each partition's sequence
// advanced by exactly one on both holders, no goroutine left behind.
func TestIngestPartitionsCommitConcurrently(t *testing.T) {
	lc, _ := liveCluster(t, 3, t.TempDir())
	url := lc.URL(lc.IDs()[0]) + "/v1/ingest"
	// Warm the node-to-node connections, so the timed batch pays no dials.
	if code := postJSON(t, url, IngestRequest{Rows: rowsToWire(ingestRows(64, 4_000_000))}, nil); code != http.StatusOK {
		t.Fatalf("warm-up ingest: HTTP %d", code)
	}
	before := heldState(lc)

	const delay = 150 * time.Millisecond
	setChaos(lc, []chaos.Rule{{Endpoint: "/v1/replicate", LatencyMS: int(delay / time.Millisecond)}})
	var resp IngestResponse
	start := time.Now()
	code := postJSON(t, url, IngestRequest{Rows: rowsToWire(ingestRows(64, 4_100_000))}, &resp)
	took := time.Since(start)
	setChaos(lc, nil)
	if code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", code)
	}
	if len(resp.Parts) != 6 || resp.AckedRows != 64 || resp.FailedRows != 0 {
		t.Fatalf("want 6 acked parts and 64 acked rows: %+v", resp)
	}
	if took < delay || took >= 3*delay {
		t.Fatalf("six-partition batch acked in %v, want about one replicate delay of %v", took, delay)
	}
	for i, pr := range resp.Parts {
		if !pr.Acked || pr.Error != "" {
			t.Fatalf("part %d not acked: %+v", pr.Part, pr)
		}
		if pr.Part != i {
			t.Fatalf("parts out of partition order: %+v", resp.Parts)
		}
	}
	for k, after := range heldState(lc) {
		if strings.Contains(k, "/") && after[1] != before[k][1]+1 {
			t.Fatalf("copy %s went from seq %d to %d, want exactly one batch", k, before[k][1], after[1])
		}
	}
	// The client can read the response a moment before the handler
	// goroutine has returned.
	deadline := time.Now().Add(2 * time.Second)
	for ingestStacks() != "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if left := ingestStacks(); left != "" {
		t.Fatalf("goroutines left in the ingest path after the response:\n%s", left)
	}
}

// TestIngestConcurrentBatchesKeepReplicasIdentical: many clients send
// keyed multi-partition batches through all three members at once, so
// partition commits of different batches interleave freely. Afterwards
// every holder of every partition has the same sequence and content,
// nothing is lost or doubled, and a retry of every key changes nothing.
func TestIngestConcurrentBatchesKeepReplicasIdentical(t *testing.T) {
	lc, base := liveCluster(t, 3, t.TempDir())
	const clients, batches, perBatch = 8, 50, 12
	send := func(c, b int) error {
		first := 5_000_000 + uint64((c*batches+b)*perBatch)
		body, err := json.Marshal(IngestRequest{
			Rows:    rowsToWire(ingestRows(perBatch, first)),
			IdemKey: fmt.Sprintf("c%d-b%d", c, b),
		})
		if err != nil {
			return err
		}
		resp, err := http.Post(lc.URL(lc.IDs()[(c+b)%3])+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var ir IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || ir.AckedRows != perBatch || len(ir.Parts) < 2 {
			return fmt.Errorf("batch c%d-b%d: HTTP %d, %+v", c, b, resp.StatusCode, ir)
		}
		return nil
	}
	round := func() {
		t.Helper()
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches && errs[c] == nil; b++ {
					errs[c] = send(c, b)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	want := len(base) + clients*batches*perBatch

	round()
	assertRowsOnce(t, lc, "after ingest", want)
	state := heldState(lc)
	round()
	assertRowsOnce(t, lc, "after retrying every key", want)
	if after := heldState(lc); !reflect.DeepEqual(after, state) {
		t.Fatalf("retrying every key moved a copy:\nbefore %v\nafter  %v", state, after)
	}
}

// TestChaosEndpointAndMaskedErrors arms injected faults through the
// debug endpoint and asserts the resilience layer masks them: every
// client query under a 30% injected error rate still succeeds with a
// full-coverage answer, and the status plane reports the armed chaos.
func TestChaosEndpointAndMaskedErrors(t *testing.T) {
	lc, _ := exactCluster(t, 3)
	rules := []chaos.Rule{{Endpoint: "/v1/partials", ErrorRate: 0.3}}
	for _, id := range lc.IDs() {
		var st chaosState
		code := postJSON(t, lc.URL(id)+"/v1/debug/chaos",
			chaosState{Enabled: true, Rules: rules}, &st)
		if code != http.StatusOK || !st.Enabled {
			t.Fatalf("arming chaos on %s: HTTP %d enabled=%v", id, code, st.Enabled)
		}
	}
	client := lc.Client()
	qs := aggStreams(900)[0]
	for i := 0; i < 25; i++ {
		ans, err := client.Answer(qs.Next())
		if err != nil {
			t.Fatalf("query %d under 30%% injected errors failed: %v", i, err)
		}
		if ans.Degraded {
			t.Fatalf("query %d degraded despite live replicas", i)
		}
	}
	// The faults really fired (otherwise this test proves nothing).
	var injected int64
	for _, id := range lc.IDs() {
		injected += lc.Chaos(id).Stats().Errored
	}
	if injected == 0 {
		t.Fatal("no faults injected at 30% error rate over 25 scattered queries")
	}
	st := lc.Node("n0").NodeStatus()
	if !st.Resilience.ChaosEnabled {
		t.Fatal("status plane does not report armed chaos")
	}
	// Disarm and verify.
	var cleared chaosState
	if code := postJSON(t, lc.URL("n0")+"/v1/debug/chaos",
		chaosState{Enabled: false}, &cleared); code != http.StatusOK || cleared.Enabled {
		t.Fatal("clearing chaos failed")
	}
}
