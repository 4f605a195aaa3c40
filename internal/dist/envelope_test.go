package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// envelopePair starts two members over one partition with replication
// 1, so one member (holder) holds all data and answers every route from
// local state alone: nothing but the call under test crosses between
// holder and other.
func envelopePair(t *testing.T) (lc *LocalCluster, holder, other *Node) {
	t.Helper()
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	lc, err := StartLocal(2, Config{Agent: cfg, Replicas: 1, Partitions: 1, AnswerCache: -1},
		testRows(500, 11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	holder = lc.Node(lc.Node("n0").PartitionOwners(0)[0])
	other = lc.Node("n0")
	if other == holder {
		other = lc.Node("n1")
	}
	return lc, holder, other
}

// holderQuery returns a query whose single ring owner is holder, so a
// query sent to the other member must be forwarded.
func holderQuery(t *testing.T, holder *Node) query.Query {
	t.Helper()
	qs := aggStreams(5)[0]
	for i := 0; i < 500; i++ {
		if q := qs.Next(); containsStr(ownersOf(holder, q), holder.ID()) {
			return q
		}
	}
	t.Fatal("no query owned by the holder")
	return query.Query{}
}

// bump moves n alone to the next epoch (same members), as a view push
// that has reached only n would.
func bump(t *testing.T, n *Node) int64 {
	t.Helper()
	cur := n.members().view
	if err := n.applyView(View{Epoch: cur.Epoch + 1, Members: cur.Members}); err != nil {
		t.Fatal(err)
	}
	return cur.Epoch + 1
}

// waitEpoch waits until n has adopted epoch want.
func waitEpoch(t *testing.T, n *Node, want int64, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); n.epoch() < want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %s still at epoch %d, want %d", what, n.ID(), n.epoch(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEnvelopeEpochEveryRoute: on every node-to-node route, a caller
// one epoch ahead makes the callee adopt its view (the request's
// X-Sea-Epoch), and a callee one epoch ahead makes the caller adopt its
// view (the reply's X-Sea-Epoch).
func TestEnvelopeEpochEveryRoute(t *testing.T) {
	routes := []struct {
		name string
		run  func(t *testing.T, lc *LocalCluster, holder, caller *Node)
	}{
		{"partials", func(t *testing.T, _ *LocalCluster, holder, caller *Node) {
			q := queryToWire(wholeSpace(query.Count, 0), "")
			if _, _, err := caller.fetchPartials(context.Background(), selfURL(holder), []int{0}, q, nil, false); err != nil {
				t.Fatal(err)
			}
		}},
		{"ingest forward", func(t *testing.T, _ *LocalCluster, holder, caller *Node) {
			if pr := caller.forwardIngest([]string{holder.ID()}, 0, ingestRows(2, 9_100_000), "", envelope{}, nil); !pr.Acked {
				t.Fatalf("forwarded batch not acked: %+v", pr)
			}
		}},
		{"replicate", func(t *testing.T, _ *LocalCluster, holder, caller *Node) {
			// Sequence 0 is a duplicate delivery: the replica answers its
			// last sequence and applies nothing.
			if _, err := caller.replicateTo(selfURL(holder), 0, 0, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"walfetch", func(t *testing.T, _ *LocalCluster, holder, caller *Node) {
			if _, _, err := caller.fetchTail(selfURL(holder), 0, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"partsnap", func(t *testing.T, _ *LocalCluster, holder, caller *Node) {
			if _, err := caller.fetchPart(selfURL(holder), 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"digest", func(t *testing.T, _ *LocalCluster, holder, caller *Node) {
			if _, err := caller.fetchDigest(selfURL(holder), 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"migrate", func(t *testing.T, _ *LocalCluster, holder, caller *Node) {
			if err := caller.sendMigrate(selfURL(holder), caller.members().view, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"membership push", func(t *testing.T, _ *LocalCluster, holder, caller *Node) {
			if err := caller.pushView(selfURL(holder), caller.members().view); err != nil {
				t.Fatal(err)
			}
		}},
		{"status fetch", func(t *testing.T, _ *LocalCluster, holder, caller *Node) {
			if rep := caller.fetchStatus(holder.ID()); !rep.Reachable {
				t.Fatal(rep.Error)
			}
		}},
		{"query forward", func(t *testing.T, cl *LocalCluster, holder, caller *Node) {
			var qr QueryResponse
			if code := postJSON(t, cl.URL(caller.ID())+"/v1/query", queryToWire(holderQuery(t, holder), ""), &qr); code != http.StatusOK {
				t.Fatalf("HTTP %d", code)
			}
			if qr.Node != holder.ID() {
				t.Fatalf("answered by %s, not forwarded to the owner %s", qr.Node, holder.ID())
			}
		}},
	}
	for _, rt := range routes {
		t.Run(rt.name+"/caller ahead", func(t *testing.T) {
			cl, holder, caller := envelopePair(t)
			want := bump(t, caller)
			rt.run(t, cl, holder, caller)
			waitEpoch(t, holder, want, "callee")
		})
		t.Run(rt.name+"/callee ahead", func(t *testing.T) {
			cl, holder, caller := envelopePair(t)
			want := bump(t, holder)
			rt.run(t, cl, holder, caller)
			waitEpoch(t, caller, want, "caller")
		})
	}
}

// selfURL returns n's own base URL as its current view records it.
func selfURL(n *Node) string { return n.members().urls[n.ID()] }

// TestIngestForwardKeepsClientDeadline: a batch whose client deadline
// lapses on the forward hop fails its part at the entry node within the
// deadline, and is never applied at the primary.
func TestIngestForwardKeepsClientDeadline(t *testing.T) {
	cl, holder, entry := envelopePair(t)
	client := cl.Client()
	count, seq := countAll(t, client), holder.PartLastSeq(0)

	const lag = 400 * time.Millisecond
	entry.Fault().Set([]chaos.Rule{{Endpoint: "/v1/ingest", LatencyMS: int(lag / time.Millisecond)}})
	start := time.Now()
	var resp IngestResponse
	code := postJSON(t, cl.URL(entry.ID())+"/v1/ingest", IngestRequest{
		Rows:       rowsToWire(ingestRows(4, 9_200_000)),
		DeadlineMS: time.Now().Add(100 * time.Millisecond).UnixMilli(),
	}, &resp)
	took := time.Since(start)
	if code != http.StatusOK || resp.FailedRows != 4 || len(resp.Parts) != 1 || resp.Parts[0].Error == "" {
		t.Fatalf("lapsed forward: HTTP %d, %+v", code, resp)
	}
	if took >= lag {
		t.Fatalf("entry node waited %v, past the client's deadline", took)
	}
	// A forward sent late anyway would have landed by now.
	time.Sleep(lag + 100*time.Millisecond)
	entry.Fault().Clear()
	if got := holder.PartLastSeq(0); got != seq {
		t.Fatalf("primary last_seq moved %d -> %d", seq, got)
	}
	if got := countAll(t, client); got != count {
		t.Fatalf("COUNT(*) moved %v -> %v", count, got)
	}
}

// TestDecodeRefusesUnknownFields: every JSON route decodes by one rule,
// so a body with a field the route does not know is a 400, never a
// silently dropped zero value. Each body is first sent as is, to show
// it decodes.
func TestDecodeRefusesUnknownFields(t *testing.T) {
	cl, holder, other := envelopePair(t)
	view := holder.members().view
	bodies := map[string]any{
		"/v1/query":      queryToWire(wholeSpace(query.Count, 0), ""),
		"/v1/partials":   PartialsRequest{Parts: []int{0}, Query: queryToWire(wholeSpace(query.Count, 0), "")},
		"/v1/ingest":     IngestRequest{Rows: rowsToWire(ingestRows(1, 9_300_000))},
		"/v1/replicate":  ReplicateRequest{Part: 0},
		"/v1/walfetch":   WALFetchRequest{Part: 0},
		"/v1/membership": view,
		// A member already in the view and one that is not: both decode,
		// and neither changes the cluster.
		"/v1/join":        JoinRequest{ID: other.ID(), URL: selfURL(other)},
		"/v1/leave":       LeaveRequest{ID: "absent"},
		"/v1/migrate":     MigrateRequest{View: view},
		"/v1/partsnap":    PartSnapRequest{Part: 0},
		"/v1/digest":      DigestRequest{Part: 0},
		"/v1/debug/chaos": chaosState{Enabled: false},
	}
	for path, body := range bodies {
		url := cl.URL(holder.ID()) + path
		if code := postJSON(t, url, body, nil); code == http.StatusBadRequest {
			t.Fatalf("%s: the plain body is refused", path)
		}
		raw, _ := json.Marshal(body)
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		fields["bogus"] = 1
		if code := postJSON(t, url, fields, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: unknown field answered HTTP %d, want 400", path, code)
		}
	}
}

// TestEnvelopeRefusesMalformedHeaders: a malformed envelope header is a
// 400, a passed deadline a 504, on any route; a well-formed envelope
// passes.
func TestEnvelopeRefusesMalformedHeaders(t *testing.T) {
	cl, holder, _ := envelopePair(t)
	url := cl.URL(holder.ID()) + "/v1/digest"
	for _, tc := range []struct {
		header, value string
		want          int
	}{
		{hdrEpoch, "x", http.StatusBadRequest},
		{hdrEpoch, "-1", http.StatusBadRequest},
		{hdrDeadline, "soon", http.StatusBadRequest},
		{hdrDeadline, "1", http.StatusGatewayTimeout},
		{hdrHops, "test", http.StatusBadRequest},
		{hdrHops, "-1", http.StatusBadRequest},
		{hdrTrace, "maybe", http.StatusBadRequest},
		{hdrEpoch, "1", http.StatusOK},
		{hdrDeadline, "0", http.StatusOK},
		{hdrTrace, "1", http.StatusOK},
	} {
		req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(`{"part":0}`)))
		req.Header.Set(tc.header, tc.value)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: %q answered HTTP %d, want %d", tc.header, tc.value, resp.StatusCode, tc.want)
		}
		if resp.Header.Get(hdrEpoch) == "" {
			t.Fatalf("%s: %q: response carries no %s", tc.header, tc.value, hdrEpoch)
		}
	}
}

// FuzzEnvelope: arbitrary envelope headers and body bytes through the
// server-side parse and decode never panic and are answered with a
// success, 400 or 504; and a formatted envelope parses back to itself.
func FuzzEnvelope(f *testing.F) {
	f.Add("2", "", "", "", []byte(`{"parts":[0,1],"query":{"agg":"count","los":[0,0],"his":[50,50]}}`),
		int64(2), int64(0), false, uint16(0))
	f.Add("x", "1", "maybe", "-1", []byte(`{"parts":[0],"bogus":1}`),
		int64(0), int64(1<<40), true, uint16(2))
	f.Add("", "99999999999999", "1", "1", []byte(`{"parts":[7],"query":{"agg":"sum","col":9,"center":[1,1],"radius":2}}`),
		int64(math.MaxInt64), int64(-5), true, uint16(65535))
	cfg := core.DefaultConfig(2)
	cfg.TrainingQueries = 1 << 30
	n, err := NewNode(Config{ID: "n0", Agent: cfg, Partitions: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(n.Close)
	if err := n.Load(workload.StandardTable(200, 3)); err != nil {
		f.Fatal(err)
	}
	h := n.Handler()
	f.Fuzz(func(t *testing.T, epoch, deadline, trace, hops string, body []byte, e, d int64, tr bool, hp uint16) {
		req := httptest.NewRequest(http.MethodPost, "/v1/partials", bytes.NewReader(body))
		for name, v := range map[string]string{hdrEpoch: epoch, hdrDeadline: deadline, hdrTrace: trace, hdrHops: hops} {
			if v != "" {
				req.Header[name] = []string{v}
			}
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusGatewayTimeout:
		default:
			t.Fatalf("HTTP %d: %s", w.Code, w.Body.Bytes())
		}

		env := envelope{epoch: e & math.MaxInt64, deadline: d & math.MaxInt64, trace: tr, hops: int(hp)}
		hdr := http.Header{}
		env.write(hdr)
		if got, err := readEnvelope(hdr); err != nil || got != env {
			t.Fatalf("envelope %+v read back as %+v (%v)", env, got, err)
		}
	})
}
