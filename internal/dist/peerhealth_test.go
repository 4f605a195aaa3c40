package dist

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/query"
)

// fakeTimeout satisfies net.Error with Timeout() == true: the shape of
// a blackholed or wedged peer's failure as seen through http.Client.
type fakeTimeout struct{}

func (fakeTimeout) Error() string   { return "fake: i/o timeout" }
func (fakeTimeout) Timeout() bool   { return true }
func (fakeTimeout) Temporary() bool { return true }

// steppedHealth is a tracker on a clock that moves only when the test
// moves it.
func steppedHealth(cooldown time.Duration, rate float64) (*peerHealth, *time.Time) {
	h := newPeerHealth(cooldown, rate)
	now := time.Unix(1_700_000_000, 0)
	h.now = func() time.Time { return now }
	return h, &now
}

// refusedErr returns what http.Client reports for a refused connection.
func refusedErr(t *testing.T) error {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	resp, err := http.Get("http://" + addr + "/v1/partials")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("GET on a closed listener %s succeeded", addr)
	}
	return err
}

const testPeer = "http://127.0.0.1:1"

// TestBreakerLifecycle walks one peer through closed -> open ->
// half-open -> closed, including the probe-failure re-open and the
// single-probe admission rule.
func TestBreakerLifecycle(t *testing.T) {
	h, clock := steppedHealth(time.Second, 0)
	for i := 0; i < tripMinCalls; i++ {
		if !h.admit(testPeer) {
			t.Fatalf("closed peer rejected call %d", i)
		}
		h.observe(testPeer, fakeTimeout{})
	}
	if got := h.state(testPeer); got != peerOpen {
		t.Fatalf("after %d timeouts state = %s, want open", tripMinCalls, peerStateNames[got])
	}
	if h.admit(testPeer) {
		t.Fatal("open peer admitted a call before its cooldown elapsed")
	}

	*clock = clock.Add(time.Second + time.Millisecond)
	if !h.admit(testPeer) {
		t.Fatal("peer did not admit the half-open probe after its cooldown")
	}
	if got := h.state(testPeer); got != peerHalfOpen {
		t.Fatalf("state = %s, want half-open", peerStateNames[got])
	}
	if h.admit(testPeer) {
		t.Fatal("half-open peer admitted a second concurrent probe")
	}
	h.observe(testPeer, fakeTimeout{})
	if got := h.state(testPeer); got != peerOpen {
		t.Fatalf("probe failure left state %s, want open", peerStateNames[got])
	}

	*clock = clock.Add(time.Second + time.Millisecond)
	if !h.admit(testPeer) {
		t.Fatal("re-opened peer did not admit a second probe")
	}
	h.observe(testPeer, nil)
	if got := h.state(testPeer); got != peerClosed {
		t.Fatalf("probe success left state %s, want closed", peerStateNames[got])
	}
	if !h.admit(testPeer) {
		t.Fatal("closed peer rejected a call after recovery")
	}
}

// TestBreakerVetoesAlivePeer: a peer opens on unreachability —
// timeouts, where every attempt costs the full RPC timeout — and is
// then refused by admit. HTTP error statuses feed no rule (the peer
// answered, and the retry layer masks them at per-request cost), so a
// 500-bursting peer stays admitted.
func TestBreakerVetoesAlivePeer(t *testing.T) {
	h := newPeerHealth(time.Hour, 0)
	for i := 0; i < tripMinCalls; i++ {
		h.observe(testPeer, fmt.Errorf("%w: HTTP 500", errPeerResponded))
	}
	if !h.admit(testPeer) {
		t.Fatal("peer answering with error statuses was vetoed: 500s must not open it")
	}
	for i := 0; i < tripMinCalls; i++ {
		h.observe(testPeer, fakeTimeout{})
	}
	if h.admit(testPeer) {
		t.Fatal("peer timing out 100% of calls still admitted")
	}
	states, worst := h.snapshot()
	if worst != peerOpen {
		t.Fatalf("worst state = %d, want open", worst)
	}
	if states[testPeer] != "open" {
		t.Fatalf("states[%s] = %q, want open", testPeer, states[testPeer])
	}
}

// TestBreakerTripRules pins what opens a peer: a refused connection at
// once (also with the rate rule off), timeouts — in either shape — at
// half of at least tripMinCalls calls, and never an HTTP error status
// or a call this process cancelled.
func TestBreakerTripRules(t *testing.T) {
	refused := refusedErr(t)
	status500 := &statusError{code: http.StatusInternalServerError, msg: "boom"}
	cancelled := fmt.Errorf("partials: %w", context.Canceled)
	// What a blackholed call returns when the request context's deadline
	// beats http.Client's own timer: no Timeout() on the url.Error.
	deadline := &url.Error{Op: "Post", URL: testPeer + "/v1/partials",
		Err: fmt.Errorf("chaos: blackhole: %w", context.DeadlineExceeded)}
	times := func(n int, err error) []error {
		out := make([]error, n)
		for i := range out {
			out[i] = err
		}
		return out
	}
	for _, c := range []struct {
		name string
		rate float64
		errs []error // nil is a success
		want int
	}{
		{"connection refused opens at once", 0, []error{refused}, peerOpen},
		{"connection refused with the rate rule off", -1, []error{refused}, peerOpen},
		{"seven timeouts stay closed", 0, times(tripMinCalls-1, fakeTimeout{}), peerClosed},
		{"eight timeouts open", 0, times(tripMinCalls, fakeTimeout{}), peerOpen},
		{"seven context deadlines stay closed", 0, times(tripMinCalls-1, deadline), peerClosed},
		{"eight context deadlines open", 0, times(tripMinCalls, deadline), peerOpen},
		{"timeouts below half the window stay closed", 0,
			append(times(8, nil), times(7, fakeTimeout{})...), peerClosed},
		{"timeouts at half the window open", 0,
			append(times(8, nil), times(8, fakeTimeout{})...), peerOpen},
		{"eight timeouts with the rate rule off", -1, times(tripMinCalls, fakeTimeout{}), peerClosed},
		{"500s never open", 0, times(100, status500), peerClosed},
		{"own cancellations never open", 0, times(100, cancelled), peerClosed},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, _ := steppedHealth(time.Hour, c.rate)
			for _, err := range c.errs {
				h.observe(testPeer, err)
			}
			if got := h.state(testPeer); got != c.want {
				t.Fatalf("state = %s, want %s", peerStateNames[got], peerStateNames[c.want])
			}
		})
	}
}

// TestBreakerStatusReadKeepsProbe: reading a peer's state after its
// cooldown — what /v1/status, hedge selection and catch-up do — admits
// nothing, so the next admitted call is still the peer's probe.
func TestBreakerStatusReadKeepsProbe(t *testing.T) {
	h, clock := steppedHealth(time.Second, 0)
	h.observe(testPeer, refusedErr(t))
	*clock = clock.Add(time.Second)
	for i := 0; i < 3; i++ {
		if got := h.state(testPeer); got != peerHalfOpen {
			t.Fatalf("read %d after the cooldown: %s, want half-open", i, peerStateNames[got])
		}
		if _, worst := h.snapshot(); worst != peerHalfOpen {
			t.Fatalf("snapshot %d after the cooldown: worst %s, want half-open", i, peerStateNames[worst])
		}
	}
	if !h.admit(testPeer) {
		t.Fatal("the first admit after the cooldown was refused: a read took the probe")
	}
	if h.admit(testPeer) {
		t.Fatal("a second admit joined the probe")
	}
	h.observe(testPeer, nil)
	if got := h.state(testPeer); got != peerClosed {
		t.Fatalf("probe success left %s, want closed", peerStateNames[got])
	}
}

// TestBreakerHedgeCandidateLeavesProbe: picking a hedge candidate reads
// the tracker. A half-open peer is no candidate, and its probe slot is
// still free afterwards, whether or not the hedge would have fired.
func TestBreakerHedgeCandidateLeavesProbe(t *testing.T) {
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30
	const cooldown = 200 * time.Millisecond
	lc, err := StartLocal(2, Config{Agent: agentCfg, Replicas: 2, Cooldown: cooldown}, testRows(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	n0, peer := lc.Node("n0"), lc.URL("n1")
	n0.hedgeNs.Store(int64(5 * time.Millisecond))
	cand, next := map[int][]string{0: {"n1"}}, map[int]int{0: 0}

	if got := n0.hedgeCandidate([]int{0}, cand, next, "n0"); got != peer {
		t.Fatalf("closed peer not picked as hedge candidate: %q", got)
	}
	n0.health.observe(peer, refusedErr(t))
	time.Sleep(cooldown + 50*time.Millisecond)
	if got := n0.hedgeCandidate([]int{0}, cand, next, "n0"); got != "" {
		t.Fatalf("half-open peer picked as hedge candidate: %q", got)
	}
	if !n0.health.admit(peer) {
		t.Fatal("hedge selection took the half-open peer's probe slot")
	}
	n0.health.observe(peer, nil)
}

// TestBreakerRecoveryAfterStatusReads runs the recovery a status poll
// used to break. With one replica, one peer's /v1/partials is
// blackholed until its breaker opens. Once the rule is cleared and the
// cooldown has passed, NodeStatus and Status read the peer's state and
// the next whole-space COUNT is its probe: it must come back complete,
// and the peer closed.
func TestBreakerRecoveryAfterStatusReads(t *testing.T) {
	agentCfg := core.DefaultConfig(2)
	agentCfg.TrainingQueries = 1 << 30 // never predict: every answer is exact
	rows := testRows(2_000, 11)
	const cooldown = 300 * time.Millisecond
	lc, err := StartLocal(2, Config{
		Agent:         agentCfg,
		Replicas:      1,
		Partitions:    8,
		RetryBudget:   -1, // one try per query: a refused holder degrades it
		HedgeQuantile: -1,
		AnswerCache:   -1,
		Timeout:       150 * time.Millisecond,
		Cooldown:      cooldown,
	}, rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	n0, peer := lc.Node("n0"), lc.URL("n1")
	if len(lc.Node("n1").Status().PartitionsHeld) == 0 {
		t.Fatal("n1 holds no partition: nothing to scatter to it")
	}
	count := wholeSpace(query.Count, 0)

	n0.Fault().Set([]chaos.Rule{{Peer: peer, Endpoint: "/v1/partials", Blackhole: true}})
	for i := 0; n0.NodeStatus().Resilience.Breakers[peer] != "open"; i++ {
		if i == 4*tripMinCalls {
			t.Fatalf("breaker to %s not open after %d blackholed queries", peer, i)
		}
		if _, err := n0.Answer("", count); err != nil {
			t.Fatal(err)
		}
	}
	n0.Fault().Clear()
	time.Sleep(cooldown + 50*time.Millisecond)

	_ = n0.NodeStatus()
	_ = n0.Status()
	ans, err := n0.Answer("", count)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded || ans.Value != float64(len(rows)) {
		t.Fatalf("recovery COUNT degraded=%v value=%v, want %d undegraded", ans.Degraded, ans.Value, len(rows))
	}
	if st := n0.NodeStatus().Resilience; st.WorstBreaker != peerClosed {
		t.Fatalf("worst_breaker %d after the probe succeeded, want closed (%v)", st.WorstBreaker, st.Breakers)
	}
}
