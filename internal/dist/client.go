package dist

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
)

// Client is a ring-aware cluster client: it routes each query to the
// key's ring owners (so it lands on the node whose agent learned that
// query region) and fails over to the next replica — and then to any
// other member — when a node is unreachable. One node dying mid-stream
// is therefore invisible to callers: the request is retried elsewhere,
// not surfaced as an error. Once every candidate has been tried, the
// client re-walks the list under a bounded retry budget with
// exponential backoff + jitter (transient storms heal in milliseconds;
// a hard outage still fails fast once the budget is spent). The per-peer
// health tracker sheds calls to members that refuse connections or time
// out at a sustained rate, and re-admits one after its cooldown through
// a single real call that serves as the probe.
//
// The client is membership-aware: every node response carries the
// membership epoch it was served under (the X-Sea-Epoch envelope
// header), and a response from a NEWER epoch than the client knows
// triggers a synchronous refresh (GET /v1/membership) that rebuilds the
// ring and URL table — evicting departed members so they stop receiving
// RPCs, and admitting joiners so routing follows the new placement. The ring and URL map are
// treated as immutable snapshots behind mu, so in-flight requests keep
// a consistent view while a refresh swaps in the next one.
type Client struct {
	mu       sync.RWMutex // guards ring, urls, epoch
	ring     *Ring
	urls     map[string]string
	epoch    int64
	vnodes   int
	replicas int

	refreshMu sync.Mutex // single-flight for refresh()

	hc      *http.Client
	health  *peerHealth
	budget  int
	backoff time.Duration
	// Tenant is sent with every query for the nodes' admission control
	// (empty = shared default tenant).
	Tenant string
}

// NewClient builds a client over the cluster members (id -> base URL).
// replicas and timeout <= 0 take the defaults; the vnode count must
// match the cluster's (use NewClientVNodes otherwise).
func NewClient(members map[string]string, replicas int, timeout time.Duration) *Client {
	return NewClientVNodes(members, replicas, timeout, 0)
}

// NewClientVNodes is NewClient with an explicit ring vnode count.
func NewClientVNodes(members map[string]string, replicas int, timeout time.Duration, vnodes int) *Client {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	ids := make([]string, 0, len(members))
	urls := make(map[string]string, len(members))
	for id, url := range members {
		ids = append(ids, id)
		urls[id] = url
	}
	ring := NewRing(vnodes, ids...)
	return &Client{
		ring: ring,
		urls: urls,
		// A freshly booted static cluster is at epoch 1 (viewFromPeers),
		// so start there: the first response only triggers a refresh if
		// the cluster has actually changed since construction.
		epoch:    1,
		vnodes:   ring.VNodes(),
		replicas: replicas,
		hc:       newHTTPClient(timeout, nil),
		health:   newPeerHealth(DefaultCooldown, 0),
		budget:   DefaultRetryBudget,
		backoff:  DefaultRetryBackoff,
	}
}

// snapshot returns the current ring and URL table. Both are immutable
// once published (refresh swaps whole values), so callers may read them
// without further locking.
func (c *Client) snapshot() (*Ring, map[string]string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring, c.urls
}

// Epoch returns the newest membership epoch the client has adopted.
func (c *Client) Epoch() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// refresh pulls /v1/membership from the members we currently know,
// adopts the highest-epoch view seen, and rebuilds the ring + URL
// table from it. Single-flight: concurrent observers of the same new
// epoch collapse into one round of fetches.
func (c *Client) refresh(target int64) {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	c.mu.RLock()
	if c.epoch >= target {
		c.mu.RUnlock()
		return // another caller already got us there
	}
	urls := c.urls
	c.mu.RUnlock()
	var best MembershipResponse
	for _, url := range urls {
		if url == "" || !c.health.admit(url) {
			continue
		}
		mr, err := fetchMembership(c.hc, url)
		if err != nil {
			c.health.observe(url, err)
			continue
		}
		c.health.observe(url, nil)
		if mr.View.Epoch > best.View.Epoch {
			best = mr
		}
		if best.View.Epoch >= target {
			break // already as new as the epoch that triggered us
		}
	}
	if best.View.Epoch == 0 {
		return // nobody reachable; keep routing by the old view
	}
	ids := make([]string, 0, len(best.View.Members))
	nurls := make(map[string]string, len(best.View.Members))
	for _, m := range best.View.Members {
		ids = append(ids, m.ID)
		nurls[m.ID] = m.URL
	}
	c.mu.Lock()
	if best.View.Epoch > c.epoch {
		c.ring = NewRing(c.vnodes, ids...)
		c.urls = nurls
		c.epoch = best.View.Epoch
	}
	c.mu.Unlock()
}

// Answer routes q to its ring owners and returns the cluster's answer.
func (c *Client) Answer(q query.Query) (core.Answer, error) {
	resp, err := c.answer(q)
	if err != nil {
		return core.Answer{}, err
	}
	return resp.Answer(), nil
}

// retryLoop drives walk — one full pass over the candidate list —
// until it reports done, or the retry budget is exhausted, or the
// deadline passes, backing off between passes (sleepBackoff).
func (c *Client) retryLoop(deadline time.Time, walk func() bool) {
	backoff := c.backoff
	for retries := 0; !walk() && retries < c.budget; retries++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return
		}
		sleepBackoff(&backoff, deadline)
	}
}

func (c *Client) answer(q query.Query) (QueryResponse, error) {
	if err := q.Validate(); err != nil {
		return QueryResponse{}, err
	}
	wire := queryToWire(q, c.Tenant)
	env := envelope{deadline: wire.DeadlineMS}
	key := serve.Key(q)
	var out QueryResponse
	var lastErr, terminalErr error
	ok := false
	c.retryLoop(q.Deadline, func() bool {
		// Re-snapshot each pass: a refresh between passes re-routes the
		// retry to the current members.
		ring, urls := c.snapshot()
		for _, id := range c.candidates(ring, key) {
			url := urls[id]
			if url == "" || !c.health.admit(url) {
				continue
			}
			var r QueryResponse
			rep, err := c.call(context.Background(), http.MethodPost, url+"/v1/query", env, wire, &r)
			c.health.observeReply(url, rep, err)
			if err == nil {
				out, ok = r, true
				return true
			}
			lastErr = fmt.Errorf("dist: query via %s: %w", id, err)
			// Overload, server-side failures and garbled replies are worth
			// another replica; a rejected query or a lapsed deadline (a
			// retried dead request arrives even deader) fails the same way
			// everywhere.
			if s := rep.status; s != 0 && s != http.StatusOK && s != http.StatusTooManyRequests &&
				(s < 500 || s == http.StatusGatewayTimeout) {
				terminalErr = lastErr
				return true
			}
		}
		return false
	})
	if ok {
		return out, nil
	}
	if terminalErr != nil {
		return QueryResponse{}, terminalErr
	}
	return QueryResponse{}, errAllReplicas("query "+key, lastErr)
}

// candidates lists the key's ring owners first, then every other member:
// owners for model locality, the rest as degraded-mode fallbacks (any
// node can answer by scatter-gathering).
func (c *Client) candidates(ring *Ring, key string) []string {
	owners := ring.Owners(key, c.replicas)
	isOwner := make(map[string]bool, len(owners))
	for _, o := range owners {
		isOwner[o] = true
	}
	out := owners
	for _, id := range ring.Nodes() {
		if !isOwner[id] {
			out = append(out, id)
		}
	}
	return out
}

// newIdemKey mints a batch idempotency key: 16 random bytes, hex.
func newIdemKey() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fall back to a time-derived key: uniqueness only has to hold
		// across this client's recent batches.
		return fmt.Sprintf("t-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Ingest appends a batch of rows through the cluster's replicated write
// path (POST /v1/ingest). The entry node routes each row's partition
// batch to its primary, which sequences it, replicates it to the ring
// owners and acks at the write quorum; the response reports per-
// partition outcomes. A transport error fails over to the next member;
// every attempt of one batch carries the same idempotency key, so a
// primary that already applied the batch replays its stored outcome
// instead of double-applying the rows. Per-partition quorum failures
// are NOT retried here: they come back in the response as unacked
// parts for the caller to decide about.
func (c *Client) Ingest(rows []storage.Row) (IngestResponse, error) {
	if len(rows) == 0 {
		return IngestResponse{}, fmt.Errorf("dist: ingest needs rows")
	}
	req := IngestRequest{Rows: rowsToWire(rows), IdemKey: newIdemKey()}
	var out IngestResponse
	var lastErr error
	ok := false
	c.retryLoop(time.Time{}, func() bool {
		ring, urls := c.snapshot()
		for _, id := range ring.Nodes() {
			url := urls[id]
			if url == "" || !c.health.admit(url) {
				continue
			}
			var r IngestResponse
			rep, err := c.call(context.Background(), http.MethodPost, url+"/v1/ingest", envelope{}, req, &r)
			c.health.observeReply(url, rep, err)
			if err == nil {
				out, ok = r, true
				return true
			}
			lastErr = fmt.Errorf("dist: ingest via %s: %w", id, err)
			if rep.status == http.StatusBadRequest {
				return true
			}
		}
		return false
	})
	if ok {
		return out, nil
	}
	return IngestResponse{}, errAllReplicas("ingest", lastErr)
}

// Status fetches a member's cluster view (GET /v1/cluster), trying every
// member until one responds.
func (c *Client) Status() (ClusterStatus, error) {
	var lastErr error
	ring, urls := c.snapshot()
	for _, id := range ring.Nodes() {
		url := urls[id]
		if url == "" || !c.health.admit(url) {
			continue
		}
		var st ClusterStatus
		rep, err := c.call(context.Background(), http.MethodGet, url+"/v1/cluster", envelope{}, nil, &st)
		c.health.observeReply(url, rep, err)
		if err == nil {
			return st, nil
		}
		lastErr = fmt.Errorf("dist: cluster status from %s: %w", url, err)
	}
	return ClusterStatus{}, errAllReplicas("cluster status", lastErr)
}
