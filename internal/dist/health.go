package dist

import (
	"errors"
	"net"
	"net/http"
	"sync"
	"time"
)

// health tracks which peers are suspected down. A failed call marks the
// peer down for a cooldown; once the cooldown expires the peer is only
// reinstated after a successful GET /healthz probe — the same endpoint
// cmd/seaserve exposes for liveness. Both the client-side failover and
// the node-side scatter/forward paths share this tracker so one dead
// node costs at most one timeout per cooldown window instead of one per
// query.
type health struct {
	cooldown time.Duration
	probe    *http.Client
	brCfg    breakerConfig

	// mu is an RWMutex because the hot path — every scatter RPC calls
	// breaker() at least twice (available + observe) — only ever READS
	// these maps once a peer's entries exist; writers are peer first
	// use, suspicion marks and probe bookkeeping, all off the common
	// case. Read-locking keeps concurrent scatter workers from
	// serialising on the tracker.
	mu       sync.RWMutex
	down     map[string]time.Time // base URL -> down until
	probing  map[string]bool      // base URL -> a probe is in flight
	breakers map[string]*breaker  // base URL -> circuit breaker
}

func newHealth(cooldown time.Duration, probeTimeout time.Duration, brCfg breakerConfig) *health {
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	if probeTimeout <= 0 || probeTimeout > cooldown {
		probeTimeout = cooldown
	}
	return &health{
		cooldown: cooldown,
		probe:    &http.Client{Timeout: probeTimeout},
		brCfg:    brCfg,
		down:     make(map[string]time.Time),
		probing:  make(map[string]bool),
		breakers: make(map[string]*breaker),
	}
}

// breaker returns (creating on first use) url's circuit breaker.
func (h *health) breaker(url string) *breaker {
	h.mu.RLock()
	b := h.breakers[url]
	h.mu.RUnlock()
	if b != nil {
		return b
	}
	h.mu.Lock()
	if b = h.breakers[url]; b == nil {
		b = newBreaker(h.brCfg)
		h.breakers[url] = b
	}
	h.mu.Unlock()
	return b
}

// observe records one RPC outcome against url's breaker and — for
// dead-peer errors — the suspect tracker. The breaker counts
// unreachability (timeouts, connection failures): those are the
// failures where every attempt costs a full RPC timeout, so failing
// fast is what the breaker buys. HTTP error statuses (errPeerResponded)
// feed neither side of the breaker: the peer answered promptly, the
// budgeted retry layer masks per-request failures at per-request cost,
// and tripping on them would turn a transient error burst into vetoed
// replicas and needless degraded answers. They do not close a
// half-open breaker either — recovery proof is a round trip that
// actually succeeded.
func (h *health) observe(url string, err error) {
	now := time.Now()
	if err == nil {
		h.breaker(url).success(now)
		return
	}
	if !errors.Is(err, errPeerResponded) {
		h.breaker(url).failure(now)
	}
	h.markDownOn(url, err)
}

// observeReply is observe for a forwarded or client call's outcome: a
// peer that answered below 500 — a rejection or a garbled body included
// — proved it is up; an unreachable peer or a server failure is
// observed as the error it is.
func (h *health) observeReply(url string, rep reply, err error) {
	if rep.status != 0 && rep.status < 500 {
		err = nil
	}
	h.observe(url, err)
}

// worstBreaker returns the worst breaker state across all peers
// (the sea_breaker_state gauge).
func (h *health) worstBreaker() int {
	h.mu.RLock()
	brs := make([]*breaker, 0, len(h.breakers))
	for _, b := range h.breakers {
		brs = append(brs, b)
	}
	h.mu.RUnlock()
	worst := breakerClosed
	for _, b := range brs {
		if s := b.snapshot(); s > worst {
			worst = s
		}
	}
	return worst
}

// breakerStates snapshots every peer's breaker state by URL.
func (h *health) breakerStates() map[string]string {
	h.mu.RLock()
	brs := make(map[string]*breaker, len(h.breakers))
	for url, b := range h.breakers {
		brs[url] = b
	}
	h.mu.RUnlock()
	out := make(map[string]string, len(brs))
	for url, b := range brs {
		out[url] = breakerStateName(b.snapshot())
	}
	return out
}

// markDown records a failed call to url.
func (h *health) markDown(url string) {
	h.mu.Lock()
	h.down[url] = time.Now().Add(h.cooldown)
	h.mu.Unlock()
}

// errPeerResponded wraps HTTP error-status failures: the peer answered,
// so it is alive and must not be quarantined.
var errPeerResponded = errors.New("dist: peer responded with an error status")

// suspectOn reports whether a call error indicates a dead peer
// (connection-level failure) rather than a merely slow one (timeout) or
// an alive one returning an error status. Slow must not mean dead: an
// expensive query timing out on every replica in turn would otherwise
// quarantine the whole cluster, failing even cheap node-local
// predictions until the cooldown expires.
func suspectOn(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return !errors.Is(err, errPeerResponded)
}

// markDownOn suspects url only for dead-peer errors (see suspectOn).
func (h *health) markDownOn(url string, err error) {
	if suspectOn(err) {
		h.markDown(url)
	}
}

// available reports whether url should be tried: healthy peers always,
// suspected peers only after the cooldown has expired AND a /healthz
// probe succeeds. At most one probe per peer is in flight: concurrent
// callers skip the peer instead of each paying the probe timeout when
// it is still dead. An open circuit breaker also vetoes the peer —
// callers admitted here MUST report the call's outcome via observe, or
// a half-open breaker's probe slot would leak (allow reclaims a stale
// probe after openFor as a backstop).
func (h *health) available(url string) bool {
	if !h.breaker(url).allow(time.Now()) {
		return false
	}
	h.mu.RLock()
	until, suspected := h.down[url]
	h.mu.RUnlock()
	if !suspected {
		return true
	}
	h.mu.Lock()
	until, suspected = h.down[url]
	if !suspected {
		h.mu.Unlock()
		return true
	}
	if time.Now().Before(until) || h.probing[url] {
		h.mu.Unlock()
		return false
	}
	h.probing[url] = true
	h.mu.Unlock()

	ok := false
	if resp, err := h.probe.Get(url + "/healthz"); err == nil {
		resp.Body.Close()
		ok = resp.StatusCode == http.StatusOK
	}
	h.mu.Lock()
	delete(h.probing, url)
	if ok {
		delete(h.down, url)
	} else {
		h.down[url] = time.Now().Add(h.cooldown)
	}
	h.mu.Unlock()
	return ok
}
