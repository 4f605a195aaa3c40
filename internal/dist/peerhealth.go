package dist

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// Peer states, ordered by badness: the worst state across all peers
// feeds the sea_breaker_state gauge. peerStateNames names them for the
// status plane.
const (
	peerClosed   = 0
	peerHalfOpen = 1
	peerOpen     = 2
)

var peerStateNames = [...]string{"closed", "half-open", "open"}

const (
	// peerBuckets is the rolling outcome window in one-second buckets.
	peerBuckets = 10
	// tripMinCalls is the window call count below which the timeout
	// rate is not judged: one slow call must not open a peer.
	tripMinCalls = 8
	// defaultTripRate is the window timeout share that opens a peer.
	defaultTripRate = 0.5
)

// errPeerResponded wraps HTTP error-status failures: the peer answered,
// so it is alive and must not be opened.
var errPeerResponded = errors.New("dist: peer responded with an error status")

// peerHealth answers "may I call peer X?" for a node or a client: one
// record per peer URL, each a circuit breaker with the classic closed →
// open → half-open → closed lifecycle. Scatter, forward, ingest,
// replicate, anti-entropy and dist.Client share it, so one dead member
// costs at most one failed call per cooldown instead of one per query.
//
// Tripping. A connection-level error (refused, reset) opens the peer at
// once. Timeouts open it at tripRate of at least tripMinCalls calls in
// the window: slow must not mean dead, or one expensive query timing out
// on every replica would open the whole cluster. An HTTP error status
// (errPeerResponded; the retry layer masks those) and a call this
// process cancelled feed neither rule.
//
// Recovery. An open peer refuses calls for cooldown; then exactly one
// admitted real call is the probe. Success closes the peer and resets
// the window, failure re-opens it for another cooldown.
//
// Invariant: only a call whose outcome is reported through observe may
// be admitted. admit hands out the half-open probe slot, so a caller
// that only wants to know — the status plane, hedge selection, boot
// catch-up — uses state, which changes nothing. A slot whose holder
// never reports is reclaimed after a cooldown, as a backstop.
type peerHealth struct {
	cooldown time.Duration
	tripRate float64          // above 1 the rate rule never fires
	now      func() time.Time // time.Now; tests step a clock instead

	// mu guards the map only; each record has its own lock, so the hot
	// path (admit + observe on a known peer) takes mu for reading and
	// concurrent scatter workers do not serialise on the tracker.
	mu    sync.RWMutex
	peers map[string]*peerRecord
}

// peerRecord is one peer's breaker: the outcome window and the state.
type peerRecord struct {
	mu       sync.Mutex
	ok, fail [peerBuckets]int64
	bucketAt int64 // unix second the current bucket covers
	idx      int
	state    int
	openedAt time.Time
	probing  bool // the half-open probe slot is held
	probedAt time.Time
}

// newPeerHealth builds a tracker. cooldown <= 0 takes DefaultCooldown;
// tripRate 0 takes defaultTripRate and a negative one turns the rate
// rule off (dead-peer errors still open a peer).
func newPeerHealth(cooldown time.Duration, tripRate float64) *peerHealth {
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	switch {
	case tripRate == 0:
		tripRate = defaultTripRate
	case tripRate < 0:
		tripRate = 2 // unreachable
	}
	return &peerHealth{cooldown: cooldown, tripRate: tripRate, now: time.Now, peers: make(map[string]*peerRecord)}
}

// record returns (creating on first use) url's record.
func (h *peerHealth) record(url string) *peerRecord {
	h.mu.RLock()
	r := h.peers[url]
	h.mu.RUnlock()
	if r != nil {
		return r
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if r = h.peers[url]; r == nil {
		r = &peerRecord{}
		h.peers[url] = r
	}
	return r
}

// admit reports whether a call to url may proceed; in half-open it
// makes the caller the peer's one probe. The caller MUST report the
// call's outcome through observe.
func (h *peerHealth) admit(url string) bool {
	r := h.record(url)
	now := h.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.at(now, h.cooldown) {
	case peerClosed:
		return true
	case peerOpen:
		return false
	}
	if r.probing && now.Sub(r.probedAt) <= h.cooldown {
		return false
	}
	r.state, r.probing, r.probedAt = peerHalfOpen, true, now
	return true
}

// state reads url's state without changing it: an open peer whose
// cooldown has passed reads half-open (its next admitted call is the
// probe), and a peer never called reads closed.
func (h *peerHealth) state(url string) int {
	h.mu.RLock()
	r := h.peers[url]
	h.mu.RUnlock()
	if r == nil {
		return peerClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.at(h.now(), h.cooldown)
}

// observe reports the outcome of one call to url — an admitted one, or
// a hedge fired at a closed peer.
func (h *peerHealth) observe(url string, err error) {
	r := h.record(url)
	now := h.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advance(now)
	var ne net.Error
	switch {
	case err == nil:
		r.ok[r.idx]++
		if r.state != peerClosed {
			r.ok, r.fail = [peerBuckets]int64{}, [peerBuckets]int64{}
			r.ok[r.idx] = 1
			r.state, r.probing = peerClosed, false
		}
	case errors.Is(err, errPeerResponded) || errors.Is(err, context.Canceled):
		// No verdict, but the probe slot is free for the next call:
		// recovery proof is a round trip that actually succeeded.
		r.probing = false
	default:
		r.fail[r.idx]++
		// A deadline can surface without a Timeout() on the first
		// net.Error of the chain (url.Error over a wrapped ctx.Err()),
		// so it is checked by identity too.
		timeout := errors.Is(err, context.DeadlineExceeded) || errors.As(err, &ne) && ne.Timeout()
		if !timeout || r.state == peerHalfOpen || r.state == peerClosed && r.tripped(h.tripRate) {
			r.state, r.openedAt, r.probing = peerOpen, now, false
		}
	}
}

// observeReply is observe for a forwarded or client call's outcome: a
// peer that answered below 500 — a rejection or a garbled body included
// — proved it is up; an unreachable peer or a server failure is
// observed as the error it is.
func (h *peerHealth) observeReply(url string, rep reply, err error) {
	if rep.status != 0 && rep.status < 500 {
		err = nil
	}
	h.observe(url, err)
}

// snapshot names every known peer's state by URL (see state) and
// returns the worst of them, for /v1/status and the gauge.
func (h *peerHealth) snapshot() (map[string]string, int) {
	h.mu.RLock()
	urls := make([]string, 0, len(h.peers))
	for url := range h.peers {
		urls = append(urls, url)
	}
	h.mu.RUnlock()
	names := make(map[string]string, len(urls))
	worst := peerClosed
	for _, url := range urls {
		s := h.state(url)
		names[url] = peerStateNames[s]
		worst = max(worst, s)
	}
	return names, worst
}

// at is the state as of now: open past its cooldown reads half-open.
// Caller holds r.mu.
func (r *peerRecord) at(now time.Time, cooldown time.Duration) int {
	if r.state == peerOpen && now.Sub(r.openedAt) >= cooldown {
		return peerHalfOpen
	}
	return r.state
}

// advance rotates the window to cover now, zeroing skipped buckets.
// Caller holds r.mu.
func (r *peerRecord) advance(now time.Time) {
	sec := now.Unix()
	if r.bucketAt == 0 {
		r.bucketAt = sec
		return
	}
	for steps := min(sec-r.bucketAt, peerBuckets); steps > 0; steps-- {
		r.idx = (r.idx + 1) % peerBuckets
		r.ok[r.idx], r.fail[r.idx] = 0, 0
	}
	r.bucketAt = max(r.bucketAt, sec)
}

// tripped reports whether the window's failure share has reached rate
// over at least tripMinCalls calls. Caller holds r.mu.
func (r *peerRecord) tripped(rate float64) bool {
	var ok, fail int64
	for i := range r.ok {
		ok += r.ok[i]
		fail += r.fail[i]
	}
	total := ok + fail
	return total >= tripMinCalls && float64(fail)/float64(total) >= rate
}
