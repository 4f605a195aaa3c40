package serve

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// ErrFallbackPanic is returned (to the leader and every parked waiter)
// when an oracle fallback panics mid-flight. Converting the panic into an
// error keeps the serving goroutines alive and, critically, guarantees the
// flight is removed from the group: before this, a panicking fallback
// left its call registered forever, so every later query with the same
// key parked behind a flight that could never finish.
var ErrFallbackPanic = errors.New("serve: fallback panicked")

// group is a minimal single-flight: concurrent do calls with the same
// key run fn once and share its result. (Modelled on
// golang.org/x/sync/singleflight, inlined so the build stays
// dependency-free.) join lets callers test for an active flight without
// starting one — the Pool uses it to park behind an in-progress oracle
// fallback before touching the agent's locks at all.
type group struct {
	mu sync.Mutex
	m  map[string]*call
}

type call struct {
	wg     sync.WaitGroup
	ans    core.Answer
	err    error
	joined int // waiters sharing this flight (guarded by group.mu)
}

// join returns the active flight for key, registering the caller as a
// waiter, or nil when no flight is in progress. The caller must
// c.wg.Wait() before reading ans/err.
func (g *group) join(key string) *call {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.m[key]
	if c != nil {
		c.joined++
	}
	return c
}

// joinBytes is join with a byte-slice key: the map access through
// string(key) does not allocate, so the no-flight common case (every
// prediction) costs nothing on the heap.
func (g *group) joinBytes(key []byte) *call {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.m[string(key)]
	if c != nil {
		c.joined++
	}
	return c
}

// waiting reports how many callers are parked on key's active flight.
func (g *group) waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.m[key]; c != nil {
		return c.joined
	}
	return 0
}

// do runs fn once per key at a time; duplicate concurrent callers share
// the leader's result and report shared=true.
func (g *group) do(key string, fn func() (core.Answer, error)) (ans core.Answer, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		c.joined++
		g.mu.Unlock()
		c.wg.Wait()
		return c.ans, true, c.err
	}
	c := new(call)
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// The flight MUST be unregistered and its waiters woken no matter how
	// fn exits: a failed (or panicking) fallback's error is delivered to
	// every parked caller exactly once and is never left behind for later
	// callers of the same key — the next query with this key starts a
	// fresh flight.
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("%w: %v", ErrFallbackPanic, r)
			}
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			c.wg.Done()
		}()
		c.ans, c.err = fn()
	}()
	return c.ans, false, c.err
}
