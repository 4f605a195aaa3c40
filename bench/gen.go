package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// opResult is what the generator keeps of one completed op.
type opResult struct {
	op   int           // index into the op sequence
	at   time.Duration // charged start, as an offset from the phase start
	lat  time.Duration // charged latency (see openLoop)
	late time.Duration // how long after its ideal start the op was sent
	ok   bool          // transport succeeded and the status was 2xx
	body []byte        // response body (a slice of the connection's arena)
}

// phase is one timed stretch of load and everything it recorded.
type phase struct {
	name    string
	span    time.Duration // planned length
	elapsed time.Duration // first due time to last send
	results []opResult
}

// conn is one client connection slot: a goroutine that sends its ops
// one after another. Each slot has its own transport, so it holds one
// keep-alive connection per server it talks to and never more than one
// request in flight.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
	arena  []byte
}

const arenaChunk = 1 << 20

func newConn() *conn {
	return &conn{client: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do posts body to url and returns the response body, kept in the
// slot's arena so the timed loop allocates no per-response buffer.
func (c *conn) do(url string, body []byte) ([]byte, bool) {
	resp, err := c.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false
	}
	// The arena grows by whole chunks, never by copying: a reallocation
	// of tens of MiB inside a timed request would be charged to the server.
	if len(c.arena)+c.buf.Len() > cap(c.arena) {
		c.arena = make([]byte, 0, max(arenaChunk, c.buf.Len()))
	}
	start := len(c.arena)
	c.arena = append(c.arena, c.buf.Bytes()...)
	return c.arena[start:len(c.arena):len(c.arena)], resp.StatusCode/100 == 2
}

// generator drives one op sequence at a set of servers.
type generator struct {
	ops   []op
	urls  []string // entry members; op i enters at urls[i % len(urls)]
	conns []*conn
	// sleep and now are time.Sleep and time.Now outside tests.
	sleep func(time.Duration)
	now   func() time.Time
}

func newGenerator(ops []op, urls []string, conns int) *generator {
	g := &generator{ops: ops, urls: urls, sleep: time.Sleep, now: time.Now}
	for i := 0; i < conns; i++ {
		g.conns = append(g.conns, newConn())
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.close()
	}
}

func (g *generator) target(i int) string {
	return g.urls[i%len(g.urls)] + g.ops[i].path()
}

// openLoop offers ops[first:first+n] on a fixed timetable: op k of the
// phase is due at start + k/rate and goes out on connection k mod
// len(conns), whatever became of the ops before it.
//
// Timing rule. A connection serves its ops in order, so each op has an
// ideal start: its due time, or the ideal completion of the op before
// it on that connection if that is later. The op is charged from its
// due time to its ideal completion, where the ideal completion is the
// ideal start plus the time the request actually took. A stall in the
// system therefore delays every op queued behind it (no coordinated
// omission), while a timer that wakes the generator late delays
// nothing: that gap is the op's lateness, reported on its own.
func (g *generator) openLoop(name string, first, n int, rate float64) phase {
	ph := phase{name: name, span: time.Duration(float64(n) / rate * float64(time.Second))}
	nc := len(g.conns)
	per := make([][]opResult, nc)
	lastSend := make([]time.Time, nc)
	start := g.now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for slot := 0; slot < nc; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			c := g.conns[slot]
			out := make([]opResult, 0, n/nc+1)
			var idealDone time.Time
			for k := slot; k < n; k += nc {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := due.Sub(g.now()); d > 0 {
					g.sleep(d)
				}
				idealStart := due
				if idealDone.After(due) {
					idealStart = idealDone
				}
				send := g.now()
				body, ok := c.do(g.target(first+k), g.ops[first+k].body)
				took := g.now().Sub(send)
				idealDone = idealStart.Add(took)
				late := send.Sub(idealStart)
				if late < 0 {
					late = 0
				}
				out = append(out, opResult{
					op: first + k, at: due.Sub(start), lat: idealDone.Sub(due),
					late: late, ok: ok, body: body,
				})
				lastSend[slot] = send
			}
			per[slot] = out
		}(slot)
	}
	wg.Wait()
	var end time.Time
	for _, t := range lastSend {
		if t.After(end) {
			end = t
		}
	}
	ph.elapsed = end.Sub(start)
	ph.results = mergeResults(per)
	return ph
}

// closedLoop keeps every connection busy for span: each sends its next
// op as soon as the previous one completes. Connection s takes ops
// first+s, first+s+len(conns), ... of at most n.
func (g *generator) closedLoop(name string, first, n int, span time.Duration) phase {
	ph := phase{name: name, span: span}
	nc := len(g.conns)
	per := make([][]opResult, nc)
	start := g.now()
	var wg sync.WaitGroup
	for slot := 0; slot < nc; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			c := g.conns[slot]
			var out []opResult
			for k := slot; k < n; k += nc {
				send := g.now()
				if send.Sub(start) >= span {
					break
				}
				body, ok := c.do(g.target(first+k), g.ops[first+k].body)
				out = append(out, opResult{
					op: first + k, at: send.Sub(start), lat: g.now().Sub(send),
					ok: ok, body: body,
				})
			}
			per[slot] = out
		}(slot)
	}
	wg.Wait()
	ph.elapsed = g.now().Sub(start)
	ph.results = mergeResults(per)
	return ph
}

func mergeResults(per [][]opResult) []opResult {
	var all []opResult
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].op < all[j].op })
	return all
}

// achieved is the share of the timetable the generator kept up with.
func (ph phase) achieved() float64 {
	if ph.elapsed <= ph.span {
		return 1
	}
	return float64(ph.span) / float64(ph.elapsed)
}

// latencies returns the charged latencies in ms of the phase's
// successful ops of one kind, on the phase clock.
func (ph phase) latencies(ops []op, ingest bool) []timed {
	var out []timed
	for _, r := range ph.results {
		if r.ok && ops[r.op].ingest == ingest {
			out = append(out, timed{at: r.at, v: ms(r.lat)})
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lateP99 is the 99th percentile of generator lateness over phases, in ms.
func lateP99(phases ...phase) (float64, error) {
	var late []float64
	for _, ph := range phases {
		for _, r := range ph.results {
			late = append(late, ms(r.late))
		}
	}
	sort.Float64s(late)
	v, err := percentile(late, 0.99)
	if err != nil {
		return 0, fmt.Errorf("generator lateness: %w", err)
	}
	return v, nil
}
