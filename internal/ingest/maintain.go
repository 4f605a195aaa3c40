package ingest

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// MaintainerConfig tunes the drift maintainer. Zero values take the
// defaults noted per field.
type MaintainerConfig struct {
	// Interval is the background poll period (default 500ms).
	Interval time.Duration
	// RecentWindow is how many recently served queries are remembered
	// as the rebuild training sample (default 512).
	RecentWindow int
	// MinRecorded blocks rebuilds until at least this many queries have
	// been recorded — re-quantising from a tiny sample would shrink
	// coverage instead of fixing it (default 64).
	MinRecorded int
	// RebuildUnattributed triggers a rebuild once this many absorbed
	// rows since the last check fell outside every quantum: the data is
	// growing somewhere the learned query space does not cover
	// (default 500).
	RebuildUnattributed int64
	// RebuildInvalidations triggers a rebuild once this many
	// drift-budget invalidation events have fired since the last check:
	// the existing quanta are being churned faster than probation can
	// re-earn trust (default 16).
	RebuildInvalidations int64
	// OnRebuild, when set, observes every completed rebuild attempt
	// (serving layers hook their metrics recorder here).
	OnRebuild func(err error)
}

func (c MaintainerConfig) withDefaults() MaintainerConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.RecentWindow <= 0 {
		c.RecentWindow = 512
	}
	if c.MinRecorded <= 0 {
		c.MinRecorded = 64
	}
	if c.RebuildUnattributed <= 0 {
		c.RebuildUnattributed = 500
	}
	if c.RebuildInvalidations <= 0 {
		c.RebuildInvalidations = 16
	}
	return c
}

// Maintainer watches one live agent's ingest pressure (core.Agent's
// drift accounting) and re-quantises it in the background when the
// incremental path stops being enough: the rebuild trains a shadow
// agent on the recently served queries, then swaps it in with one brief
// write-locked restore. Reads keep flowing against the old models for
// the whole retrain (double buffering) — the serving layer never blocks
// on model maintenance.
type Maintainer struct {
	ag  *core.Agent
	cfg MaintainerConfig

	mu         sync.Mutex
	recent     []query.Query
	pos        int
	full       bool
	lastUnattr int64
	lastInval  int64
	rebuilds   int64
	stop       chan struct{}
	done       chan struct{}
}

// NewMaintainer builds a maintainer over ag. Call Record from the
// serving path and Start to run the background loop.
func NewMaintainer(ag *core.Agent, cfg MaintainerConfig) *Maintainer {
	return &Maintainer{ag: ag, cfg: cfg.withDefaults()}
}

// Record remembers one served query as rebuild training material. It is
// cheap (one mutex push) and safe for concurrent use.
func (m *Maintainer) Record(q query.Query) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.recent) < m.cfg.RecentWindow {
		m.recent = append(m.recent, q)
		return
	}
	m.recent[m.pos] = q
	m.pos = (m.pos + 1) % len(m.recent)
	m.full = true
}

// recorded returns the remembered queries in arrival order.
func (m *Maintainer) recorded() []query.Query {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.full {
		return append([]query.Query(nil), m.recent...)
	}
	out := make([]query.Query, 0, len(m.recent))
	out = append(out, m.recent[m.pos:]...)
	out = append(out, m.recent[:m.pos]...)
	return out
}

// CheckNow evaluates the rebuild triggers immediately and rebuilds when
// one fires. It reports whether a rebuild ran and its error (if any).
func (m *Maintainer) CheckNow() (bool, error) {
	drift := m.ag.Drift()
	m.mu.Lock()
	due := drift.Unattributed-m.lastUnattr >= m.cfg.RebuildUnattributed ||
		drift.InvalidatedQuanta-m.lastInval >= m.cfg.RebuildInvalidations
	n := len(m.recent)
	m.mu.Unlock()
	if !due || n < m.cfg.MinRecorded {
		return false, nil
	}
	err := m.ag.Rebuild(m.recorded())
	m.mu.Lock()
	m.lastUnattr = drift.Unattributed
	m.lastInval = drift.InvalidatedQuanta
	if err == nil {
		m.rebuilds++
	}
	m.mu.Unlock()
	if m.cfg.OnRebuild != nil {
		m.cfg.OnRebuild(err)
	}
	return true, err
}

// Start launches the background poll loop (idempotent).
func (m *Maintainer) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	m.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.CheckNow()
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit (idempotent;
// a never-started maintainer stops trivially).
func (m *Maintainer) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Rebuilds returns how many background rebuilds have completed.
func (m *Maintainer) Rebuilds() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rebuilds
}
