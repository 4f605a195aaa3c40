package experiments

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// syntheticLatencies draws n per-query latencies around 100µs with a
// long-ish tail, deterministically.
func syntheticLatencies(seed int64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	lats := make([]time.Duration, n)
	for i := range lats {
		lats[i] = time.Duration(80_000 + rng.ExpFloat64()*20_000)
	}
	return lats
}

// scaled returns lats with every latency multiplied by f.
func scaled(lats []time.Duration, f float64) []time.Duration {
	out := make([]time.Duration, len(lats))
	for i, l := range lats {
		out[i] = time.Duration(math.Round(float64(l) * f))
	}
	return out
}

func TestPairedOverheadStatistic(t *testing.T) {
	const pairs = 2000
	lats := syntheticLatencies(1, pairs)

	if got := pairedOverhead(lats, append([]time.Duration(nil), lats...)); got != 0 {
		t.Errorf("identical sides read %v, want exactly 0", got)
	}

	// B uniformly 3% slower — A does each query in 97% of B's time, so B
	// serves 3% fewer queries per second — reads 3%: to rounding when
	// every query costs the same, and within 0.1 percentage point when
	// the cap clips B's slower tail harder than A's.
	flat := make([]time.Duration, pairs)
	for i := range flat {
		flat[i] = 100 * time.Microsecond
	}
	if got := pairedOverhead(scaled(flat, 0.97), flat); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("uniform 3%% slowdown, equal latencies, reads %.6f%%", 100*got)
	}
	if got := pairedOverhead(scaled(lats, 0.97), lats); math.Abs(got-0.03) > 0.001 {
		t.Errorf("uniform 3%% slowdown reads %.4f%%", 100*got)
	}

	// One 50ms stall on one side of one pair barely moves the reading.
	base := pairedOverhead(scaled(lats, 0.99), lats)
	for _, side := range []string{"A", "B"} {
		a, b := scaled(lats, 0.99), append([]time.Duration(nil), lats...)
		stalled := map[string][]time.Duration{"A": a, "B": b}[side]
		stalled[pairs/2] += 50 * time.Millisecond
		if got := pairedOverhead(a, b); math.Abs(got-base) >= 0.005 {
			t.Errorf("a 50ms stall on side %s moved the reading from %.3f%% to %.3f%%", side, 100*base, 100*got)
		}
	}
}

func TestPeriodicShare(t *testing.T) {
	busy := []time.Duration{2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond}
	if got := periodicShare(busy, 100*time.Millisecond); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("2ms busy per 100ms period charged %v, want 0.02", got)
	}
	// A tick descheduled midway does not set the charge.
	stalled := []time.Duration{2 * time.Millisecond, 9 * time.Millisecond, 2 * time.Millisecond}
	if got := periodicShare(stalled, 100*time.Millisecond); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("2ms busy per 100ms period with one 9ms tick charged %v, want 0.02", got)
	}
}

// TestMeasureOverheadGates drives the estimator end to end on synthetic
// sides: a side that spins a fixed extra time per query reads as
// overhead and fails its gate; periodic work is charged busy ÷ period.
func TestMeasureOverheadGates(t *testing.T) {
	spin := func(d time.Duration) func(int) error {
		return func(int) error {
			for start := time.Now(); time.Since(start) < d; {
			}
			return nil
		}
	}
	ov, err := measureOverhead(400, 2, 2, spin(20*time.Microsecond), spin(40*time.Microsecond), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ov.PairedPct < 25 || ov.Check() == nil {
		t.Errorf("a side twice as slow read %v and passed its gate: %v", ov, ov.Check())
	}
	ov, err = measureOverhead(400, 2, 100, spin(20*time.Microsecond), spin(20*time.Microsecond),
		&periodic{every: time.Millisecond, tick: func() { _ = spin(100 * time.Microsecond)(0) }})
	if err != nil {
		t.Fatal(err)
	}
	if ov.Period != time.Millisecond || ov.TickBusy < 100*time.Microsecond || ov.TickPct < 10 {
		t.Errorf("100µs of work per 1ms period charged %v", ov)
	}
}
