package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestCountAbove(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 1000) // 1k..1000k, uniform
	}
	hs := h.Snapshot()
	if got := hs.CountAbove(-1); got != 1000 {
		t.Fatalf("CountAbove(-1) = %d, want 1000", got)
	}
	if got := hs.CountAbove(hs.Max); got != 0 {
		t.Fatalf("CountAbove(max) = %d, want 0", got)
	}
	// Half the observations exceed the median; allow bucket-width slop.
	got := hs.CountAbove(500_000)
	if got < 450 || got > 550 {
		t.Fatalf("CountAbove(median) = %d, want ~500", got)
	}
	if empty := (HistSnapshot{}).CountAbove(10); empty != 0 {
		t.Fatalf("empty CountAbove = %d, want 0", empty)
	}
}

// driveSLO records queries for two classes — "fast" inside the
// objective, "slow" mostly outside it — and ticks the engine with a
// synthetic clock.
func driveSLO(t *testing.T, cfg SLOConfig) (*ServeRecorder, *SLOEngine) {
	t.Helper()
	rec := NewServeRecorder()
	eng := NewSLOEngine(rec, cfg)
	base := time.Unix(1_700_000_000, 0)
	eng.Tick(base)
	for i := 0; i < 100; i++ {
		rec.Tenant("fast").Observe(1 * time.Millisecond)
		// Half the slow class's queries blow the 10ms objective:
		// bad fraction 0.5 against a 0.01 budget = burn rate ~50.
		if i%2 == 0 {
			rec.Tenant("slow").Observe(100 * time.Millisecond)
		} else {
			rec.Tenant("slow").Observe(1 * time.Millisecond)
		}
	}
	eng.Tick(base.Add(30 * time.Second))
	return rec, eng
}

func TestSLOEngineStates(t *testing.T) {
	cfg := SLOConfig{
		LatencyObjective: 10 * time.Millisecond,
		LatencyBudget:    0.01,
		FastWindow:       time.Minute,
		SlowWindow:       30 * time.Minute,
	}
	_, eng := driveSLO(t, cfg)
	states := eng.States()
	if len(states) != 2 {
		t.Fatalf("got %d states, want 2: %+v", len(states), states)
	}
	byClass := map[string]SLOClassState{}
	for _, st := range states {
		byClass[st.Class] = st
	}
	if st := byClass["fast"]; st.State != "ok" || st.FastBurn != 0 {
		t.Fatalf("fast class = %+v, want ok with zero burn", st)
	}
	st := byClass["slow"]
	if st.State != "critical" {
		t.Fatalf("slow class state = %q (burn fast=%g slow=%g), want critical",
			st.State, st.FastBurn, st.SlowBurn)
	}
	if st.FastBurn < 30 || st.FastBurn > 70 {
		t.Fatalf("slow class fast burn = %g, want ~50", st.FastBurn)
	}
}

func TestSLOEngineRejectedBurn(t *testing.T) {
	rec := NewServeRecorder()
	eng := NewSLOEngine(rec, SLOConfig{
		LatencyObjective: time.Second,
		ErrorBudget:      0.001,
	})
	base := time.Unix(1_700_000_000, 0)
	eng.Tick(base)
	for i := 0; i < 90; i++ {
		rec.Tenant("busy").Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		rec.TenantReject("busy")
	}
	eng.Tick(base.Add(10 * time.Second))
	states := eng.States()
	if len(states) != 1 || states[0].State != "critical" {
		t.Fatalf("states = %+v, want one critical class (10%% rejects vs 0.1%% budget)", states)
	}
}

func TestSLOEngineNilSafe(t *testing.T) {
	var eng *SLOEngine
	eng.Tick(time.Now())
	eng.Start()
	eng.Stop()
	if s := eng.States(); s != nil {
		t.Fatalf("nil engine States = %+v", s)
	}
	if f, s := eng.WorstBurn(); f != 0 || s != 0 || eng.WorstState() != 0 {
		t.Fatalf("nil engine worst = %g/%g state %d", f, s, eng.WorstState())
	}
}

func TestSLOPrometheusExport(t *testing.T) {
	rec, eng := driveSLO(t, SLOConfig{LatencyObjective: 10 * time.Millisecond})
	rec.SetSLO(eng)
	var b strings.Builder
	if err := rec.WriteRecorder(&b); err != nil {
		t.Fatalf("WriteRecorder: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`sea_slo_burn_rate{class="fast",window="fast"} 0`,
		`sea_slo_burn_rate{class="slow",window="fast"} `,
		`sea_slo_state{class="fast"} 0`,
		`sea_slo_state{class="slow"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSLOEngineStartStop(t *testing.T) {
	rec := NewServeRecorder()
	eng := NewSLOEngine(rec, SLOConfig{Interval: time.Millisecond})
	rec.Tenant("c").Observe(time.Millisecond)
	eng.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(eng.States()) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	eng.Stop()
	eng.Stop() // idempotent
	if len(eng.States()) == 0 {
		t.Fatal("background sampler produced no states")
	}
}
