package main

import (
	"context"
	"os"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"time"
)

// gcFloor is the smallest working heap the pacer sizes the garbage
// allowance on: the runtime's own minimum heap goal at GOGC=100.
const gcFloor = 4 << 20

// pacePeriod is how often the pacer re-reads the heap: ingest, partition
// installs and retires move the resident size, and a second is short
// against all three.
const pacePeriod = time.Second

// gcPercent is the GOGC percent that puts the heap goal at
//
//	resident + 2·max(live − resident, gcFloor)
//
// for a live heap of which resident bytes are column arrays: GOGC=100
// applied to the working heap alone. Go's default lets the heap grow by
// all of live before it collects, but the columns never become garbage,
// so an allowance sized on them is memory spent for nothing. The result
// is at most 100 and at least 1 (GOGC=0 would collect without pause).
// ok is false when the operator set GOGC or GOMEMLIMIT: the GC is then
// theirs to tune, and the pacer leaves it alone.
func gcPercent(getenv func(string) string, live, resident uint64) (percent int, ok bool) {
	if getenv("GOGC") != "" || getenv("GOMEMLIMIT") != "" {
		return 0, false
	}
	if live == 0 {
		return 100, true
	}
	working := uint64(gcFloor)
	if live > resident {
		working = max(working, live-resident)
	}
	return int(max(1, min(100, 100*working/live))), true
}

// paceGC keeps the process's GC percent at gcPercent of its live heap
// (as of the last collection) and resident(), re-evaluated every
// pacePeriod until ctx ends; the returned channel closes once it has
// stopped. It sets the percent once before returning. The setting is
// process-wide, so the process that owns the node owns the pacer; start
// it after the boot's garbage is freed, or the load's scratch would be
// collected at the tighter percent too.
func paceGC(ctx context.Context, resident func() uint64) <-chan struct{} {
	done := make(chan struct{})
	live := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	set := -1
	step := func() bool {
		rtmetrics.Read(live)
		p, ok := gcPercent(os.Getenv, live[0].Value.Uint64(), resident())
		if ok && p != set {
			debug.SetGCPercent(p)
			set = p
		}
		return ok
	}
	if !step() {
		close(done)
		return done
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(pacePeriod)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				step()
			}
		}
	}()
	return done
}
