package main

import "testing"

// TestGCPercent pins the pacing rule: GOGC=100 on the working heap,
// floored at gcFloor, capped at 100, never 0, and off when the operator
// set GOGC or GOMEMLIMIT.
func TestGCPercent(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name           string
		env            map[string]string
		live, resident uint64
		want           int // 0: the pacer leaves the GC alone
	}{
		{"no columns", nil, 40 * mib, 0, 100},
		{"working heap dominates", nil, 40 * mib, 2 * mib, 95},
		{"live heap within the floor", nil, 4 * mib, 1 * mib, 100},
		{"nothing live yet", nil, 0, 0, 100},
		// exact-3n n2 after boot: 34.2 MB live, 33.6 MB of it columns.
		{"data dominates: the floor sets it", nil, 34_200_000, 33_600_000, 100 * gcFloor / 34_200_000},
		{"data dominates, working above the floor", nil, 100 * mib, 80 * mib, 20},
		{"columns counted past the last collection", nil, 50 * mib, 60 * mib, 100 * gcFloor / (50 * mib)},
		{"never 0", nil, 1 << 40, 1<<40 - mib, 1},
		{"GOGC set", map[string]string{"GOGC": "100"}, 100 * mib, 99 * mib, 0},
		{"GOGC off", map[string]string{"GOGC": "off"}, 100 * mib, 99 * mib, 0},
		{"GOMEMLIMIT set", map[string]string{"GOMEMLIMIT": "1GiB"}, 100 * mib, 99 * mib, 0},
	} {
		got, ok := gcPercent(func(k string) string { return c.env[k] }, c.live, c.resident)
		if !ok {
			got = 0
		}
		if got != c.want || ok != (c.want != 0) {
			t.Errorf("%s: gcPercent(live %d, resident %d) = %d, %v; want %d",
				c.name, c.live, c.resident, got, ok, c.want)
		}
	}
	if p := 100 * gcFloor / 34_200_000; p != 12 {
		t.Fatalf("the exact-3n case reads %d%%, want 12%%", p)
	}
}
