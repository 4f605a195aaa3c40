package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "empty"},
		{"client", "client"},
		{"a-b_c.d/e", "a-b_c.d/e"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"tab\there", "tab_here"},
		{"bell\x07", "bell_"},
	}
	for _, c := range cases {
		if got := LabelValue(c.in); got != c.want {
			t.Errorf("LabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestPrometheusLabelInjection feeds a hostile tenant id that, with the
// old %q interpolation, could smuggle fabricated series into the
// exposition. The sanitized output must keep the whole id inside one
// quoted label value.
func TestPrometheusLabelInjection(t *testing.T) {
	r := NewServeRecorder()
	hostile := "evil\"} 1\nsea_fake_metric{x=\"y"
	r.Tenant(ClassOf(hostile)).Observe(5 * time.Millisecond)
	r.Tenant("good").Observe(time.Millisecond)

	var b strings.Builder
	if err := r.WriteRecorder(&b); err != nil {
		t.Fatalf("WriteRecorder: %v", err)
	}
	out := b.String()
	// The hostile id stays inside a label value, so no exposition LINE
	// may start with the fabricated metric name (the raw substring does
	// appear — escaped — inside the quoted value).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sea_fake") {
			t.Fatalf("injected line escaped the label value: %q", line)
		}
	}
	if !strings.Contains(out, `class="evil\"} 1\nsea_fake_metric{x=\"y"`) {
		t.Fatalf("hostile class not present in escaped form:\n%s", out)
	}
	// Every non-comment line must be a bare "name[{labels}] value" —
	// quotes only balanced inside label braces.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, "\"")%2 != 0 {
			t.Fatalf("unbalanced quotes in exposition line: %q", line)
		}
	}
}
