package metrics

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// PrometheusContentType is the content type of the text exposition
// format WriteRecorder emits.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Latency histogram exposition bounds: 2^10 ns (~1us) doubling to
// 2^34 ns (~17s); audit-error bounds: 2^16 err-units (~6.6e-5
// relative) doubling to 2^36 (~69).
const (
	latMinOctave = 10
	latMaxOctave = 34
	errMinOctave = 16
	errMaxOctave = 36
)

// WriteRecorder renders the recorder's full Prometheus exposition: every
// registry series as one HELP/TYPE/value family, then the labelled
// families — latency quantiles, real histograms (`_bucket`/`_sum`/
// `_count`) for every answer path and accuracy-audit key, per-tenant-
// class series and the SLO burn rates. Serving front-ends mount it on
// GET /v1/metrics so one scrape config covers single-node servers and
// every cluster member alike.
func (r *ServeRecorder) WriteRecorder(w io.Writer) error {
	for _, s := range r.Series() {
		if err := writeSeries(w, s.ExpoName(), s.Help, s.Kind.String(), s.Read()); err != nil {
			return err
		}
	}

	// Latency quantiles over the merged answer-path histograms.
	var all HistSnapshot
	for p := Path(0); p < NumPaths; p++ {
		all.Merge(r.paths[p].Snapshot())
	}
	if _, err := fmt.Fprintf(w,
		"# HELP sea_latency_seconds Query latency quantiles from the merged answer-path histograms.\n"+
			"# TYPE sea_latency_seconds gauge\n"+
			"sea_latency_seconds{quantile=\"0.5\"} %g\n"+
			"sea_latency_seconds{quantile=\"0.9\"} %g\n"+
			"sea_latency_seconds{quantile=\"0.99\"} %g\n"+
			"sea_latency_seconds{quantile=\"1\"} %g\n",
		quantileSeconds(all, 0.50), quantileSeconds(all, 0.90), quantileSeconds(all, 0.99),
		time.Duration(all.Max).Seconds()); err != nil {
		return err
	}

	// Per-path latency histograms.
	if _, err := fmt.Fprintf(w,
		"# HELP sea_path_latency_seconds Query latency by answer path.\n"+
			"# TYPE sea_path_latency_seconds histogram\n"); err != nil {
		return err
	}
	for p := Path(0); p < NumPaths; p++ {
		hs := r.paths[p].Snapshot()
		if hs.Count == 0 {
			continue
		}
		if err := writeHist(w, "sea_path_latency_seconds",
			Label("path", p.String()), hs, latMinOctave, latMaxOctave, 1e-9); err != nil {
			return err
		}
	}

	// Per-tenant-class admission and latency series.
	r.tenantMu.RLock()
	classes := make([]string, 0, len(r.tenants))
	for class := range r.tenants {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	stats := make([]*TenantStats, len(classes))
	for i, class := range classes {
		stats[i] = r.tenants[class]
	}
	r.tenantMu.RUnlock()
	if len(classes) > 0 {
		if _, err := fmt.Fprintf(w,
			"# HELP sea_tenant_queries_total Completed queries by tenant class.\n"+
				"# TYPE sea_tenant_queries_total counter\n"); err != nil {
			return err
		}
		for i, class := range classes {
			if _, err := fmt.Fprintf(w, "sea_tenant_queries_total{%s} %d\n", Label("class", class), stats[i].Queries.Load()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w,
			"# HELP sea_tenant_rejected_total Admission rejections by tenant class.\n"+
				"# TYPE sea_tenant_rejected_total counter\n"); err != nil {
			return err
		}
		for i, class := range classes {
			if _, err := fmt.Fprintf(w, "sea_tenant_rejected_total{%s} %d\n", Label("class", class), stats[i].Rejected.Load()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w,
			"# HELP sea_tenant_inflight Queued plus running queries by tenant class.\n"+
				"# TYPE sea_tenant_inflight gauge\n"); err != nil {
			return err
		}
		for i, class := range classes {
			if _, err := fmt.Fprintf(w, "sea_tenant_inflight{%s} %d\n", Label("class", class), stats[i].Inflight.Load()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w,
			"# HELP sea_tenant_latency_seconds Query latency (queue wait + execution) by tenant class.\n"+
				"# TYPE sea_tenant_latency_seconds histogram\n"); err != nil {
			return err
		}
		for i, class := range classes {
			hs := stats[i].Lat.Snapshot()
			if hs.Count == 0 {
				continue
			}
			if err := writeHist(w, "sea_tenant_latency_seconds",
				Label("class", class), hs, latMinOctave, latMaxOctave, 1e-9); err != nil {
				return err
			}
		}
	}

	// Accuracy-audit error histograms.
	if _, err := fmt.Fprintf(w,
		"# HELP sea_audit_error Predicted-vs-truth relative error of audited model answers.\n"+
			"# TYPE sea_audit_error histogram\n"); err != nil {
		return err
	}
	var histErr error
	r.audit.Hists(func(k AuditKey, h *Histogram) {
		if histErr != nil {
			return
		}
		hs := h.Snapshot()
		if hs.Count == 0 {
			return
		}
		labels := Label("agent", fmt.Sprint(k.Agent)) + "," +
			Label("agg", k.Agg) + "," + Label("source", k.Source)
		histErr = writeHist(w, "sea_audit_error", labels, hs, errMinOctave, errMaxOctave, 1/ErrScale)
	})
	if histErr != nil {
		return histErr
	}

	// SLO burn rates, when an engine is attached (nil-safe no-op
	// otherwise).
	return r.slo.Load().WritePrometheus(w)
}

// quantileSeconds is hs's q-quantile of nanosecond samples, in seconds
// (0 for an empty snapshot).
func quantileSeconds(hs HistSnapshot, q float64) float64 {
	if hs.Count == 0 {
		return 0
	}
	return time.Duration(hs.Quantile(q)).Seconds()
}

// writeHist emits one labeled histogram series set: cumulative
// `_bucket{le=...}` lines, `_sum` and `_count`. The caller emits the
// shared HELP/TYPE header once per metric name.
func writeHist(w io.Writer, name, labels string, hs HistSnapshot, minOct, maxOct int, scale float64) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, b := range hs.PromBuckets(minOct, maxOct, scale) {
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b.LE, b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, hs.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(hs.Sum)*scale); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, hs.Count)
	return err
}

func writeSeries(w io.Writer, name, help, kind string, v float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, kind, name, v)
	return err
}
