package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json that compare needs: each
// end-to-end metric's direction and regression bound.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest() (manifest, error) {
	var m manifest
	root, err := repoRoot()
	if err != nil {
		return m, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// spread is the middle of a set of runs of one metric on one workload.
type spread struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	RelIQR float64 `json:"rel_iqr"` // (q3 - q1) / median
	values []float64
	unit   string
}

func spreadOf(vals []float64, unit string) spread {
	q1, q2, q3 := quartiles(vals)
	s := spread{N: len(vals), Q1: q1, Median: q2, Q3: q3, values: vals, unit: unit}
	if q2 != 0 {
		s.RelIQR = (q3 - q1) / q2
	}
	return s
}

// groupRuns arranges the untraced runs of a -record file as
// workload -> metric -> values.
func groupRuns(path string) (map[string]map[string]spread, error) {
	recs, err := readRecords(path)
	if err != nil {
		return nil, err
	}
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range recs {
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s: %s seed %d failed its checks; it compares with nothing", path, r.Workload, r.Seed)
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, mv := range r.Result.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], mv.Value)
			units[name] = mv.Unit
		}
	}
	out := map[string]map[string]spread{}
	for w, byMetric := range vals {
		out[w] = map[string]spread{}
		for name, v := range byMetric {
			out[w][name] = spreadOf(v, units[name])
		}
	}
	return out, nil
}

// verdict judges side b against side a on one metric. rel is how much
// worse b's median is than a's, as a share of a's (negative: better).
//
//	unresolved  either side's own quartile spread exceeds the bound and
//	            the two sides' runs overlap: the data cannot tell
//	worse       b's median is worse by more than the bound
//	better      b's median is better by more than the bound
//	same        otherwise
func verdict(a, b spread, lowerBetter bool, bound float64) (v string, rel float64) {
	if a.Median != 0 {
		rel = (b.Median - a.Median) / a.Median
	}
	if !lowerBetter {
		rel = -rel
	}
	noisy := a.RelIQR > bound || b.RelIQR > bound
	if noisy && !separated(a.values, b.values) {
		return "unresolved", rel
	}
	switch {
	case rel > bound:
		return "worse", rel
	case rel < -bound:
		return "better", rel
	}
	return "same", rel
}

// separated reports whether every value of one side lies strictly
// beyond every value of the other.
func separated(a, b []float64) bool {
	minA, maxA := extent(a)
	minB, maxB := extent(b)
	return maxA < minB || maxB < minA
}

func extent(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// compareMain implements `bench compare a.json b.json`: per workload
// and end-to-end metric, both sides' medians and quartiles and the
// verdict on b against a. It exits 1 when any verdict is worse or
// unresolved, so an A/A comparison that does not read "same" fails.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <a.json> <b.json>   (files written with -record)")
		return 2
	}
	man, err := readManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, errA := groupRuns(args[0])
	b, errB := groupRuns(args[1])
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", errA, errB)
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta: q1 / median / q3 (n)\tb: q1 / median / q3 (n)\tb worse by\tbound\tverdict")
	bad := 0
	for _, w := range sortedKeys(a) {
		for _, m := range man.EndToEnd {
			sa, okA := a[w][m.Name]
			sb, okB := b[w][m.Name]
			if !okA || !okB {
				continue
			}
			v, rel := verdict(sa, sb, m.Better == "lower", m.Bound)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g / %.4g / %.4g (%d)\t%.4g / %.4g / %.4g (%d)\t%+.1f%%\t%.0f%%\t%s\n",
				w, m.Name, sa.unit, sa.Q1, sa.Median, sa.Q3, sa.N, sb.Q1, sb.Median, sb.Q3, sb.N,
				rel*100, m.Bound*100, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// summaryMain implements `bench summary runs.json`: medians and
// quartiles of every metric per workload, as JSON — one row of the
// trajectory under bench/trajectory/.
func summaryMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: bench summary <runs.json>   (a file written with -record)")
		return 2
	}
	g, err := groupRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench summary:", err)
		return 2
	}
	type row struct {
		Metric string `json:"metric"`
		Unit   string `json:"unit"`
		spread
	}
	out := map[string][]row{}
	for w, byMetric := range g {
		names := sortedKeys(byMetric)
		sort.SliceStable(names, func(i, j int) bool { return metricOrder(names[i]) < metricOrder(names[j]) })
		for _, n := range names {
			out[w] = append(out[w], row{Metric: n, Unit: byMetric[n].unit, spread: byMetric[n]})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench summary:", err)
		return 2
	}
	return 0
}

// metricOrder is a metric's position in the tables of metrics.go.
func metricOrder(name string) int {
	i := 0
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return i
			}
			i++
		}
	}
	return i
}
