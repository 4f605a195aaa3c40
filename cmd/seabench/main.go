// Command seabench runs the experiment suite (E1-E12, E15, E18-E22 and
// ablations A1-A5; DESIGN.md's per-experiment index says what each one
// reproduces) at configurable scale and prints one table per experiment.
// Metrics are virtual simulator units (see internal/metrics), except
// E15 (live data plane), E18 (tracing overhead + accuracy audit), E19
// (cluster introspection), E20 (flight recorder), E21 (chaos
// resilience) and E22 (elastic membership), which measure real
// wall-clock behaviour. E18-E22 each gate an overhead with the one
// paired estimator (internal/experiments, measureOverhead): a run whose
// reading exceeds the experiment's bound exits non-zero. The serving
// system's end-to-end performance is measured by bench/, not here; its
// rows are kept in bench/trajectory/.
//
// Usage:
//
//	seabench [-scale smoke|small|paper] [-only E4]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scale := flag.String("scale", "small", "experiment scale: smoke | small | paper")
	only := flag.String("only", "", "run only the named experiment (e.g. E4)")
	flag.Parse()
	switch *scale {
	case "smoke", "small", "paper":
	default:
		fmt.Fprintf(os.Stderr, "seabench: unknown -scale %q (want smoke, small or paper)\n", *scale)
		os.Exit(2)
	}
	if err := run(*scale, *only); err != nil {
		fmt.Fprintln(os.Stderr, "seabench:", err)
		os.Exit(1)
	}
}

func run(scale, only string) error {
	big := scale == "paper"
	smoke := scale == "smoke"
	pick := func(small, paper int) int {
		if big {
			return paper
		}
		if smoke {
			// Smoke mode quarters the size knobs (floored so every
			// experiment still has enough data to run): CI runs the
			// gated experiments at this scale on every push.
			if small >= 4_000 {
				return small / 4
			}
			if small >= 40 {
				return small / 2
			}
		}
		return small
	}
	want := func(name string) bool {
		return only == "" || strings.EqualFold(only, name)
	}

	if want("E1") {
		var rows []experiments.E1Row
		for _, n := range []int{pick(10_000, 20_000), pick(50_000, 100_000), pick(0, 1_000_000)} {
			if n == 0 {
				continue
			}
			r, err := experiments.E1DatalessVsBDAS(n, 16, 300, 200)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println("== E1: data-less (Fig.2) vs traditional BDAS (Fig.1), COUNT queries ==")
		fmt.Println("rows        bdas_lat      sea_lat   speedup  pred_rate  bdas_rows    sea_rows   $ratio")
		for _, r := range rows {
			fmt.Printf("%-9d %11v %12v %8.0fx %9.2f %11d %11d %7.0fx\n",
				r.Rows, r.BDASMeanLatency, r.SEAMeanLatency, r.SpeedupX,
				r.PredictionRate, r.BDASRowsRead, r.SEARowsRead,
				r.BDASDollars/max(r.SEADollars, 1e-12))
		}
		fmt.Println()
	}

	if want("E2") {
		var rows []experiments.E2Row
		for _, tr := range []int{150, 300, 600} {
			r, err := experiments.E2CountAccuracy(pick(10_000, 20_000), tr, 200, 0.05)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println("== E2: COUNT accuracy & cost — SEA agent vs BlinkDB-style AQP ==")
		fmt.Println("training  sea_mape  aqp_mape  sea_rows/q  aqp_rows/q  exact_rows/q  pred_rate  sample_KB")
		for _, r := range rows {
			fmt.Printf("%-9d %8.3f %9.3f %11.0f %11.0f %13.0f %10.2f %10d\n",
				r.Training, r.SEAMAPE, r.AQPMAPE, r.SEARowsPerQ, r.AQPRowsPerQ,
				r.ExactRowsPerQ, r.PredictionRate, r.AQPSampleBytes/1024)
		}
		fmt.Println()
	}

	if want("E3") {
		r, err := experiments.E3AvgRegression(pick(10_000, 20_000), 300, 150)
		if err != nil {
			return err
		}
		fmt.Println("== E3: data-less AVG / regression-coefficient queries ==")
		fmt.Printf("avg_mape=%.3f  slope_mae=%.3f (true slope 2)  corr_mae=%.3f  pred_rate=%.2f\n\n",
			r.AvgMAPE, r.SlopeMAE, r.CorrMAE, r.PredictionRate)
	}

	if want("E4") {
		var rows []experiments.E4Row
		for _, n := range []int{pick(10_000, 100_000), pick(50_000, 1_000_000)} {
			for _, k := range []int{1, 10, 100} {
				r, err := experiments.E4RankJoin(n, k)
				if err != nil {
					return err
				}
				rows = append(rows, r)
			}
		}
		fmt.Println("== E4: top-K rank join — MapReduce vs statistical-index threshold (C2) ==")
		fmt.Println("rows      k    mr_time        th_time     speedup   row_ratio  byte_ratio   $mr/$th")
		for _, r := range rows {
			fmt.Printf("%-8d %3d %10v %14v %8.0fx %10.1fx %10.0fx %8.0fx\n",
				r.Rows, r.K, r.MRTime, r.ThresholdTime, r.SpeedupX,
				r.RowRatioX, r.ByteRatioX, r.MRDollars/max(r.THDollars, 1e-12))
		}
		fmt.Println()
	}

	if want("E5") {
		var rows []experiments.E5Row
		for _, n := range []int{pick(10_000, 100_000), pick(50_000, 1_000_000)} {
			for _, k := range []int{1, 10, 100} {
				r, err := experiments.E5KNN(n, k, 10)
				if err != nil {
					return err
				}
				rows = append(rows, r)
			}
		}
		fmt.Println("== E5: kNN — full scan vs grid-indexed coordinator-cohort (C3) ==")
		fmt.Println("rows      k    scan_time     idx_time    speedup   row_ratio")
		for _, r := range rows {
			fmt.Printf("%-8d %3d %11v %12v %8.0fx %10.0fx\n",
				r.Rows, r.K, r.ScanTime, r.IndexedTime, r.SpeedupX, r.RowRatioX)
		}
		fmt.Println()
	}

	if want("E6") {
		reps := []float64{0.6, 0.9}
		var rows []experiments.E6Row
		for _, rep := range reps {
			r, err := experiments.E6SubgraphCache(pick(200, 1000), pick(100, 300), rep)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println("== E6: subgraph queries — no cache vs semantic cache (C4) ==")
		fmt.Println("repeat   nocache_time   cache_time   speedup  exact  sub  super")
		for i, r := range rows {
			fmt.Printf("%-7.0f%% %11v %12v %8.1fx %6d %4d %6d\n",
				reps[i]*100, r.NoCacheTime, r.CacheTime, r.SpeedupX,
				r.ExactHits, r.SubHits, r.SuperHits)
		}
		fmt.Println()
	}

	if want("E7") {
		var rows []experiments.E7Row
		for _, n := range []int{pick(5_000, 20_000), pick(10_000, 50_000)} {
			r, err := experiments.E7Imputation(n)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Println("== E7: missing-value imputation — all-pairs vs centroid-routed (C5) ==")
		fmt.Println("rows      full_time    centroid_time   speedup   full_rmse  cent_rmse")
		for _, r := range rows {
			fmt.Printf("%-8d %11v %14v %8.0fx %10.2f %10.2f\n",
				r.Rows, r.FullTime, r.CentroidTime, r.SpeedupX, r.FullRMSE, r.CentroidRMSE)
		}
		fmt.Println()
	}

	if want("E8") {
		r, err := experiments.E8Optimizer(pick(5_000, 20_000))
		if err != nil {
			return err
		}
		fmt.Println("== E8: learned paradigm selection (C6) ==")
		fmt.Printf("accuracy=%.2f  regret: learned=%.4fs always-mr=%.4fs always-cc=%.4fs  best-inference-model=%s\n\n",
			r.Accuracy, r.LearnedRegret, r.AlwaysMRRegret, r.AlwaysCCRegret, r.BestModelFamily)
	}

	if want("E9") {
		r, err := experiments.E9Explanations(pick(12_000, 20_000))
		if err != nil {
			return err
		}
		fmt.Println("== E9: query-answer explanations (C7) ==")
		fmt.Printf("explained=%.0f%%  fidelity_r2=%.2f  fidelity_mape=%.3f  queries_saved=%d/%d\n\n",
			r.ExplainedFrac*100, r.MeanR2, r.MeanMAPE, r.QueriesSaved, r.QueriesAsked)
	}

	if want("E10") {
		r, err := experiments.E10Geo(pick(10_000, 20_000), 400, 300)
		if err != nil {
			return err
		}
		fmt.Println("== E10: geo-distributed SEA (Fig.3, C8) ==")
		fmt.Printf("wan_savings=%.0fx  local_rate=%.2f  p50=%v  p95=%v  (all-to-core p50=%v)  model_ship=%dB\n\n",
			r.WANSavingsX, r.LocalRate, r.P50, r.P95, r.AllToCore50, r.ModelShipBytes)
	}

	if want("E11") {
		r, err := experiments.E11Maintenance(pick(10_000, 20_000))
		if err != nil {
			return err
		}
		fmt.Println("== E11: model maintenance under drift and updates (C9) ==")
		fmt.Printf("pre_drift_mape=%.3f  post_drift_mape=%.3f  recovered_mape=%.3f  post_update_exact=%d/20  recovered_pred_rate=%.2f\n\n",
			r.PreDriftMAPE, r.PostDriftMAPE, r.RecoveredMAPE, r.PostUpdateExact, r.RecoveredPredRate)
	}

	if want("E12") {
		r, err := experiments.E12Polystore(pick(2_000, 8_000))
		if err != nil {
			return err
		}
		fmt.Println("== E12: polystore strategies (C10) ==")
		fmt.Printf("bytes: ship-data=%d ship-pairs=%d ship-model=%d   abs_err: pairs=%.4f model=%.4f\n\n",
			r.ShipDataBytes, r.ShipPairsBytes, r.ShipModelBytes, r.ShipPairsErr, r.ShipModelErr)
	}

	if want("E15") {
		dir, err := os.MkdirTemp("", "seabench-e15-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		// 3 nodes, kill-and-recover on: the row carries accuracy under
		// drift, read latency under ingest, and the durability verdict.
		r, err := experiments.E15LiveIngest(pick(10_000, 20_000), 3,
			pick(8, 16), pick(100, 300), 300, pick(10, 30), pick(200, 500), dir, true)
		if err != nil {
			return err
		}
		fmt.Println("== E15: live data plane (ingest + drift maintenance + kill/replay recovery) ==")
		js, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		fmt.Println()
	}

	if want("E18") {
		// Observability: tracing overhead at 1-in-100 sampling, the
		// shadow audit's MAPE vs ground truth, and the stitched
		// multi-node span tree of one forced cross-shard trace.
		r, err := experiments.E18TraceOverhead(pick(10_000, 20_000), 300,
			pick(400_000, 400_000), 100)
		if err != nil {
			return err
		}
		fmt.Println("== E18: query-path tracing overhead + continuous accuracy audit ==")
		fmt.Printf("overhead: %v sampled=%d\n", r.Overhead, r.SampledTraces)
		fmt.Printf("trace: spans=%d nodes=%d partial_rpcs=%d  audit: samples=%d mape=%.4f truth=%.4f  slow_logged=%d\n\n",
			r.TraceSpans, r.TraceNodes, r.PartialRPCSpans,
			r.AuditSamples, r.AuditMAPE, r.TruthMAPE, r.SlowLogged)
		if err := r.Overhead.Check(); err != nil {
			return fmt.Errorf("E18: %w", err)
		}
	}

	if want("E19") {
		// Cluster introspection: a replica killed mid-ingest must show a
		// critical finding, then nonzero replication lag after a cold
		// revive, then a clean report after catch-up; plus what logging
		// and runtime sampling cost at serving speed.
		r, err := experiments.E19Introspection(pick(10_000, 20_000), 300,
			pick(400_000, 400_000))
		if err != nil {
			return err
		}
		fmt.Println("== E19: cluster introspection plane (replication lag, findings, obs overhead) ==")
		fmt.Printf("overhead: %v log_lines=%d dropped=%d\n", r.Overhead, r.LogLines, r.LogDropped)
		fmt.Printf("narrative: victim=%s down_critical=%d lag: parts=%d peak=%d caught_up=%v\n\n",
			r.Victim, r.DownCritical, r.LagParts, r.LagPeak, r.CaughtUp)
		if err := r.Overhead.Check(); err != nil {
			return fmt.Errorf("E19: %w", err)
		}
	}

	if want("E20") {
		// Flight recorder: sampling overhead at an aggressive 100ms
		// period, then the induced-overload narrative — anomaly fired,
		// SLO critical, exactly one bundle per cooldown window, latency
		// ramp queryable at both history resolutions.
		r, err := experiments.E20FlightRecorder(pick(10_000, 20_000), 300,
			pick(400_000, 400_000))
		if err != nil {
			return err
		}
		fmt.Println("== E20: flight recorder (history rings, anomaly detection, triggered bundles) ==")
		fmt.Printf("overhead: %v series=%d\n", r.Overhead, r.Series)
		fmt.Printf("narrative: anomaly=%s z=%.1f slo_state=%d triggers=%d/%d suppressed=%d bundle_files=%d ramp=%.1fx hi=%d lo=%d exemplar=%s\n\n",
			r.AnomalyMetric, r.AnomalyZ, r.SLOState,
			r.TriggersFirstWindow, r.Triggers, r.Suppressed,
			r.BundleFiles, r.RampRatio, r.HiPoints, r.LoPoints, r.ExemplarTraceID)
		if err := r.Overhead.Check(); err != nil {
			return fmt.Errorf("E20: %w", err)
		}
	}

	if want("E21") {
		// Chaos resilience: the hardened RPC plane's overhead with chaos
		// disarmed, then the armed narrative — blackholed + slow/flaky
		// peers, zero client-visible errors, honest degraded coverage,
		// breaker opens and re-closes after the rules clear.
		r, err := experiments.E21ChaosResilience(pick(8_000, 20_000),
			pick(4, 8), pick(4_000, 4_000))
		if err != nil {
			return err
		}
		fmt.Println("== E21: chaos resilience (deadlines, retries, breakers, hedges, degradation) ==")
		fmt.Printf("overhead: %v hedges=%d\n", r.Overhead, r.Hedges)
		fmt.Printf("narrative: queries=%d errors=%d degraded=%d coverage=[%.2f,%.2f] honesty_err=%.2f%% p99=%.0f->%.0fms retries=%d delayed=%d errored=%d blackholed=%d breaker_opened=%v reclosed=%v recover=%dms\n\n",
			r.Queries, r.ClientErrors, r.Degraded, r.MinCoverage, r.MaxCoverage,
			r.HonestyErrPct, r.BaseP99MS, r.ChaosP99MS, r.RPCRetries,
			r.Delayed, r.Errored, r.Blackholed,
			r.BreakerOpened, r.BreakerReclosed, r.RecoverMS)
		if err := r.Overhead.Check(); err != nil {
			return fmt.Errorf("E21: %w", err)
		}
	}

	if want("E22") {
		// Elastic membership: the anti-entropy plane's overhead, disarmed
		// vs armed, then the narrative — a 3-node cluster grows to 5 and
		// retires a founding member under sustained queries + ingest
		// with zero errors and zero acked-row loss, and a deliberately
		// corrupted replica is healed back to bit-identical by the
		// background anti-entropy loop.
		r, err := experiments.E22ElasticMembership(pick(8_000, 20_000),
			pick(4, 8), pick(4_000, 4_000))
		if err != nil {
			return err
		}
		fmt.Println("== E22: elastic membership (join/leave, rebalance, anti-entropy) ==")
		fmt.Printf("overhead: %v\n", r.Overhead)
		fmt.Printf("narrative: queries=%d errors=%d p99=%.0fms joined=%d left=%d epoch=%d moved_parts=%d acked=%d loss=%d repairs=%d repair=%dms finding=%v\n\n",
			r.Queries, r.ClientErrors, r.QueryP99MS, r.Joined, r.Left,
			r.FinalEpoch, r.MovedParts, r.AckedRows, r.LossRows,
			r.Repairs, r.RepairMS, r.RepairFinding)
		if err := r.Overhead.Check(); err != nil {
			return fmt.Errorf("E22: %w", err)
		}
	}

	if want("A1") {
		rows, err := experiments.A1Quanta(pick(10_000, 20_000), []float64{64, 225, 900})
		if err != nil {
			return err
		}
		fmt.Println("== A1: quantisation granularity ablation ==")
		for _, r := range rows {
			fmt.Printf("spawn_dist=%-6.0f quanta=%-3.0f mape=%.3f pred_rate=%.2f\n",
				r.Param, r.Extra, r.MAPE, r.PredictionRate)
		}
		fmt.Println()
	}

	if want("A2") {
		scores, err := experiments.A2ModelFamily(pick(10_000, 20_000))
		if err != nil {
			return err
		}
		fmt.Println("== A2: per-quantum model family ablation (CV RMSE on count queries) ==")
		for _, name := range []string{"linear", "quadratic", "knn", "boosted"} {
			fmt.Printf("%-10s rmse=%.1f\n", name, scores[name])
		}
		fmt.Println()
	}

	if want("A3") {
		rows, err := experiments.A3Fallback(pick(10_000, 20_000), []float64{0.05, 0.1, 0.2, 0.5})
		if err != nil {
			return err
		}
		fmt.Println("== A3: fallback threshold ablation ==")
		for _, r := range rows {
			fmt.Printf("threshold=%-5.2f mape=%.3f pred_rate=%.2f\n", r.Param, r.MAPE, r.PredictionRate)
		}
		fmt.Println()
	}

	if want("A4") {
		rows, err := experiments.A4RankJoinBatch(pick(10_000, 50_000), []int{16, 64, 256})
		if err != nil {
			return err
		}
		fmt.Println("== A4: rank-join batch size ablation ==")
		for _, r := range rows {
			fmt.Printf("batch=%-4.0f rows_read=%-8.0f time=%.4fs\n", r.Param, r.Extra, r.MAPE)
		}
		fmt.Println()
	}

	if want("A5") {
		out, err := experiments.A5GeoRouting(pick(5_000, 10_000))
		if err != nil {
			return err
		}
		fmt.Println("== A5: geo routing policy ablation (models on one edge only) ==")
		fmt.Printf("wan_bytes: core-only=%.0f peer-first=%.0f\n\n", out["core-only"], out["peer-first"])
	}
	return nil
}
