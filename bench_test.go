// Package repro's root benchmarks regenerate the experiments of
// DESIGN.md's per-experiment index (E1-E12, E15, E18-E22) plus the
// ablations (A1-A5). Each bench reports the experiment's headline
// metrics via b.ReportMetric, so `go test -bench=. -benchmem` prints the
// rows DESIGN.md's index describes; the serving system's end-to-end
// performance is bench/'s (trajectory rows in bench/trajectory/).
// Wall-clock ns/op measures simulator CPU, not the virtual cluster: the
// virtual metrics are the reproduction targets.
package repro

import (
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

func BenchmarkE1DatalessVsBDAS(b *testing.B) {
	for _, rows := range []int{20_000, 100_000} {
		b.Run(sizeName(rows), func(b *testing.B) {
			var row experiments.E1Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.E1DatalessVsBDAS(rows, 16, 300, 200)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.SpeedupX, "speedup_x")
			b.ReportMetric(row.PredictionRate, "pred_rate")
			b.ReportMetric(float64(row.BDASRowsRead), "bdas_rows")
			b.ReportMetric(float64(row.SEARowsRead), "sea_rows")
			b.ReportMetric(row.BDASDollars/max(row.SEADollars, 1e-12), "dollar_ratio_x")
		})
	}
}

func BenchmarkE2CountAccuracy(b *testing.B) {
	for _, training := range []int{150, 300, 600} {
		b.Run(sizeName(training), func(b *testing.B) {
			var row experiments.E2Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.E2CountAccuracy(20_000, training, 200, 0.05)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.SEAMAPE, "sea_mape")
			b.ReportMetric(row.AQPMAPE, "aqp_mape")
			b.ReportMetric(row.SEARowsPerQ, "sea_rows/q")
			b.ReportMetric(row.AQPRowsPerQ, "aqp_rows/q")
			b.ReportMetric(row.PredictionRate, "pred_rate")
		})
	}
}

func BenchmarkE3AvgRegression(b *testing.B) {
	var row experiments.E3Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.E3AvgRegression(20_000, 300, 150)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.AvgMAPE, "avg_mape")
	b.ReportMetric(row.SlopeMAE, "slope_mae")
	b.ReportMetric(row.CorrMAE, "corr_mae")
	b.ReportMetric(row.PredictionRate, "pred_rate")
}

func BenchmarkE4RankJoin(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		for _, k := range []int{1, 10, 100} {
			b.Run(sizeName(rows)+"/k="+sizeName(k), func(b *testing.B) {
				var row experiments.E4Row
				var err error
				for i := 0; i < b.N; i++ {
					row, err = experiments.E4RankJoin(rows, k)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(row.SpeedupX, "speedup_x")
				b.ReportMetric(row.RowRatioX, "row_ratio_x")
				b.ReportMetric(row.ByteRatioX, "byte_ratio_x")
			})
		}
	}
}

func BenchmarkE5KNN(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		for _, k := range []int{1, 10, 100} {
			b.Run(sizeName(rows)+"/k="+sizeName(k), func(b *testing.B) {
				var row experiments.E5Row
				var err error
				for i := 0; i < b.N; i++ {
					row, err = experiments.E5KNN(rows, k, 10)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(row.SpeedupX, "speedup_x")
				b.ReportMetric(row.RowRatioX, "row_ratio_x")
			})
		}
	}
}

func BenchmarkE6SubgraphCache(b *testing.B) {
	for _, repeat := range []float64{0.6, 0.9} {
		b.Run(pctName(repeat), func(b *testing.B) {
			var row experiments.E6Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.E6SubgraphCache(400, 150, repeat)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.SpeedupX, "speedup_x")
			b.ReportMetric(float64(row.ExactHits), "exact_hits")
			b.ReportMetric(float64(row.SubHits), "sub_hits")
		})
	}
}

func BenchmarkE7Imputation(b *testing.B) {
	for _, rows := range []int{5_000, 20_000} {
		b.Run(sizeName(rows), func(b *testing.B) {
			var row experiments.E7Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.E7Imputation(rows)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.SpeedupX, "speedup_x")
			b.ReportMetric(row.FullRMSE, "full_rmse")
			b.ReportMetric(row.CentroidRMSE, "centroid_rmse")
		})
	}
}

func BenchmarkE8Optimizer(b *testing.B) {
	var row experiments.E8Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.E8Optimizer(10_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.Accuracy, "accuracy")
	b.ReportMetric(row.LearnedRegret, "learned_regret_s")
	b.ReportMetric(row.AlwaysMRRegret, "always_mr_regret_s")
}

func BenchmarkE9Explanations(b *testing.B) {
	var row experiments.E9Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.E9Explanations(20_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.MeanR2, "fidelity_r2")
	b.ReportMetric(row.MeanMAPE, "fidelity_mape")
	b.ReportMetric(float64(row.QueriesSaved)/max(float64(row.QueriesAsked), 1), "saved_frac")
}

func BenchmarkE10Geo(b *testing.B) {
	var row experiments.E10Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.E10Geo(20_000, 400, 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.WANSavingsX, "wan_savings_x")
	b.ReportMetric(row.LocalRate, "local_rate")
	b.ReportMetric(float64(row.P50.Microseconds()), "p50_us")
	b.ReportMetric(float64(row.P95.Microseconds()), "p95_us")
}

func BenchmarkE11Maintenance(b *testing.B) {
	var row experiments.E11Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.E11Maintenance(20_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.PreDriftMAPE, "pre_drift_mape")
	b.ReportMetric(row.RecoveredMAPE, "recovered_mape")
	b.ReportMetric(float64(row.PostUpdateExact), "post_update_exact")
	b.ReportMetric(row.RecoveredPredRate, "recovered_pred_rate")
}

func BenchmarkE12Polystore(b *testing.B) {
	var row experiments.E12Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.E12Polystore(4_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.ShipDataBytes), "ship_data_B")
	b.ReportMetric(float64(row.ShipPairsBytes), "ship_pairs_B")
	b.ReportMetric(float64(row.ShipModelBytes), "ship_model_B")
	b.ReportMetric(row.ShipModelErr, "ship_model_abs_err")
}

func BenchmarkE15LiveIngest(b *testing.B) {
	var row experiments.E15Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.E15LiveIngest(20_000, 3, 8, 150, 300, 15, 300, b.TempDir(), true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.ReadQPS, "read_qps")
	b.ReportMetric(float64(row.ReadP99.Microseconds()), "read_p99_us")
	b.ReportMetric(row.PredictionRate, "pred_rate")
	b.ReportMetric(row.PreMAPE, "pre_mape")
	b.ReportMetric(row.DuringMAPE, "during_mape")
	b.ReportMetric(row.PostMAPE, "post_mape")
	b.ReportMetric(float64(row.AckedRows), "acked_rows")
	b.ReportMetric(float64(row.LostAckedRows), "lost_acked_rows")
}

func BenchmarkAblationQuanta(b *testing.B) {
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.A1Quanta(20_000, []float64{64, 225, 900})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MAPE, "mape@sd"+sizeName(int(r.Param)))
	}
}

func BenchmarkAblationModelFamily(b *testing.B) {
	var scores map[string]float64
	var err error
	for i := 0; i < b.N; i++ {
		scores, err = experiments.A2ModelFamily(10_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, rmse := range scores {
		b.ReportMetric(rmse, "rmse_"+name)
	}
}

func BenchmarkAblationFallback(b *testing.B) {
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.A3Fallback(20_000, []float64{0.05, 0.2, 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PredictionRate, "rate@th"+pctName(r.Param))
	}
}

func BenchmarkAblationRankJoinBatch(b *testing.B) {
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.A4RankJoinBatch(20_000, []int{16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Extra, "rows@b"+sizeName(int(r.Param)))
	}
}

func BenchmarkAblationGeoRouting(b *testing.B) {
	var out map[string]float64
	var err error
	for i := 0; i < b.N; i++ {
		out, err = experiments.A5GeoRouting(10_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(out["core-only"], "core_only_wan_B")
	b.ReportMetric(out["peer-first"], "peer_first_wan_B")
}

// BenchmarkE17HotPath proves the serving hot path's allocation
// contract with -benchmem precision: the steady-state TryPredict tier
// (indexed quantum lookup + scratch-arena features), the versioned
// cache-hit tier, and the same cache hit through the scheduler's
// admission gate must all report 0 allocs/op (CI greps the three lines).
func BenchmarkE17HotPath(b *testing.B) {
	fix, err := experiments.NewE17Fixture(20_000, 300)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("TryPredict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := fix.Agent.TryPredict(fix.Query); !ok {
				b.Fatal("fast path refused the pinned query")
			}
		}
	})
	b.Run("CacheHit", func(b *testing.B) {
		if _, err := fix.Pool.Answer(fix.Query); err != nil { // prime
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fix.Pool.Answer(fix.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Scheduled", func(b *testing.B) {
		sched := serve.NewScheduler(fix.Pool, serve.SchedulerConfig{})
		defer sched.Close()
		if _, err := sched.Answer("", fix.Query); err != nil { // prime
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sched.Answer("", fix.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE18TraceOverhead proves the observability layer's cost
// contract. Disabled: with a tracer attached but sampling off, the
// cache-hit serving path must still report 0 allocs/op — the tracing
// hooks may cost nil checks and one atomic load, nothing more (CI
// greps this line). Sampled forces a trace on every query to bound
// the worst-case per-trace cost. The E18 sub-benchmark reports the
// full experiment row: the paired overhead reading at 1-in-100 sampling,
// the shadow audit's measured MAPE against ground truth, and the
// stitched multi-node span-tree shape.
func BenchmarkE18TraceOverhead(b *testing.B) {
	fix, err := experiments.NewE17Fixture(20_000, 300)
	if err != nil {
		b.Fatal(err)
	}
	tracer := trace.NewTracer("bench", 0)
	fix.Pool.EnableTracing(tracer)
	if _, err := fix.Pool.Answer(fix.Query); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.Run("Disabled", func(b *testing.B) {
		tracer.SetSampleRate(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fix.Pool.Answer(fix.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Sampled", func(b *testing.B) {
		tracer.SetSampleEvery(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fix.Pool.Answer(fix.Query); err != nil {
				b.Fatal(err)
			}
		}
		tracer.SetSampleRate(0)
	})
	b.Run("E18", func(b *testing.B) {
		var row experiments.E18Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = experiments.E18TraceOverhead(20_000, 300, 100_000, 100)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportOverhead(b, row.Overhead)
		b.ReportMetric(float64(row.SampledTraces), "sampled_traces")
		b.ReportMetric(float64(row.TraceSpans), "trace_spans")
		b.ReportMetric(float64(row.TraceNodes), "trace_nodes")
		b.ReportMetric(row.AuditMAPE, "audit_mape")
		b.ReportMetric(row.TruthMAPE, "truth_mape")
		b.ReportMetric(float64(row.SlowLogged), "slow_logged")
	})
}

// BenchmarkE19ObsOverhead proves the logging + runtime-telemetry cost
// contract. Disabled: with no logger attached the cache-hit serving
// path must still report 0 allocs/op — the logging hook may cost one
// nil check, nothing more (CI greps this line). Logged bounds the
// worst case: slow-query logging firing on every query through a
// rate-limited logger with the runtime sampler live. The E19
// sub-benchmark reports the full experiment row: the replication-lag
// narrative plus the paired overhead reading.
func BenchmarkE19ObsOverhead(b *testing.B) {
	fix, err := experiments.NewE17Fixture(20_000, 300)
	if err != nil {
		b.Fatal(err)
	}
	tracer := trace.NewTracer("bench", 0)
	fix.Pool.EnableTracing(tracer)
	if _, err := fix.Pool.Answer(fix.Query); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.Run("Disabled", func(b *testing.B) {
		fix.Pool.SetLogger(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fix.Pool.Answer(fix.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Logged", func(b *testing.B) {
		logger := obs.New(io.Discard, obs.LevelInfo)
		logger.SetRateLimit(10_000, 1000)
		fix.Pool.SetLogger(logger)
		tracer.SetSlowThreshold(time.Nanosecond) // every query logs (up to the limiter)
		sampler := obs.NewRuntimeSampler(5 * time.Millisecond)
		sampler.Start()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fix.Pool.Answer(fix.Query); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		sampler.Stop()
		tracer.SetSlowThreshold(0)
		fix.Pool.SetLogger(nil)
	})
	b.Run("E19", func(b *testing.B) {
		var row experiments.E19Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = experiments.E19Introspection(20_000, 300, 100_000)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportOverhead(b, row.Overhead)
		b.ReportMetric(float64(row.DownCritical), "down_critical")
		b.ReportMetric(float64(row.LagParts), "lag_parts")
		b.ReportMetric(float64(row.LagPeak), "lag_peak")
		b.ReportMetric(boolMetric(row.CaughtUp), "caught_up")
		b.ReportMetric(float64(row.LogLines), "log_lines")
		b.ReportMetric(float64(row.LogDropped), "log_dropped")
	})
}

// BenchmarkE20FlightSample proves the flight-recorder cost contract.
// Steady: one full recorder tick — every counter, gauge, and histogram
// quantile sampled into its ring, anomaly detectors fed — must report
// 0 allocs/op at steady state (CI greps this line). The E20
// sub-benchmark reports the full experiment row: the paired overhead
// reading with the recorder's ticks charged per period, plus the
// overload narrative — anomaly fired, SLO critical, bundle captured, history
// rings queryable.
func BenchmarkE20FlightSample(b *testing.B) {
	b.Run("Steady", func(b *testing.B) {
		rec := metrics.NewServeRecorder()
		for i := 0; i < 512; i++ {
			rec.ObservePath(time.Duration(50+i%100)*time.Microsecond, metrics.PathCache)
			rec.ObservePath(time.Duration(200+i%400)*time.Microsecond, metrics.PathExactScatter)
		}
		fr := flight.New(flight.Config{Node: "bench", Anomaly: true})
		fr.Instrument(rec)
		base := time.Unix(1_700_000_000, 0)
		// Spin the rings past one full wrap so the benchmark measures
		// steady state, not first-fill.
		for i := 0; i < 1024; i++ {
			fr.Tick(base.Add(time.Duration(i) * time.Second))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr.Tick(base.Add(time.Duration(1024+i) * time.Second))
		}
	})
	b.Run("E20", func(b *testing.B) {
		var row experiments.E20Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = experiments.E20FlightRecorder(20_000, 300, 100_000)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportOverhead(b, row.Overhead)
		b.ReportMetric(float64(row.Series), "series")
		b.ReportMetric(float64(row.Anomalies), "anomalies")
		b.ReportMetric(row.AnomalyZ, "anomaly_z")
		b.ReportMetric(float64(row.SLOState), "slo_state")
		b.ReportMetric(float64(row.Triggers), "triggers")
		b.ReportMetric(float64(row.BundleFiles), "bundle_files")
		b.ReportMetric(boolMetric(row.BundleComplete), "bundle_complete")
		b.ReportMetric(float64(row.HiPoints), "hi_points")
		b.ReportMetric(float64(row.LoPoints), "lo_points")
		b.ReportMetric(row.RampRatio, "ramp_ratio")
	})
}

// BenchmarkE21Resilience proves the chaos-hardening cost contract.
//
// Disabled gates the fault interceptor's disarmed hot path: a
// chaos.Transport with no rules armed must add one atomic load and
// ZERO heap allocations per request over its base transport — CI greps
// its allocs/op, so a regression that makes every inter-node RPC in a
// production cluster allocate fails the build. E21 regenerates the
// full chaos-resilience scenario and reports its row: the paired
// stripped-vs-hardened overhead reading and the armed-chaos narrative (zero client errors, honest degraded
// coverage, breakers opening and re-closing).
func BenchmarkE21Resilience(b *testing.B) {
	b.Run("Disabled", func(b *testing.B) {
		resp := &http.Response{StatusCode: http.StatusOK, Body: http.NoBody}
		tr := &chaos.Transport{F: chaos.New(), Base: nopTransport{resp: resp}}
		req, err := http.NewRequest(http.MethodPost, "http://peer:9999/v1/partials", nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.RoundTrip(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("E21", func(b *testing.B) {
		var row experiments.E21Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = experiments.E21ChaosResilience(20_000, 8, 600)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportOverhead(b, row.Overhead)
		b.ReportMetric(float64(row.Hedges), "hedges")
		b.ReportMetric(float64(row.ClientErrors), "client_errors")
		b.ReportMetric(float64(row.Degraded), "degraded")
		b.ReportMetric(row.MinCoverage, "min_coverage")
		b.ReportMetric(row.MaxCoverage, "max_coverage")
		b.ReportMetric(row.HonestyErrPct, "honesty_err_pct")
		b.ReportMetric(row.ChaosP99MS, "chaos_p99_ms")
		b.ReportMetric(float64(row.RPCRetries), "rpc_retries")
		b.ReportMetric(boolMetric(row.BreakerOpened), "breaker_opened")
		b.ReportMetric(boolMetric(row.BreakerReclosed), "breaker_reclosed")
		b.ReportMetric(float64(row.RecoverMS), "recover_ms")
	})
}

// BenchmarkE22Elastic proves the elastic-membership cost contract.
//
// Disarmed gates the anti-entropy loop's off path: with
// Config.AntiEntropy zero a tick must be a single atomic load and ZERO
// heap allocations — CI greps its allocs/op, so a regression that
// makes every disarmed node's background tick allocate fails the
// build. E22 regenerates the full elastic-membership scenario and
// reports its row: the paired disarmed-vs-armed overhead reading with
// the repair passes charged per period, plus the churn narrative — grow 3→5, retire a
// founder, zero acked-row loss, and a corrupted replica healed back to
// bit-identical by anti-entropy.
func BenchmarkE22Elastic(b *testing.B) {
	b.Run("Disarmed", func(b *testing.B) {
		ccfg := core.DefaultConfig(2)
		ccfg.TrainingQueries = 1 << 30
		lc, err := dist.StartLocal(1, dist.Config{
			Agent:    ccfg,
			Replicas: 1, WriteQuorum: 1, Partitions: 2,
		}, workload.StandardRows(500, 11))
		if err != nil {
			b.Fatal(err)
		}
		defer lc.Close()
		n := lc.Node(lc.IDs()[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n.AntiEntropyTick() != 0 {
				b.Fatal("disarmed tick repaired something")
			}
		}
	})
	b.Run("E22", func(b *testing.B) {
		var row experiments.E22Row
		var err error
		for i := 0; i < b.N; i++ {
			row, err = experiments.E22ElasticMembership(20_000, 8, 600)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportOverhead(b, row.Overhead)
		b.ReportMetric(float64(row.Queries), "queries")
		b.ReportMetric(float64(row.ClientErrors), "client_errors")
		b.ReportMetric(row.QueryP99MS, "query_p99_ms")
		b.ReportMetric(float64(row.Joined), "joined")
		b.ReportMetric(float64(row.Left), "left")
		b.ReportMetric(float64(row.FinalEpoch), "final_epoch")
		b.ReportMetric(float64(row.MovedParts), "moved_parts")
		b.ReportMetric(float64(row.AckedRows), "acked_rows")
		b.ReportMetric(float64(row.LossRows), "loss_rows")
		b.ReportMetric(float64(row.Repairs), "repairs")
		b.ReportMetric(float64(row.RepairMS), "repair_ms")
		b.ReportMetric(boolMetric(row.RepairFinding), "repair_finding")
	})
}

// nopTransport returns a canned response: the Disabled sub-bench
// measures the chaos wrapper's own cost, not a real round trip's.
type nopTransport struct{ resp *http.Response }

func (t nopTransport) RoundTrip(*http.Request) (*http.Response, error) { return t.resp, nil }

// reportOverhead reports an overhead gate's reading.
func reportOverhead(b *testing.B, o experiments.Overhead) {
	b.ReportMetric(o.Pct(), "overhead_pct")
	b.ReportMetric(o.PairedPct, "paired_pct")
	b.ReportMetric(o.TickPct, "tick_pct")
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func sizeName(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return strconv.Itoa(n/1_000_000) + "M"
	case n >= 1_000 && n%1_000 == 0:
		return strconv.Itoa(n/1_000) + "k"
	default:
		return strconv.Itoa(n)
	}
}

func pctName(f float64) string { return strconv.Itoa(int(f*100)) + "pct" }
