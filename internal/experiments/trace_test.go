package experiments

import "testing"

func TestE18Shape(t *testing.T) {
	row, err := E18TraceOverhead(5_000, 150, 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	if row.Overhead.Pairs == 0 {
		t.Fatalf("E18 served nothing: %+v", row)
	}
	if row.SampledTraces == 0 {
		t.Error("E18: sampler recorded no traces")
	}
	// Cross-shard stitching: one tree, several nodes, bounded RPC spans.
	if row.TraceNodes < 2 {
		t.Errorf("E18: trace covers %d node(s), want >= 2", row.TraceNodes)
	}
	if row.PartialRPCSpans < 1 || row.PartialRPCSpans > row.MaxRemoteHolders {
		t.Errorf("E18: partial_rpc spans = %d, want 1..%d", row.PartialRPCSpans, row.MaxRemoteHolders)
	}
	if row.TraceSpans < 5 {
		t.Errorf("E18: implausibly small span tree (%d spans)", row.TraceSpans)
	}
	// The audit must have probed model answers and measured an error
	// that agrees with the ground truth computed over the same queries.
	if row.AuditSamples == 0 {
		t.Fatal("E18: shadow audit recorded no samples")
	}
	diff := row.AuditMAPE - row.TruthMAPE
	if diff < 0 {
		diff = -diff
	}
	tol := 0.02 + 0.1*row.TruthMAPE
	if diff > tol {
		t.Errorf("E18: audit MAPE %.4f disagrees with ground truth %.4f (tol %.4f)",
			row.AuditMAPE, row.TruthMAPE, tol)
	}
	if row.SlowLogged == 0 {
		t.Error("E18: slow-query log never triggered at a 1ns threshold")
	}
}
