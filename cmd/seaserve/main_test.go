package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

func clusterOpts() options {
	return options{
		addr: ":0", rows: 1000, training: 10,
		workers: 2, queue: 16, seed: 1, drain: time.Second, driftBudget: 200,
		nodeID:   "n0",
		peerList: "n0=http://a:1,n1=http://b:1,n2=http://c:1",
		replicas: 2,
	}
}

// loneOpts is a member started without -peers or -join, flags at their
// defaults.
func loneOpts() options {
	o := clusterOpts()
	o.addr, o.nodeID, o.peerList, o.replicas = ":8080", defaultNodeID, "", 0
	return o
}

func TestValidateAcceptsSaneConfigs(t *testing.T) {
	lone := loneOpts()
	lone.dataDir = "/tmp/wal"
	if err := lone.validate(); err != nil {
		t.Fatalf("lone member rejected: %v", err)
	}
	if got := lone.peers[defaultNodeID]; len(lone.peers) != 1 || got != "http://localhost:8080" {
		t.Fatalf("lone member view %v, want {%s: http://localhost:8080}", lone.peers, defaultNodeID)
	}
	advertised := loneOpts()
	advertised.advertise = "http://10.0.0.9:8080"
	if err := advertised.validate(); err != nil || advertised.peers[defaultNodeID] != advertised.advertise {
		t.Fatalf("lone member with -advertise: view %v, err %v", advertised.peers, err)
	}
	cl := clusterOpts()
	cl.dataDir = "/tmp/wal"
	cl.writeQuorum = 2
	cl.warmFrom = "http://b:1"
	if err := cl.validate(); err != nil {
		t.Fatalf("cluster config rejected: %v", err)
	}
}

func TestValidateFailsFast(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"replicas exceed cluster", func(o *options) { o.replicas = 5 }, "exceeds the cluster size"},
		{"replicas exceed a lone member", func(o *options) { *o = loneOpts(); o.replicas = 2 }, "exceeds the cluster size 1"},
		{"quorum above a lone member", func(o *options) { *o = loneOpts(); o.writeQuorum = 2 }, "-write-quorum"},
		{"node not in peers", func(o *options) { o.nodeID = "n9" }, "not listed in -peers"},
		{"quorum above replicas", func(o *options) { o.writeQuorum = 3 }, "-write-quorum"},
		{"bad peers entry", func(o *options) { o.peerList = "n0" }, "bad -peers entry"},
		{"warm-from self", func(o *options) { o.warmFrom = "http://a:1" }, "own URL"},
		{"zero rows", func(o *options) { o.rows = 0 }, "-rows"},
		{"negative drift budget", func(o *options) { o.driftBudget = -1 }, "-drift-budget"},
		{"zero drift budget", func(o *options) { o.driftBudget = 0 }, "-drift-budget"},
		{"peers without node-id", func(o *options) { o.nodeID = defaultNodeID }, "not listed in -peers"},
		{"advertise with peers", func(o *options) { o.advertise = "http://a:1" }, "mutually exclusive"},
		{"bad lone addr", func(o *options) { *o = loneOpts(); o.addr = "8080" }, "-addr"},
		{"warm-from without peers", func(o *options) {
			o.peerList = "n0=http://a:1"
			o.warmFrom = "http://b:1"
			o.replicas = 1
		}, "at least one peer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := clusterOpts()
			tc.mut(&o)
			err := o.validate()
			if err == nil {
				t.Fatalf("config accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestJoinerBootGeneratesNothing: a member joining a running cluster is
// not in its boot view and owns no partition until the seed stages some
// onto it, so its boot generates no table (gen 0) and holds no rows. A
// founding member booted the same way generates the table and keeps its
// share.
func TestJoinerBootGeneratesNothing(t *testing.T) {
	o := clusterOpts()
	o.rows = 6_000
	view := dist.View{Epoch: 1, Members: []dist.Member{
		{ID: "n0", URL: "http://a:1"}, {ID: "n1", URL: "http://b:1"}, {ID: "n2", URL: "http://c:1"},
	}}
	boot := func(id string) (*bootTimes, dist.ClusterStatus) {
		t.Helper()
		node, err := dist.NewNode(dist.Config{ID: id, Peers: map[string]string{id: "http://d:1"},
			InitialView: &view, Partitions: 6, Replicas: 2, Agent: core.DefaultConfig(2)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		b, err := loadStandard(o, node)
		if err != nil {
			t.Fatal(err)
		}
		return b, node.Status()
	}
	if b, st := boot("n3"); b.gen != 0 || st.RowsHeld != 0 {
		t.Fatalf("joiner: generated for %v and holds %d rows, want nothing generated", b.gen, st.RowsHeld)
	}
	if b, st := boot("n0"); b.gen <= 0 || st.RowsHeld == 0 || st.RowsHeld >= int64(o.rows) {
		t.Fatalf("founder: generated for %v and holds %d of %d rows, want its share", b.gen, st.RowsHeld, o.rows)
	}
}
