package dist

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/storage"
)

// LocalCluster runs N cluster nodes in one process, each with its own
// loopback HTTP server — real node-to-node HTTP/JSON, no simulation.
// Tests, the experiments and examples/distcluster use it to stand up a cluster in
// milliseconds; Kill and Revive exercise failover and snapshot warm-up.
type LocalCluster struct {
	base Config
	// table is the base every member loads, and reloads on Revive.
	table storage.Batch

	mu      sync.Mutex
	nodes   map[string]*Node
	urls    map[string]string
	servers map[string]*http.Server
	addrs   map[string]string
	ids     []string
}

// StartLocal boots n nodes named "n0".."n<k-1>" on loopback listeners,
// loads rows into each (every node keeps only the partitions the ring
// assigns it), and starts their HTTP servers. The rows are copied once
// into a table, so they must share one width. base supplies the shared
// cluster settings; its ID/Peers are filled per node.
func StartLocal(n int, base Config, rows []storage.Row) (*LocalCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: local cluster needs >= 1 node, got %d", n)
	}
	table, err := tableOf(rows)
	if err != nil {
		return nil, fmt.Errorf("dist: local cluster: load: %w", err)
	}
	if base.Partitions <= 0 {
		// Pin the partition count now: the default derives from the peer
		// count, and a later Join must NOT shift it (partition identity
		// is what rebalancing moves around).
		base.Partitions = 2 * n
	}
	lc := &LocalCluster{
		base:    base,
		table:   table,
		nodes:   make(map[string]*Node),
		urls:    make(map[string]string),
		servers: make(map[string]*http.Server),
		addrs:   make(map[string]string),
	}
	listeners := make(map[string]net.Listener)
	for i := 0; i < n; i++ {
		id := "n" + strconv.Itoa(i)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("dist: local cluster: %w", err)
		}
		lc.ids = append(lc.ids, id)
		listeners[id] = l
		lc.addrs[id] = l.Addr().String()
		lc.urls[id] = "http://" + l.Addr().String()
	}
	for i, id := range lc.ids {
		if err := lc.startNode(id, listeners[id]); err != nil {
			// Close the listeners no server took ownership of (this
			// node's and the not-yet-started ones), then the started
			// members.
			for _, rest := range lc.ids[i:] {
				_ = listeners[rest].Close()
			}
			lc.Close()
			return nil, err
		}
	}
	return lc, nil
}

// startNode builds, loads and serves one member on l. Caller holds no
// lock during construction-time calls; concurrent map writes are
// guarded.
func (lc *LocalCluster) startNode(id string, l net.Listener) error {
	cfg := lc.base
	cfg.ID = id
	cfg.Peers = lc.Members()
	if lc.base.DataDir != "" {
		// Each member keeps its own WAL tree, like separate hosts would.
		cfg.DataDir = filepath.Join(lc.base.DataDir, id)
	}
	node, err := NewNode(cfg)
	if err != nil {
		return err
	}
	if err := node.Load(lc.table); err != nil {
		node.Close()
		return err
	}
	srv := &http.Server{Handler: node.Handler()}
	lc.mu.Lock()
	lc.nodes[id] = node
	lc.servers[id] = srv
	lc.mu.Unlock()
	go func() { _ = srv.Serve(l) }()
	return nil
}

// Members returns the id -> base URL map (every node, dead or alive).
func (lc *LocalCluster) Members() map[string]string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[string]string, len(lc.urls))
	for id, u := range lc.urls {
		out[id] = u
	}
	return out
}

// IDs returns the member ids in boot order.
func (lc *LocalCluster) IDs() []string {
	out := make([]string, len(lc.ids))
	copy(out, lc.ids)
	return out
}

// Node returns a member by id (nil after Kill).
func (lc *LocalCluster) Node(id string) *Node {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.nodes[id]
}

// Chaos returns a member's chaos fault set (nil after Kill): tests and
// experiments arm fault-injection rules on a member's outbound RPC
// plane directly instead of going through POST /v1/debug/chaos.
func (lc *LocalCluster) Chaos(id string) *chaos.Fault {
	if n := lc.Node(id); n != nil {
		return n.Fault()
	}
	return nil
}

// URL returns a member's base URL.
func (lc *LocalCluster) URL(id string) string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.urls[id]
}

// Client builds a ring-aware client over the cluster.
func (lc *LocalCluster) Client() *Client {
	cfg := lc.base.withDefaults()
	return NewClient(lc.Members(), cfg.Replicas, cfg.Timeout, cfg.VNodes)
}

// Join boots a brand-new member on a fresh loopback listener and joins
// it to the live cluster: it fetches a live member's membership view,
// boots the newcomer from that view (so it agrees on partition count,
// replicas and vnodes without any static config), starts its HTTP
// server, and then asks the seed to orchestrate the join — stage
// moving partitions on the newcomer, catch them up through the WAL,
// and cut the cluster over to the new epoch. When Join returns, the
// newcomer is a full member and every live node routes by the new
// view.
func (lc *LocalCluster) Join(id string) error {
	lc.mu.Lock()
	if _, exists := lc.urls[id]; exists {
		lc.mu.Unlock()
		return fmt.Errorf("dist: member %q already exists", id)
	}
	var seed string
	for _, sid := range lc.ids {
		if _, alive := lc.servers[sid]; alive {
			seed = lc.urls[sid]
			break
		}
	}
	lc.mu.Unlock()
	if seed == "" {
		return fmt.Errorf("dist: no live member to join via")
	}
	mr, err := FetchMembership(seed, lc.base.Timeout)
	if err != nil {
		return fmt.Errorf("dist: join %s: %w", id, err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("dist: join %s: %w", id, err)
	}
	url := "http://" + l.Addr().String()

	cfg := lc.base
	cfg.ID = id
	cfg.Peers = map[string]string{id: url}
	cfg.InitialView = &mr.View
	cfg.Partitions = mr.Partitions
	cfg.Replicas = mr.Replicas
	cfg.VNodes = mr.VNodes
	if lc.base.DataDir != "" {
		cfg.DataDir = filepath.Join(lc.base.DataDir, id)
	}
	node, err := NewNode(cfg)
	if err != nil {
		_ = l.Close()
		return err
	}
	// Load with the full base set: the joiner is not in its boot view,
	// so ownership filtering keeps nothing — its partitions arrive via
	// the migration path below, exactly as they would on a real host.
	if err := node.Load(lc.table); err != nil {
		node.Close()
		_ = l.Close()
		return err
	}
	srv := &http.Server{Handler: node.Handler()}
	go func() { _ = srv.Serve(l) }()

	teardown := func() {
		_ = srv.Close()
		node.Close()
	}
	if _, err := call(context.Background(), http.DefaultClient, http.MethodPost, seed+"/v1/join",
		envelope{}, JoinRequest{ID: id, URL: url}, nil); err != nil {
		teardown()
		return fmt.Errorf("dist: join %s: %w", id, err)
	}
	lc.mu.Lock()
	lc.ids = append(lc.ids, id)
	lc.addrs[id] = l.Addr().String()
	lc.urls[id] = url
	lc.nodes[id] = node
	lc.servers[id] = srv
	lc.mu.Unlock()
	return nil
}

// Leave gracefully retires a member: another live member orchestrates
// the leave (migrating the leaver's partitions to the survivors and
// cutting over to a view without it), then the leaver's HTTP server
// drains in-flight requests and the node shuts down — finishing queued
// replication acks before it goes. The id is released for reuse.
func (lc *LocalCluster) Leave(id string) error {
	lc.mu.Lock()
	node := lc.nodes[id]
	srv := lc.servers[id]
	var via string
	for _, sid := range lc.ids {
		if sid == id {
			continue
		}
		if _, alive := lc.servers[sid]; alive {
			via = lc.urls[sid]
			break
		}
	}
	lc.mu.Unlock()
	if node == nil || srv == nil {
		return fmt.Errorf("dist: member %q is not running", id)
	}
	if via == "" {
		return fmt.Errorf("dist: no surviving member to orchestrate leave of %q", id)
	}
	if _, err := call(context.Background(), http.DefaultClient, http.MethodPost, via+"/v1/leave",
		envelope{}, LeaveRequest{ID: id}, nil); err != nil {
		return fmt.Errorf("dist: leave %s: %w", id, err)
	}
	lc.mu.Lock()
	delete(lc.servers, id)
	delete(lc.nodes, id)
	delete(lc.urls, id)
	delete(lc.addrs, id)
	for i, sid := range lc.ids {
		if sid == id {
			lc.ids = append(lc.ids[:i], lc.ids[i+1:]...)
			break
		}
	}
	lc.mu.Unlock()
	// Drain in-flight HTTP before closing the node: the leaver keeps
	// serving as a retired donor/ack sink until every started request
	// completes, so no caller sees a dropped connection.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
	node.Close()
	return nil
}

// Kill abruptly stops a member: its HTTP server closes immediately,
// dropping in-flight connections — the crash the failover paths must
// mask. The member's address stays reserved so Revive can bring it back.
func (lc *LocalCluster) Kill(id string) {
	lc.mu.Lock()
	srv := lc.servers[id]
	node := lc.nodes[id]
	delete(lc.servers, id)
	delete(lc.nodes, id)
	lc.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
	if node != nil {
		node.Close()
	}
}

// Revive restarts a killed member on its original address with a fresh
// node: it reloads the base data partitions, replays the member's own
// WAL segments (when the cluster runs with a DataDir), catches up what
// it missed from peer holders (their log tail, or a snapshot where no
// tail continues its copy), and — when warmFrom is a live
// member id — imports that member's agent snapshots so the replica
// predicts immediately (model snapshot + log tail instead of a full
// retrain). It returns the shipped snapshot bytes.
func (lc *LocalCluster) Revive(id, warmFrom string) (int64, error) {
	lc.mu.Lock()
	addr, ok := lc.addrs[id]
	_, alive := lc.servers[id]
	donor := lc.urls[warmFrom]
	lc.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("dist: unknown member %q", id)
	}
	if alive {
		return 0, fmt.Errorf("dist: member %q is still running", id)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("dist: revive %s: %w", id, err)
	}
	if err := lc.startNode(id, l); err != nil {
		return 0, err
	}
	// Best effort: dead peers are skipped.
	_, _ = lc.Node(id).CatchUp()
	if warmFrom == "" {
		return 0, nil
	}
	if donor == "" {
		return 0, fmt.Errorf("dist: unknown warm-up donor %q", warmFrom)
	}
	return lc.Node(id).WarmFrom(donor)
}

// ReviveCold restarts a killed member like Revive but WITHOUT the
// catch-up or model warm-up: the node replays only its own
// surviving WAL segments, so batches ingested while it was down stay
// missing until an explicit CatchUp. The introspection experiments use
// this to observe nonzero replication lag in the status plane before
// demonstrating that catch-up drains it.
func (lc *LocalCluster) ReviveCold(id string) error {
	lc.mu.Lock()
	addr, ok := lc.addrs[id]
	_, alive := lc.servers[id]
	lc.mu.Unlock()
	if !ok {
		return fmt.Errorf("dist: unknown member %q", id)
	}
	if alive {
		return fmt.Errorf("dist: member %q is still running", id)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: revive %s: %w", id, err)
	}
	return lc.startNode(id, l)
}

// Close stops every member and drains their schedulers.
func (lc *LocalCluster) Close() {
	lc.mu.Lock()
	servers := lc.servers
	nodes := lc.nodes
	lc.servers = make(map[string]*http.Server)
	lc.nodes = make(map[string]*Node)
	lc.mu.Unlock()
	for _, srv := range servers {
		_ = srv.Close()
	}
	for _, n := range nodes {
		n.Close()
	}
}
