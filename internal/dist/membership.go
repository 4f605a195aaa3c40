package dist

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/serve"
)

// This file is the elastic-membership plane: a versioned membership
// View (epoch + member list) every node carries, swapped atomically on
// change and stamped on every request and response (the X-Sea-Epoch
// envelope header). A node or client that sees a message from a newer
// epoch refetches the view from the members it knows (GET
// /v1/membership) and re-resolves owners instead of routing on a stale
// ring — the gossip is pull-on-divergence, so a quiet cluster exchanges
// no membership traffic at all.
//
// Epochs only increase. The coordinator of a join/leave (any live
// member that received the request) builds epoch+1, stages the moving
// partitions on their gainers (rebalance.go), then pushes the new view
// to every old and new member; stragglers that miss the push converge
// the first time any stamped message reaches them.

// Member is one cluster member in a membership view.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// View is a versioned membership: the epoch and the member list
// (sorted by ID). Two nodes with equal epochs have identical views.
type View struct {
	Epoch   int64    `json:"epoch"`
	Members []Member `json:"members"`
}

// clone deep-copies the view (members are value types).
func (v View) clone() View {
	out := View{Epoch: v.Epoch, Members: make([]Member, len(v.Members))}
	copy(out.Members, v.Members)
	return out
}

// normalize sorts the member list by ID so equal views marshal
// identically regardless of construction order.
func (v *View) normalize() {
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].ID < v.Members[j].ID })
}

// has reports whether id is a member of the view.
func (v View) has(id string) bool {
	for _, m := range v.Members {
		if m.ID == id {
			return true
		}
	}
	return false
}

// ids returns the member ids in view order.
func (v View) ids() []string {
	out := make([]string, len(v.Members))
	for i, m := range v.Members {
		out[i] = m.ID
	}
	return out
}

// memberState is a node's resolved membership: the view plus the ring
// and URL map derived from it. It is immutable once built — readers
// load the whole struct through one atomic pointer, so a view change
// can never be observed half-applied.
type memberState struct {
	view View
	ring *Ring
	urls map[string]string
	// epochHeader is the X-Sea-Epoch value every response under this
	// view carries, built once and shared read-only: setting it per
	// response would allocate it per response.
	epochHeader []string
}

// newMemberState resolves a view into a routable state.
func newMemberState(v View, vnodes int) *memberState {
	urls := make(map[string]string, len(v.Members))
	for _, m := range v.Members {
		urls[m.ID] = m.URL
	}
	return &memberState{view: v, ring: NewRing(vnodes, v.ids()...), urls: urls,
		epochHeader: []string{strconv.FormatInt(v.Epoch, 10)}}
}

// viewFromPeers derives the boot view from a static peer map (epoch 1,
// the pre-elastic config surface).
func viewFromPeers(id string, peers map[string]string) View {
	v := View{Epoch: 1}
	for pid, url := range peers {
		v.Members = append(v.Members, Member{ID: pid, URL: url})
	}
	if len(v.Members) == 0 {
		v.Members = []Member{{ID: id}}
	}
	v.normalize()
	return v
}

// MembershipResponse is the GET /v1/membership body: the node's view
// plus the cluster shape a joiner must adopt to agree on placement
// (the partition count is NOT derivable from a joiner's own config —
// the default scales with the peer count, which differs per member).
type MembershipResponse struct {
	View       View   `json:"view"`
	Partitions int    `json:"partitions"`
	Replicas   int    `json:"replicas"`
	VNodes     int    `json:"vnodes"`
	Node       string `json:"node"`
}

// members returns the node's current membership state.
func (n *Node) members() *memberState { return n.member.Load() }

// epoch returns the node's current membership epoch.
func (n *Node) epoch() int64 { return n.members().view.Epoch }

// noteEpoch reacts to an epoch observed on the wire: anything newer
// than the node's own view kicks a background membership refresh. The
// envelope calls it on every stamped request and reply a node handles,
// so it must stay one comparison on the common (equal-epoch) path.
func (n *Node) noteEpoch(e int64) {
	if e > n.epoch() {
		n.kickRefresh()
	}
}

// kickRefresh starts one background membership refresh; concurrent
// observations of a newer epoch coalesce into the in-flight one.
func (n *Node) kickRefresh() {
	if !n.refreshing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer n.refreshing.Store(false)
		n.refreshMembership()
	}()
}

// refreshMembership pulls the membership view from every member of the
// current view and adopts the newest. A member that departed in the
// newer view simply fails or answers with the newer view itself; as
// long as one reachable member has converged, this node converges too.
func (n *Node) refreshMembership() {
	ms := n.members()
	var best View
	for _, m := range ms.view.Members {
		if m.ID == n.id || m.URL == "" || !n.health.admit(m.URL) {
			continue
		}
		mr, err := fetchMembership(n.hc, m.URL)
		n.health.observe(m.URL, err)
		if err != nil {
			continue
		}
		if mr.View.Epoch > best.Epoch {
			best = mr.View
		}
	}
	if best.Epoch > n.epoch() {
		if err := n.applyView(best); err != nil {
			n.logger.Warn("membership refresh apply failed", "epoch", best.Epoch, "err", err)
		}
	}
}

func (n *Node) membershipResponse() MembershipResponse {
	return MembershipResponse{
		View:       n.members().view.clone(),
		Partitions: n.cfg.Partitions,
		Replicas:   n.cfg.Replicas,
		VNodes:     n.cfg.VNodes,
		Node:       n.id,
	}
}

func (n *Node) handleMembershipGet(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, n.membershipResponse())
}

// handleMembershipPost installs a pushed view when it is newer than the
// node's own (the coordinator's cutover push); either way it answers
// with the node's resulting view, so the push doubles as an exchange.
func (n *Node) handleMembershipPost(w http.ResponseWriter, r *http.Request) {
	var v View
	if !decodeBody(w, r, bodyLimit, &v) {
		return
	}
	if v.Epoch > n.epoch() {
		if err := n.applyView(v); err != nil {
			serve.WriteError(w, err)
			return
		}
	}
	serve.WriteJSON(w, http.StatusOK, n.membershipResponse())
}

// fetchMembership fetches url's membership view with the given client.
func fetchMembership(hc *http.Client, baseURL string) (MembershipResponse, error) {
	var out MembershipResponse
	if _, err := call(context.Background(), hc, http.MethodGet, baseURL+"/v1/membership", envelope{}, nil, &out); err != nil {
		return MembershipResponse{}, fmt.Errorf("dist: membership from %s: %w", baseURL, err)
	}
	return out, nil
}

// FetchMembership fetches a live member's membership view and cluster
// shape (GET /v1/membership). Joiners bootstrap their Config from it
// (cmd/seaserve -join) and clients use it to re-resolve owners after
// observing a newer epoch.
func FetchMembership(baseURL string, timeout time.Duration) (MembershipResponse, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return fetchMembership(&http.Client{Timeout: timeout}, baseURL)
}

// pushView posts a view to a member.
func (n *Node) pushView(url string, v View) error {
	if _, err := n.call(context.Background(), http.MethodPost, url+"/v1/membership", envelope{}, v, nil); err != nil {
		return fmt.Errorf("dist: push view to %s: %w", url, err)
	}
	return nil
}
