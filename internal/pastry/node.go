package pastry

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"past/internal/id"
	"past/internal/transport"
	"past/internal/wire"
)

// Config sets the Pastry parameters of section 2.2.
type Config struct {
	// B is the number of bits per digit (2^b-way branching). The paper's
	// typical value is 4.
	B int
	// L is the leaf-set size (l/2 on each side). The paper's typical
	// value is 32.
	L int
	// KeepAlive is the interval between leaf-set keep-alive probes; zero
	// disables periodic probing (large simulations enable it only in
	// churn experiments).
	KeepAlive time.Duration
	// LeafSync, when positive, exchanges leaf sets with one random known
	// peer every LeafSync-th keep-alive tick: membership anti-entropy, so
	// a node whose join-time state transfer was lossy still converges to
	// full membership instead of being stuck with a partial view forever.
	// Zero disables it — the default; recorded simulations never enable
	// it, keeping their output byte-stable.
	LeafSync int
	// FailTimeout is the silence period T after which a leaf-set member
	// is presumed failed (section 2.2, "Node addition and failure").
	FailTimeout time.Duration
	// JoinTimeout bounds how long a join waits for the state transfer
	// through one seed.
	JoinTimeout time.Duration
	// Randomize enables the randomized routing of section 2.2
	// ("Fault-tolerance"): the next hop is drawn from all admissible
	// choices with probability heavily biased towards the best one.
	Randomize bool
	// Bias is the probability of taking the best admissible hop when
	// Randomize is set; remaining probability recurses on the rest.
	Bias float64
	// Seed drives this node's routing randomness.
	Seed int64
	// CompactRand replaces the node's Go 1 lagged-Fibonacci random
	// source (~4.9 KiB of state) with a splitmix64 source (8 bytes).
	// The streams differ, so this must only be enabled for tiers whose
	// recorded output does not predate the flag; the bulk-constructed
	// Large/Huge tiers use it (see compactrand.go).
	CompactRand bool
}

// neighborhoodSize is the paper's |M|, the neighborhood-set capacity.
const neighborhoodSize = 32

// DefaultConfig returns the paper's typical parameters.
func DefaultConfig() Config {
	return Config{
		B:           4,
		L:           32,
		KeepAlive:   0,
		FailTimeout: 2 * time.Second,
		JoinTimeout: time.Minute,
		Randomize:   false,
		Bias:        0.85,
	}
}

// App receives upcalls from the routing layer. Upcalls run without the
// node lock held, so an App may freely call back into the Node.
type App interface {
	// Deliver is invoked when this node is the numerically closest live
	// node for the message's key.
	Deliver(r wire.Routed, from wire.NodeRef)
	// Forward is invoked before relaying a routed message; returning
	// false consumes the message (used by PAST to satisfy lookups from
	// caches mid-route). Implementations may mutate the payload.
	Forward(r *wire.Routed, next wire.NodeRef) bool
	// HandleDirect receives non-routed application messages; it reports
	// whether it consumed the message.
	HandleDirect(from wire.NodeRef, m wire.Msg) bool
	// LeafSetChanged is invoked after the leaf set gains or loses
	// members; PAST uses it to restore replication (section 2.1,
	// "Persistence").
	LeafSetChanged()
}

// Maintainer is an optional App extension. When the application layer
// implements it, Maintain is invoked after every keep-alive round —
// without the node lock held, like all upcalls — giving the app a
// periodic, failure-detector-aligned hook for low-frequency background
// maintenance (PAST schedules its anti-entropy replica sweeps on it).
// Nodes with keep-alives disabled never call Maintain.
type Maintainer interface {
	Maintain()
}

// NopApp is an App that does nothing; embed it to implement only part of
// the interface.
type NopApp struct{}

// Deliver implements App.
func (NopApp) Deliver(wire.Routed, wire.NodeRef) {}

// Forward implements App.
func (NopApp) Forward(*wire.Routed, wire.NodeRef) bool { return true }

// HandleDirect implements App.
func (NopApp) HandleDirect(wire.NodeRef, wire.Msg) bool { return false }

// LeafSetChanged implements App.
func (NopApp) LeafSetChanged() {}

// ErrJoinTimeout reports that the join state transfer did not complete.
var ErrJoinTimeout = errors.New("pastry: join timed out")

// Node is a Pastry overlay node.
type Node struct {
	cfg   Config
	ref   wire.NodeRef
	tr    transport.Transport
	clock transport.Clock
	app   App

	mu    sync.Mutex
	rt    RoutingTable
	leaf  LeafSet
	nbhd  Neighborhood
	rng   *rand.Rand
	alive bool

	// Probe, when non-nil, checks reachability of a next hop before
	// forwarding (modelling transport-level failure detection); a failed
	// probe triggers routing around the node and state repair.
	probe func(addr string) bool

	joined    bool
	joinDone  func(error) // non-nil while a join is pending
	joinTimer transport.Timer
	joinSeen  map[id.Node]bool // nodes discovered during join, to announce to
	// seeds is the list the last Join was given, and seedNext the cursor
	// into it: a seed that times out moves the cursor past itself, so the
	// next pass starts at a seed that has not just failed. joinLeft counts
	// the seeds the pending pass has still to try.
	seeds    []string
	seedNext int
	joinLeft int
	// leafMax is the largest leaf set a keep-alive tick has seen; a tick
	// that finds fewer than half of it re-joins through the seeds.
	leafMax int

	// lastSeen is the silence clock per directly heard peer, plus what
	// noteAlive needs to tell a repeat offer from a new one (sighting). It
	// is the one owner of every sighting; the handles it holds stay put
	// until removeDeadLocked deletes one or Recover drops the map.
	lastSeen map[id.Node]*sighting
	// watch is the leaf set's members in ForEach order, each with its
	// sighting, so keepAliveTick looks nothing up. It was built at leaf
	// version watchVer-1; 0 means rebuild. See keepAliveTick for why no
	// handle in it goes stale.
	watch    []watched
	watchVer uint64
	// candBuf and candSeen are per-node scratch reused by candidates()
	// so per-route candidate scans allocate nothing in steady state.
	// Guarded by mu, like the routing state they snapshot; callers must
	// not retain the returned slice past the locked section.
	candBuf  []wire.NodeRef
	candSeen map[id.Node]struct{}
	// suspect records nodes recently declared dead; third-party mentions
	// of them (in leaf-set replies, announce fan-out, etc.) are ignored
	// until the entry expires, so repair gossip from peers that have not
	// yet noticed a crash cannot resurrect the dead node. Direct traffic
	// from the node itself clears the suspicion.
	suspect  map[id.Node]time.Duration
	kaTimer  transport.Timer
	kaTicks  uint64
	nonceSeq uint64
}

// New creates a node. The transport's handler is installed immediately;
// the node participates once Bootstrap or Join is called.
func New(cfg Config, nodeID id.Node, tr transport.Transport, clock transport.Clock, app App) *Node {
	if cfg.B <= 0 || cfg.B > 8 {
		panic(fmt.Sprintf("pastry: b=%d out of range (1..8)", cfg.B))
	}
	if cfg.L < 2 {
		panic(fmt.Sprintf("pastry: l=%d too small", cfg.L))
	}
	if app == nil {
		app = NopApp{}
	}
	n := &Node{
		cfg:   cfg,
		ref:   wire.NodeRef{ID: nodeID, Addr: tr.Addr()},
		tr:    tr,
		clock: clock,
		app:   app,
		rt:    *NewRoutingTable(nodeID, cfg.B),
		leaf:  *NewLeafSet(nodeID, cfg.L),
		nbhd:  *NewNeighborhood(neighborhoodSize),
	}
	tr.SetHandler(n.handle)
	return n
}

// rand returns the node's seeded random stream, created on first draw.
// Laziness matters at scale: a bulk-constructed node that never routes
// traffic of its own never draws, so it never pays for the stream state
// (~4.9 KiB under the default Go 1 source). Deferring creation cannot
// change any result — the stream starts at the same seed whenever it is
// first needed. Lock held.
func (n *Node) rand() *rand.Rand {
	if n.rng == nil {
		if n.cfg.CompactRand {
			n.rng = rand.New(newSplitmix64(n.cfg.Seed))
		} else {
			n.rng = rand.New(rand.NewSource(n.cfg.Seed))
		}
	}
	return n.rng
}

// sighting is what a node keeps of a peer it hears from directly: when it
// last did (the silence clock keepAliveTick reads) and, once noteAlive has
// folded the peer into the routing state, the address and proximity that
// offer carried and the state's version (stateVer) just after it; ver 0
// records no offer. lastSeen holds it by reference, so one lookup yields a
// handle that is read and updated in place.
type sighting struct {
	at   time.Duration
	addr string
	prox float64
	ver  uint64
}

// watched is a leaf member as keepAliveTick visits it.
type watched struct {
	ref  wire.NodeRef
	seen *sighting
}

// stateVer is the version of the routing table, leaf set and neighborhood
// together: it moves whenever any of them changes, and is never 0. Lock
// held.
func (n *Node) stateVer() uint64 { return 1 + n.rt.ver + n.leaf.ver + n.nbhd.ver }

// sawNow records when a peer was last directly heard from. Lock held.
func (n *Node) sawNow(peer id.Node) {
	n.sightingOf(peer).at = n.clock.Now()
}

// sightingOf returns peer's sighting, creating an empty one (and the map)
// on first contact. Lock held.
func (n *Node) sightingOf(peer id.Node) *sighting {
	if s := n.lastSeen[peer]; s != nil {
		return s
	}
	if n.lastSeen == nil {
		n.lastSeen = make(map[id.Node]*sighting)
	}
	s := &sighting{}
	n.lastSeen[peer] = s
	return s
}

// SetApp installs the application layer. It must be called before the
// node joins a network; constructing with a nil app installs NopApp.
func (n *Node) SetApp(app App) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if app == nil {
		app = NopApp{}
	}
	n.app = app
}

// Ref returns this node's identity and address.
func (n *Node) Ref() wire.NodeRef { return n.ref }

// ID returns this node's Pastry identifier.
func (n *Node) ID() id.Node { return n.ref.ID }

// SetProbe installs a reachability oracle used before forwarding. In the
// simulator this models the immediate connection failure a TCP transport
// observes when the peer is gone.
func (n *Node) SetProbe(p func(addr string) bool) {
	n.mu.Lock()
	n.probe = p
	n.mu.Unlock()
}

// Joined reports whether the node has completed its join.
func (n *Node) Joined() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.joined
}

// Bootstrap marks this node as the first member of a new PAST network.
func (n *Node) Bootstrap() {
	n.mu.Lock()
	n.joined = true
	n.alive = true
	n.mu.Unlock()
	n.startKeepAlive()
}

// Join initiates the join protocol of section 2.2 via a seed node ("a
// nearby node A"). It makes one pass over seeds (at least one), starting
// at the node's rotation cursor and giving each seed JoinTimeout. done is
// invoked exactly once: with nil on the first completed join, or with
// ErrJoinTimeout once every seed has failed. The node keeps a copy of
// seeds for the keep-alive tick's re-join. Calling Join on a node that is
// already a member re-anchors it: the seed's state is merged, arrival is
// re-announced, and its membership is kept (the nodes on the join's path
// drop its entry until the announce puts it back) — how a node on the
// small side of a healed partition stitches itself back to the main
// component.
func (n *Node) Join(seeds []string, done func(error)) {
	n.mu.Lock()
	n.alive = true
	// A retry supersedes any still-armed attempt: stop the previous
	// timeout first, or it would fire ErrJoinTimeout into the NEW
	// attempt's callback and kill a join that was about to succeed.
	if n.joinTimer != nil {
		n.joinTimer.Stop()
		n.joinTimer.Release()
		n.joinTimer = nil
	}
	n.seeds = append(n.seeds[:0], seeds...)
	n.joinDone = done
	n.joinSeen = make(map[id.Node]bool)
	n.joinLeft = len(seeds)
	seed, msg := n.joinNextLocked()
	n.mu.Unlock()
	n.tr.Send(seed, msg)
}

// joinNextLocked arms the pending join's timeout and returns its request
// and the seed under the cursor to send it to. Lock held.
func (n *Node) joinNextLocked() (string, wire.Routed) {
	n.joinLeft--
	if n.cfg.JoinTimeout > 0 {
		n.joinTimer = n.clock.AfterFunc(n.cfg.JoinTimeout, n.joinTimedOut)
	}
	return n.seeds[n.seedNext%len(n.seeds)], wire.Routed{
		Key:     n.ref.ID,
		Payload: wire.JoinRequest{New: n.ref},
		Origin:  n.ref,
		Nonce:   n.nextNonce(),
	}
}

// joinTimedOut moves the cursor past the seed that did not answer and
// tries the next one, or ends the pass with ErrJoinTimeout.
func (n *Node) joinTimedOut() {
	n.mu.Lock()
	if n.joinTimer != nil {
		n.joinTimer.Release() // fired; recycle the handle
		n.joinTimer = nil
	}
	done := n.joinDone
	if done == nil {
		n.mu.Unlock()
		return
	}
	n.seedNext++
	if n.joinLeft > 0 && n.alive {
		seed, msg := n.joinNextLocked()
		n.mu.Unlock()
		n.tr.Send(seed, msg)
		return
	}
	n.joinDone = nil
	n.mu.Unlock()
	// Even an already-joined node's re-anchor attempt must report its
	// timeout, or the caller's retry loop stalls on a seed that never
	// answered.
	done(ErrJoinTimeout)
}

func (n *Node) nextNonce() uint64 {
	n.nonceSeq++
	return uint64(n.rand().Int63())<<8 | n.nonceSeq&0xff
}

// Route injects a message keyed by key into the overlay from this node.
func (n *Node) Route(key id.Node, payload wire.Msg) {
	n.mu.Lock()
	r := wire.Routed{Key: key, Payload: payload, Origin: n.ref, Nonce: n.nextNonce()}
	act := n.handleRouted(n.ref.Addr, r)
	n.mu.Unlock()
	if act != nil {
		act()
	}
}

// Send transmits an application message directly to a known node,
// bypassing overlay routing (used for replies and replica transfer).
func (n *Node) Send(to wire.NodeRef, m wire.Msg) {
	n.tr.Send(to.Addr, m)
}

// Proximity exposes the transport's proximity metric.
func (n *Node) Proximity(addr string) float64 { return n.tr.Proximity(addr) }

// Clock exposes the node's clock for the application layer.
func (n *Node) Clock() transport.Clock { return n.clock }

// Rand returns a pseudo-random uint64 from the node's seeded stream.
func (n *Node) Rand() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return uint64(n.rand().Int63())
}

// Reachable consults the transport-level failure detector (when
// installed) so the application layer can avoid sending directly to dead
// nodes — e.g. chasing a diversion pointer to a partitioned holder; an
// unreachable peer is also purged from routing state.
func (n *Node) Reachable(ref wire.NodeRef) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.reachable(ref) {
		return true
	}
	n.removeDeadLocked(ref.ID)
	return false
}

// LeafMembers returns the current leaf-set membership.
func (n *Node) LeafMembers() []wire.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaf.Members()
}

// ClosestK returns the k nodes numerically closest to key among this node
// and its leaf set, closest first (LeafSet.AppendClosestK): the replica
// set of section 2 as this node sees it.
func (n *Node) ClosestK(key id.Node, k int) []wire.NodeRef {
	return n.AppendClosestK(nil, key, k)
}

// AppendClosestK is ClosestK appending to dst, which a caller asking for
// many keys reuses.
func (n *Node) AppendClosestK(dst []wire.NodeRef, key id.Node, k int) []wire.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaf.AppendClosestK(dst, n.ref, key, k)
}

// LeafSmaller returns the counter-clockwise leaf half, closest first.
func (n *Node) LeafSmaller() []wire.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaf.Smaller()
}

// LeafLarger returns the clockwise leaf half, closest first.
func (n *Node) LeafLarger() []wire.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaf.Larger()
}

// NeighborhoodMembers returns the proximity-based neighborhood set.
func (n *Node) NeighborhoodMembers() []wire.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nbhd.Members()
}

// StateSize returns the number of populated routing-table entries and the
// leaf plus neighborhood membership counts (for experiment E6).
func (n *Node) StateSize() (rt, leaf, nbhd int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rt.Size(), n.leaf.Len(), n.nbhd.Len()
}

// RoutingEntry returns the routing-table entry at (row, col), if
// populated (used by construction-equivalence tests and diagnostics).
func (n *Node) RoutingEntry(row, col int) (wire.NodeRef, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rt.Get(row, col)
}

// RoutingTableRows returns the populated row count.
func (n *Node) RoutingTableRows() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rt.PopulatedRows()
}

// run executes deferred upcalls outside the node lock.
func run(acts []func()) {
	for _, a := range acts {
		a()
	}
}

// handle is the transport inbound entry point.
func (n *Node) handle(from string, m wire.Msg) {
	n.mu.Lock()
	if !n.alive && !n.joined {
		// A node that has not started participating ignores traffic.
		n.mu.Unlock()
		return
	}
	var acts []func()
	var act func() // single deferred upcall for the hot Routed path
	switch msg := m.(type) {
	case wire.Routed:
		act = n.handleRouted(from, msg)
	case wire.RouteRows:
		acts = n.handleRouteRows(msg)
	case wire.LeafSetReply:
		acts = n.handleLeafSetReply(msg)
	case wire.LeafSetRequest:
		n.noteAlive(msg.From)
		n.tr.Send(msg.From.Addr, wire.LeafSetReply{From: n.ref, Leaves: n.leaf.Members()})
	case wire.NeighborhoodReply:
		acts = n.handleNeighborhoodReply(msg)
	case wire.Announce:
		acts = n.handleAnnounce(msg)
	case wire.Heartbeat:
		n.noteAlive(msg.From)
	case wire.Depart:
		acts = n.declareDeadLocked(msg.From)
	case wire.Ping:
		n.tr.Send(msg.From.Addr, wire.Pong{From: n.ref, Nonce: msg.Nonce})
	case wire.Pong:
		n.noteAlive(msg.From)
	case wire.RTRepairRequest:
		n.handleRTRepairRequest(msg)
	case wire.RTRepairReply:
		n.handleRTRepairReply(msg)
	default:
		ref := wire.NodeRef{Addr: from}
		app := n.app
		n.mu.Unlock()
		app.HandleDirect(ref, m)
		return
	}
	n.mu.Unlock()
	if act != nil {
		act()
	}
	run(acts)
}

// noteAlive records direct evidence of life (a message from the node
// itself) and folds the node into local state. The fold is skipped when
// it cannot change anything: the three Considers are idempotent — the
// routing table replaces only a strictly closer entry and refreshes its own
// to the same values, a held leaf or neighbor takes the address it already
// has, a full half or neighborhood refuses a no-closer offer again — so an
// offer with the sighting's address and proximity, on a state still at the
// version that offer left, would be a no-op. Lock held.
func (n *Node) noteAlive(ref wire.NodeRef) {
	if ref.IsZero() || ref.ID == n.ref.ID {
		return
	}
	if len(n.suspect) > 0 {
		delete(n.suspect, ref.ID) // direct contact clears suspicion
	}
	prox := n.tr.Proximity(ref.Addr)
	s := n.sightingOf(ref.ID)
	s.at = n.clock.Now()
	if s.ver != n.stateVer() || s.addr != ref.Addr || s.prox != prox {
		n.fold(ref, prox, true)
		s.addr, s.prox, s.ver = ref.Addr, prox, n.stateVer()
	}
}

// suspected reports whether ref was recently declared dead and the
// suspicion has not yet expired. Lock held.
func (n *Node) suspected(nid id.Node) bool {
	if len(n.suspect) == 0 {
		return false
	}
	at, ok := n.suspect[nid]
	if !ok {
		return false
	}
	if n.clock.Now()-at > 3*n.cfg.FailTimeout {
		delete(n.suspect, nid)
		return false
	}
	return true
}

// considerLocked folds ref into the routing table, leaf set and
// neighborhood set. Suspected-dead nodes are ignored. direct says ref sent
// the message in hand itself; a third party's list may carry the address of
// ref's previous process, so only direct evidence moves a held leaf or
// neighborhood entry to ref.Addr. It returns whether the leaf set changed.
// Lock held.
func (n *Node) considerLocked(ref wire.NodeRef, direct bool) bool {
	if ref.IsZero() || ref.ID == n.ref.ID || n.suspected(ref.ID) {
		return false
	}
	return n.fold(ref, n.tr.Proximity(ref.Addr), direct)
}

// fold offers ref, at proximity prox, to the routing table, neighborhood
// and leaf set, and reports whether the leaf set changed. Lock held.
func (n *Node) fold(ref wire.NodeRef, prox float64, direct bool) bool {
	n.rt.Consider(ref, prox)
	n.nbhd.Consider(ref, prox, direct)
	return n.leaf.Consider(ref, direct)
}

// ---------------------------------------------------------------------------
// Routing

// handleRouted implements the routing procedure of section 2.2. Lock held;
// returns the single deferred upcall (or nil).
func (n *Node) handleRouted(from string, r wire.Routed) func() {
	if jr, ok := r.Payload.(wire.JoinRequest); ok {
		return n.handleJoinRouted(from, r, jr)
	}
	next, deliver := n.nextHop(r.Key)
	if deliver {
		app := n.app
		fromRef := wire.NodeRef{Addr: from}
		return func() { app.Deliver(r, fromRef) }
	}
	app := n.app
	fwd := r
	fwd.Hops++
	fwd.Distance += n.tr.Proximity(next.Addr)
	tr := n.tr
	return func() {
		if app.Forward(&fwd, next) {
			tr.Send(next.Addr, fwd)
		}
	}
}

// nextHop picks the routing target for key per section 2.2: the leaf set
// when key is within its span, otherwise a routing-table entry with a
// longer shared prefix, otherwise any known node with an equal-length
// prefix that is numerically closer ("rare case"). Lock held.
func (n *Node) nextHop(key id.Node) (next wire.NodeRef, deliver bool) {
	if key == n.ref.ID {
		return wire.NodeRef{}, true
	}
	if n.cfg.Randomize {
		return n.nextHopRandomized(key)
	}
	if n.leaf.InRange(key) {
		best, selfBest := n.leaf.Closest(key)
		if selfBest {
			return wire.NodeRef{}, true
		}
		if n.reachable(best) {
			return best, false
		}
		n.failedPeer(best)
	}
	if e, ok := n.rt.Lookup(key); ok {
		if n.reachable(e) {
			return e, false
		}
		n.failedPeer(e)
	}
	// Rare case: any known node with prefix >= ours that is numerically
	// closer to the key.
	if c, ok := n.rareCase(key); ok {
		return c, false
	}
	return wire.NodeRef{}, true
}

// rareCase scans all known nodes for an admissible next hop. Lock held.
func (n *Node) rareCase(key id.Node) (wire.NodeRef, bool) {
	myPrefix := id.CommonPrefix(n.ref.ID, key, n.cfg.B)
	var best wire.NodeRef
	found := false
	for _, c := range n.candidates() {
		if id.CommonPrefix(c.ID, key, n.cfg.B) < myPrefix {
			continue
		}
		if !id.Closer(key, c.ID, n.ref.ID) {
			continue
		}
		if !found || id.Closer(key, c.ID, best.ID) {
			if n.reachable(c) {
				best = c
				found = true
			} else {
				n.failedPeer(c)
			}
		}
	}
	return best, found
}

// candidates lists every node in local state, deduplicated, into the
// node's reusable scratch slice. Lock held. The returned slice is valid
// only until the next candidates() call and must not be retained.
func (n *Node) candidates() []wire.NodeRef {
	if n.candSeen == nil {
		n.candSeen = make(map[id.Node]struct{}, 64)
	} else {
		clear(n.candSeen)
	}
	out := n.candBuf[:0]
	add := func(c wire.NodeRef) {
		if c.IsZero() || c.ID == n.ref.ID {
			return
		}
		if _, dup := n.candSeen[c.ID]; dup {
			return
		}
		n.candSeen[c.ID] = struct{}{}
		out = append(out, c)
	}
	n.leaf.ForEach(add)
	n.rt.ForEach(add)
	n.nbhd.ForEach(add)
	n.candBuf = out
	return out
}

// nextHopRandomized implements the fault-tolerant randomized routing of
// section 2.2: any node that shares at least as long a prefix with the key
// and is numerically closer than this node is admissible; the choice is
// heavily biased towards the best (longest prefix, then proximity). The
// final approach still goes through the leaf set deterministically — the
// prefix constraint alone cannot cross a digit boundary to the true
// numerically closest node (e.g. key 0x7ff… owned by 0x800…). Lock held.
func (n *Node) nextHopRandomized(key id.Node) (wire.NodeRef, bool) {
	if n.leaf.InRange(key) {
		best, selfBest := n.leaf.Closest(key)
		if selfBest {
			return wire.NodeRef{}, true
		}
		if n.reachable(best) {
			return best, false
		}
		n.failedPeer(best)
	}
	myPrefix := id.CommonPrefix(n.ref.ID, key, n.cfg.B)
	type cand struct {
		ref    wire.NodeRef
		prefix int
		prox   float64
	}
	var cands []cand
	for _, c := range n.candidates() {
		p := id.CommonPrefix(c.ID, key, n.cfg.B)
		if p < myPrefix || !id.Closer(key, c.ID, n.ref.ID) {
			continue
		}
		if !n.reachable(c) {
			n.failedPeer(c)
			continue
		}
		cands = append(cands, cand{c, p, n.tr.Proximity(c.Addr)})
	}
	if len(cands) == 0 {
		// No prefix-qualifying candidate: take any strictly
		// numerically-closer node (numeric distance decreases every hop,
		// so this cannot loop), else deliver here.
		var best wire.NodeRef
		found := false
		for _, c := range n.candidates() {
			if !id.Closer(key, c.ID, n.ref.ID) {
				continue
			}
			if !found || id.Closer(key, c.ID, best.ID) {
				if n.reachable(c) {
					best = c
					found = true
				} else {
					n.failedPeer(c)
				}
			}
		}
		if found {
			return best, false
		}
		return wire.NodeRef{}, true
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prefix != cands[j].prefix {
			return cands[i].prefix > cands[j].prefix
		}
		if id.Closer(key, cands[i].ref.ID, cands[j].ref.ID) {
			return true
		}
		if id.Closer(key, cands[j].ref.ID, cands[i].ref.ID) {
			return false
		}
		return cands[i].prox < cands[j].prox
	})
	// Geometric selection biased towards the head of the ranking.
	bias := n.cfg.Bias
	if bias <= 0 || bias >= 1 {
		bias = 0.85
	}
	idx := 0
	for idx < len(cands)-1 && n.rand().Float64() > bias {
		idx++
	}
	return cands[idx].ref, false
}

// reachable consults the probe oracle. Lock held.
func (n *Node) reachable(ref wire.NodeRef) bool {
	if n.probe == nil {
		return true
	}
	return n.probe(ref.Addr)
}

// failedPeer removes a peer that failed a reachability probe and starts
// repair. Lock held.
func (n *Node) failedPeer(ref wire.NodeRef) {
	n.removeDeadLocked(ref.ID)
}

// ---------------------------------------------------------------------------
// Join protocol (section 2.2, "Node addition")

// handleJoinRouted processes a JoinRequest travelling toward the joining
// node's id. Every node on the path contributes routing rows; the first
// node contributes its neighborhood set; the final node contributes its
// leaf set. Lock held; returns the single deferred upcall (or nil).
func (n *Node) handleJoinRouted(from string, r wire.Routed, jr wire.JoinRequest) func() {
	x := jr.New
	if x.ID == n.ref.ID {
		return nil // own join echoed back; ignore
	}
	// Contribute routing rows 0..p where p is the shared prefix length:
	// row i of this node's table is valid as row i for X whenever the ids
	// agree on the first i digits.
	p := id.CommonPrefix(n.ref.ID, x.ID, n.cfg.B)
	maxRow := n.rt.PopulatedRows()
	if p+1 < maxRow {
		maxRow = p + 1
	}
	rows := make([][]wire.NodeRef, 0, maxRow)
	for i := 0; i < maxRow; i++ {
		rows = append(rows, n.rt.Row(i))
	}
	n.tr.Send(x.Addr, wire.RouteRows{From: n.ref, FirstRow: 0, Rows: rows})
	if r.Hops == 0 {
		// This is node A, the join seed: contribute the neighborhood set.
		n.tr.Send(x.Addr, wire.NeighborhoodReply{From: n.ref, Neighbors: n.nbhd.Members()})
	}
	next, deliver := n.nextHop(x.ID)
	var act func()
	if !deliver && next.ID == x.ID {
		// X cannot be its own next hop: a join forwarded into the entry
		// is lost, so drop it and pick again. An entry at another address
		// is what X's previous process left behind (a silent Leave or a
		// kill tells nobody): suspect it, so gossip cannot bring it back.
		// One at X's address is X itself re-anchoring: forget it without
		// suspicion, so X's announce brings it back.
		drop := n.forgetLocked
		if next.Addr != x.Addr {
			drop = n.removeDeadLocked
		}
		if drop(x.ID) {
			act = n.app.LeafSetChanged
		}
		next, deliver = n.nextHop(x.ID)
	}
	if deliver {
		// This is node Z, numerically closest to X: contribute the leaf set.
		n.tr.Send(x.Addr, wire.LeafSetReply{From: n.ref, Leaves: n.leaf.Members(), Terminal: true})
		return act
	}
	fwd := r
	fwd.Hops++
	fwd.Distance += n.tr.Proximity(next.Addr)
	n.tr.Send(next.Addr, fwd)
	return act
}

// handleRouteRows folds received rows into the joining node's state. Lock
// held.
func (n *Node) handleRouteRows(m wire.RouteRows) []func() {
	n.noteJoinContact(m.From)
	for _, row := range m.Rows {
		for _, ref := range row {
			n.noteJoinContact(ref)
		}
	}
	return nil
}

// noteJoinContact records a node discovered during join. Lock held.
func (n *Node) noteJoinContact(ref wire.NodeRef) {
	if ref.IsZero() || ref.ID == n.ref.ID {
		return
	}
	if n.joinSeen != nil {
		n.joinSeen[ref.ID] = true
	}
	n.considerLocked(ref, false)
	n.sawNow(ref.ID)
}

// handleNeighborhoodReply folds node A's neighborhood set in. Lock held.
func (n *Node) handleNeighborhoodReply(m wire.NeighborhoodReply) []func() {
	n.noteJoinContact(m.From)
	for _, ref := range m.Neighbors {
		n.noteJoinContact(ref)
	}
	return nil
}

// handleLeafSetReply completes a join (Terminal) or merges a repair
// response. Lock held.
func (n *Node) handleLeafSetReply(m wire.LeafSetReply) []func() {
	changed := false
	if n.considerLocked(m.From, true) {
		changed = true
	}
	n.sawNow(m.From.ID)
	for _, ref := range m.Leaves {
		if ref.ID == n.ref.ID {
			continue
		}
		if n.joinSeen != nil && !n.joined {
			n.noteJoinContact(ref)
		}
		if n.considerLocked(ref, false) {
			changed = true
		}
		n.sawNow(ref.ID)
	}
	var acts []func()
	// A Terminal reply completes whatever join attempt is pending — the
	// first join of a fresh node or the re-anchor of a live one. Gating on
	// the pending callback (not on n.joined) lets a partition survivor
	// re-join through a seed and still get its completion.
	if m.Terminal && n.joinDone != nil {
		acts = append(acts, n.completeJoinLocked()...)
	}
	if changed {
		app := n.app
		acts = append(acts, app.LeafSetChanged)
	}
	return acts
}

// completeJoinLocked finishes the join: announce arrival to every node
// discovered, start keep-alives, invoke the done callback. Lock held.
func (n *Node) completeJoinLocked() []func() {
	n.joined = true
	if n.joinTimer != nil {
		n.joinTimer.Stop()
		n.joinTimer.Release()
		n.joinTimer = nil
	}
	targets := make([]wire.NodeRef, 0, len(n.joinSeen))
	seen := make(map[id.Node]bool, len(n.joinSeen))
	for _, c := range n.candidates() {
		if !seen[c.ID] {
			seen[c.ID] = true
			targets = append(targets, c)
		}
	}
	n.joinSeen = nil
	ann := wire.Announce{From: n.ref}
	for _, t := range targets {
		n.tr.Send(t.Addr, ann)
	}
	done := n.joinDone
	n.joinDone = nil
	acts := []func(){n.startKeepAlive}
	if done != nil {
		acts = append(acts, func() { done(nil) })
	}
	return acts
}

// handleAnnounce folds a newly joined node into local state. Lock held.
func (n *Node) handleAnnounce(m wire.Announce) []func() {
	n.sawNow(m.From.ID)
	if n.considerLocked(m.From, true) {
		app := n.app
		return []func(){app.LeafSetChanged}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Failure detection and repair (section 2.2, "Node addition and failure")

func (n *Node) startKeepAlive() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.KeepAlive <= 0 || n.kaTimer != nil {
		return
	}
	n.kaTimer = n.clock.AfterFunc(n.cfg.KeepAlive, n.keepAliveTick)
}

func (n *Node) keepAliveTick() {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return
	}
	now := n.clock.Now()
	// One interface value for every send of the tick: a sent message is
	// immutable on both transports.
	var hb wire.Msg = wire.Heartbeat{From: n.ref}
	var dead []wire.NodeRef
	// The watch list mirrors the leaf set at one version, and a handle in
	// it cannot outlive its map entry: only removeDeadLocked deletes an
	// entry, and it also removes the node from the leaf set, moving the
	// version; Recover drops the whole map and the list with it. A handle
	// is nil only in the tick that built the list, which fills it.
	if n.watchVer != n.leaf.ver+1 {
		n.watch = n.watch[:0]
		n.leaf.ForEach(func(m wire.NodeRef) { n.watch = append(n.watch, watched{m, n.lastSeen[m.ID]}) })
		n.watchVer = n.leaf.ver + 1
	}
	for i := range n.watch {
		w := &n.watch[i]
		if w.seen == nil {
			// First sighting without traffic: start the silence clock.
			w.seen = n.sightingOf(w.ref.ID)
			w.seen.at = now
		} else if now-w.seen.at > n.cfg.FailTimeout {
			dead = append(dead, w.ref)
			continue
		}
		n.tr.Send(w.ref.Addr, hb)
	}
	// The watch list mirrors the leaf set: it holds len(n.watch) members
	// now and len(dead) fewer once this tick's deaths are applied.
	n.leafMax = max(n.leafMax, len(n.watch))
	left := len(n.watch) - len(dead)
	var acts []func()
	for _, d := range dead {
		acts = append(acts, n.declareDeadLocked(d)...)
	}
	// Re-join when the view has collapsed: on the small side of a
	// partition a node still knows its fellow members, so the trigger is
	// losing half of the largest leaf set held, not only all of it. Each
	// tick is the retry of a pass that failed. A re-join of a live node
	// keeps its membership, so a false positive costs one join's traffic.
	if (left == 0 || 2*left < n.leafMax) && len(n.seeds) > 0 && n.joinDone == nil {
		// Start past the seed the last join went through: on the small
		// side of a cut it answers from inside it.
		n.seedNext++
		n.joinDone = func(error) {}
		n.joinLeft = len(n.seeds)
		n.tr.Send(n.joinNextLocked())
	}
	n.kaTicks++
	if n.cfg.LeafSync > 0 && n.kaTicks%uint64(n.cfg.LeafSync) == 0 {
		// Membership anti-entropy: ask one random known peer for its leaf
		// set. The reply folds its members into local state, so partial
		// views (a join whose state transfer was lossy, a heal the
		// announce fan-out missed) converge instead of persisting.
		if cands := n.candidates(); len(cands) > 0 {
			pick := cands[n.rand().Intn(len(cands))]
			n.tr.Send(pick.Addr, wire.LeafSetRequest{From: n.ref})
		}
	}
	maintainer, _ := n.app.(Maintainer)
	if n.kaTimer != nil {
		n.kaTimer.Release() // this tick's handle has fired; recycle it
	}
	n.kaTimer = n.clock.AfterFunc(n.cfg.KeepAlive, n.keepAliveTick)
	n.mu.Unlock()
	run(acts)
	if maintainer != nil {
		maintainer.Maintain()
	}
}

// declareDeadLocked removes a failed node and repairs the leaf set by
// asking the extreme live member on the failed node's side for its leaf
// set. Lock held.
func (n *Node) declareDeadLocked(ref wire.NodeRef) []func() {
	clockwise := n.leaf.SideOf(ref.ID)
	if !n.removeDeadLocked(ref.ID) {
		return nil
	}
	if ext, ok := n.leaf.Extreme(clockwise); ok && ext.ID != ref.ID {
		n.tr.Send(ext.Addr, wire.LeafSetRequest{From: n.ref})
	} else if ext, ok := n.leaf.Extreme(!clockwise); ok {
		n.tr.Send(ext.Addr, wire.LeafSetRequest{From: n.ref})
	}
	app := n.app
	return []func(){app.LeafSetChanged}
}

// removeDeadLocked suspects a node and forgets it. Lock held.
func (n *Node) removeDeadLocked(dead id.Node) bool {
	if n.suspect == nil {
		n.suspect = make(map[id.Node]time.Duration)
	}
	n.suspect[dead] = n.clock.Now()
	return n.forgetLocked(dead)
}

// forgetLocked purges a node from all local state and requests a lazy
// routing-table repair for the vacated slot. Lock held.
func (n *Node) forgetLocked(dead id.Node) bool {
	inLeaf := n.leaf.Remove(dead)
	row, col, ok := n.rt.coords(dead)
	inRT := n.rt.Remove(dead)
	n.nbhd.Remove(dead)
	delete(n.lastSeen, dead)
	if inRT && ok {
		n.requestRTRepairLocked(row, col)
	}
	return inLeaf || inRT
}

// requestRTRepairLocked asks peers for a replacement entry matching
// (row, col) relative to this node's id: first same-row entries, then leaf
// members (the paper's lazy repair). Lock held.
func (n *Node) requestRTRepairLocked(row, col int) {
	req := wire.RTRepairRequest{From: n.ref, Row: row, Col: col}
	sent := 0
	for _, e := range n.rt.Row(row) {
		if sent >= 2 {
			break
		}
		n.tr.Send(e.Addr, req)
		sent++
	}
	if sent == 0 {
		for _, m := range n.leaf.Members() {
			if sent >= 2 {
				break
			}
			n.tr.Send(m.Addr, req)
			sent++
		}
	}
}

// handleRTRepairRequest searches local state for a node matching the
// requester's (row, col) pattern: shares `row` digits with the requester
// and has digit `col` at position row. Lock held.
func (n *Node) handleRTRepairRequest(m wire.RTRepairRequest) {
	want := wire.NodeRef{}
	for _, c := range n.candidates() {
		if c.ID == m.From.ID {
			continue
		}
		if id.CommonPrefix(c.ID, m.From.ID, n.cfg.B) >= m.Row && c.ID.Digit(m.Row, n.cfg.B) == m.Col {
			want = c
			break
		}
	}
	// Also consider this node itself.
	if want.IsZero() &&
		id.CommonPrefix(n.ref.ID, m.From.ID, n.cfg.B) >= m.Row &&
		n.ref.ID.Digit(m.Row, n.cfg.B) == m.Col {
		want = n.ref
	}
	n.tr.Send(m.From.Addr, wire.RTRepairReply{From: n.ref, Row: m.Row, Col: m.Col, Entry: want})
}

// handleRTRepairReply folds a repair candidate into the table. Lock held.
func (n *Node) handleRTRepairReply(m wire.RTRepairReply) {
	n.noteAlive(m.From)
	if !m.Entry.IsZero() && m.Entry.ID != n.ref.ID {
		n.considerLocked(m.Entry, false)
	}
}

// Depart shuts the node down gracefully: it tells its leaf-set members
// it is going (so they repair their state and restore replication
// immediately instead of waiting out FailTimeout), then stops
// participating. The paper's failure model is silent departure (Leave);
// Depart models the cooperative case a long-lived deployment also sees.
func (n *Node) Depart() {
	n.mu.Lock()
	if n.alive {
		bye := wire.Depart{From: n.ref}
		for _, m := range n.leaf.Members() {
			n.tr.Send(m.Addr, bye)
		}
	}
	n.mu.Unlock()
	n.Leave() // shared shutdown tail: flags, keep-alive timer
}

// Leave shuts the node down silently (it stops responding), modelling the
// paper's "nodes may silently leave the system without warning". The
// node's state is retained so Recover can bring it back.
func (n *Node) Leave() {
	n.mu.Lock()
	n.alive = false
	n.joined = false
	if n.kaTimer != nil {
		n.kaTimer.Stop()
		n.kaTimer.Release()
		n.kaTimer = nil
	}
	n.mu.Unlock()
}

// Recover implements the recovery protocol of section 2.2: "a recovering
// node contacts the nodes in its last known leaf set, obtains their
// current leaf sets, updates its own leaf set and then notifies the
// members of its presence". Peers will have declared this node dead while
// it was gone; the Announce makes them re-admit it (direct contact clears
// their suspicion) and triggers their LeafSetChanged upcalls, so the
// storage layer restores any replicas this node should hold.
func (n *Node) Recover() {
	n.mu.Lock()
	n.alive = true
	n.joined = true
	known := n.leaf.Members()
	// The world moved on while we were gone: our view of who is alive is
	// stale, so restart the silence clocks (maps reallocate on first use).
	n.lastSeen = nil
	n.watchVer = 0
	n.suspect = nil
	req := wire.LeafSetRequest{From: n.ref}
	ann := wire.Announce{From: n.ref}
	for _, m := range known {
		n.tr.Send(m.Addr, req)
		n.tr.Send(m.Addr, ann)
	}
	n.mu.Unlock()
	n.startKeepAlive()
}
