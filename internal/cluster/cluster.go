package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"past/internal/id"
	"past/internal/pastry"
	"past/internal/simnet"
	"past/internal/telemetry"
	"past/internal/topology"
	"past/internal/wire"
)

// Options configures a cluster build.
type Options struct {
	// N is the number of nodes.
	N int
	// Pastry holds the per-node protocol parameters.
	Pastry pastry.Config
	// Seed drives node ids, topology and the simulator.
	Seed int64
	// AppFactory, when non-nil, builds the application layer for node i.
	// It runs after the pastry node is constructed and before it joins.
	AppFactory func(i int, nd *pastry.Node, ep *simnet.Endpoint) pastry.App
	// NodeID, when non-nil, overrides the identifier for node i
	// (PAST harnesses derive ids from smartcards).
	NodeID func(i int) id.Node
	// Shards is read by nothing; the simulator has one event loop.
	Shards int
	// Analytic skips the n sequential protocol joins and seeds routing
	// tables, leaf sets, and neighborhood sets directly from the sorted
	// id ring in O(n log n) total work (see analytic.go). State is
	// equivalent to protocol construction (asserted by
	// TestAnalyticEquivalence) but builds 100k-node networks in seconds
	// instead of hours; the Large/Huge experiment tiers require it.
	Analytic bool
}

// Cluster is a built network.
type Cluster struct {
	Opts  Options
	Net   *simnet.Net
	Topo  *topology.Topology
	Nodes []*pastry.Node
	Eps   []*simnet.Endpoint
	Apps  []pastry.App

	rng    *rand.Rand
	sorted []wire.NodeRef // all refs sorted by id, for oracle queries
	down   map[int]bool
	index  map[id.Node]int32 // node id -> cluster index, for IndexByID
	probes bool              // EnableProbes was called; install on nodes added later too
	joins  []*joinState      // asynchronous joins not yet resolved
	// freeSlots holds quarantined cluster indices (failed joins whose
	// endpoint and topology placement are already
	// reserved); the next arrival reuses one instead of leaking it.
	freeSlots []int
}

// joinState tracks one AddNodeAsync join until ResolveJoins folds it in.
type joinState struct {
	idx  int
	done bool
	err  error
}

// Build constructs and joins an N-node network. It returns an error if any
// join fails to complete.
func Build(opts Options) (*Cluster, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	topo := topology.New(opts.Seed)
	// The window length sets where RunUntil can stop, when telemetry ticks
	// and when the churn driver applies its events, so every cluster uses
	// the same one: the topology's latency floor between transit domains.
	net := simnet.New(simnet.Config{
		Seed:      opts.Seed + 1,
		Lookahead: topo.LookaheadBound(),
	}, topo.Distance)

	c := &Cluster{
		Opts:  opts,
		Net:   net,
		Topo:  topo,
		rng:   rand.New(rand.NewSource(opts.Seed + 2)),
		down:  make(map[int]bool),
		index: make(map[id.Node]int32, opts.N),
	}
	if opts.Analytic {
		if err := c.buildAnalytic(); err != nil {
			return nil, err
		}
		return c, nil
	}
	for i := 0; i < opts.N; i++ {
		if err := c.addNode(i); err != nil {
			return nil, err
		}
	}
	c.rebuildOracle()
	return c, nil
}

// newNode constructs node i (topology slot, endpoint, pastry node, app)
// without joining it. When i is a quarantined slot being reused, the
// existing endpoint — already placed on the topology — is restarted and
// rebound to a fresh pastry node; otherwise a new
// slot is appended.
func (c *Cluster) newNode(i int) *pastry.Node {
	reuse := i < len(c.Nodes)
	var ep *simnet.Endpoint
	if reuse {
		ep = c.Eps[i]
		ep.Restart()
		delete(c.index, c.Nodes[i].ID())
		delete(c.down, i)
	} else {
		c.Topo.Place()
		ep = c.Net.NewEndpoint()
	}
	nid := id.Rand(uint64(c.Opts.Seed)<<20 + uint64(i))
	if c.Opts.NodeID != nil {
		nid = c.Opts.NodeID(i)
	}
	pcfg := c.Opts.Pastry
	pcfg.Seed = c.Opts.Seed + int64(i)*7919
	// Each node runs on its endpoint's clock so that its timers are keyed
	// by its endpoint and die with it while it is crashed.
	nd := pastry.New(pcfg, nid, ep, ep.Clock(), nil)
	var app pastry.App
	if c.Opts.AppFactory != nil {
		app = c.Opts.AppFactory(i, nd, ep)
		nd.SetApp(app)
	}
	if reuse {
		c.Nodes[i], c.Apps[i] = nd, app
	} else {
		c.Nodes = append(c.Nodes, nd)
		c.Eps = append(c.Eps, ep)
		c.Apps = append(c.Apps, app)
	}
	c.index[nid] = int32(i)
	if c.probes {
		c.installProbe(i)
	}
	return nd
}

// takeSlot picks the index for the next arrival: a quarantined slot when
// one is free, a fresh appended slot otherwise.
func (c *Cluster) takeSlot() int {
	if n := len(c.freeSlots); n > 0 {
		i := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return i
	}
	return len(c.Nodes)
}

// quarantine takes a failed joiner off the network and releases its slot
// for the next arrival. Before the free list existed every failed join
// leaked its endpoint forever — harmless at hundreds
// of nodes, fatal at 20k+ under churn.
func (c *Cluster) quarantine(i int) {
	if i >= len(c.Nodes) {
		return
	}
	c.Eps[i].Crash()
	c.Nodes[i].Leave()
	c.down[i] = true
	c.freeSlots = append(c.freeSlots, i)
}

func (c *Cluster) addNode(i int) error {
	nd := c.newNode(i)
	if i == 0 {
		nd.Bootstrap()
		return nil
	}
	seed := c.nearbyNode(i)
	joinErr := error(nil)
	done := false
	nd.Join([]string{simnet.Addr(seed)}, func(err error) {
		joinErr = err
		done = true
	})
	if !c.Net.RunUntil(func() bool { return done }, EventBudget) {
		return fmt.Errorf("cluster: join of node %d did not complete", i)
	}
	if joinErr != nil {
		return fmt.Errorf("cluster: join of node %d: %w", i, joinErr)
	}
	// Drain the announce traffic before the next join so state converges
	// deterministically, as the sequential-join methodology of the Pastry
	// paper assumes. With keep-alives enabled the network never goes
	// idle, so drain a bounded slice of virtual time instead.
	if c.Opts.Pastry.KeepAlive > 0 {
		c.Net.RunFor(c.Opts.Pastry.KeepAlive / 4)
	} else {
		c.Net.RunUntilIdle()
	}
	return nil
}

// AddNode joins one brand-new node into a running cluster — the churn
// engine's arrival path. The node is placed on the topology, built through the
// same Options the cluster was built with, and joined
// via a proximally nearby live node. AddNode must only be called from
// the coordinating goroutine between simulation runs (as all Cluster
// mutators must); it advances virtual time until the join completes and
// a bounded settle slice has drained. It returns the new node's index.
//
// Options.NodeID and Options.AppFactory, when set, must accept indices
// beyond the original Options.N.
func (c *Cluster) AddNode() (int, error) {
	i := c.takeSlot()
	if err := c.addNode(i); err != nil {
		// The join did not complete (possible under heavy churn): take the
		// half-joined node off the network so the oracle and the workload
		// never see it, and free its slot for the next arrival.
		c.quarantine(i)
		c.rebuildOracle()
		return -1, err
	}
	c.rebuildOracle()
	return i, nil
}

// AddNodeAsync starts one brand-new node's join WITHOUT advancing virtual
// time: the join protocol proceeds concurrently with whatever foreground
// workload the caller runs next. The node stays hidden from the oracle
// and the workload (Down reports true) until ResolveJoins observes its
// join callback and folds it in. Like all Cluster mutators it must be
// called from the coordinating goroutine between simulation runs. It
// returns the new node's index.
func (c *Cluster) AddNodeAsync() int {
	i := c.takeSlot()
	nd := c.newNode(i)
	if i == 0 {
		nd.Bootstrap()
		c.rebuildOracle()
		return i
	}
	seed := c.nearbyNode(i)
	st := &joinState{idx: i}
	c.joins = append(c.joins, st)
	// Hidden until the join resolves; a failed join then never becomes
	// visible at all.
	c.down[i] = true
	nd.Join([]string{simnet.Addr(seed)}, func(err error) {
		st.done = true
		st.err = err
	})
	return i
}

// ResolveJoins folds completed asynchronous joins into the cluster:
// successful joiners become visible to the oracle and the workload;
// failed ones (the join timed out — possible under heavy churn) are
// quarantined exactly like AddNode failures. Call between simulation
// runs; joins still in flight are left pending. It returns the indices
// that joined successfully and the number that failed.
func (c *Cluster) ResolveJoins() (joined []int, failed int) {
	if len(c.joins) == 0 {
		return nil, 0
	}
	rest := c.joins[:0]
	for _, st := range c.joins {
		switch {
		case !st.done:
			rest = append(rest, st)
		case st.err != nil:
			c.quarantine(st.idx)
			failed++ // stays down until the slot is reused
		default:
			delete(c.down, st.idx)
			joined = append(joined, st.idx)
		}
	}
	for i := len(rest); i < len(c.joins); i++ {
		c.joins[i] = nil
	}
	c.joins = rest
	if len(joined) > 0 || failed > 0 {
		c.rebuildOracle()
	}
	return joined, failed
}

// PendingJoins reports how many asynchronous joins have not resolved yet.
func (c *Cluster) PendingJoins() int { return len(c.joins) }

// Leave removes node i gracefully: the node announces its departure to
// its leaf set (so peers repair and re-replicate immediately), then its
// endpoint goes down. Compare Crash, the paper's silent-failure path.
func (c *Cluster) Leave(i int) {
	if c.down[i] {
		return
	}
	c.Nodes[i].Depart()
	c.Eps[i].Crash()
	c.down[i] = true
	c.rebuildOracle()
}

// joinSamples bounds the candidate bootstrap nodes nearbyNode examines.
const joinSamples = 32

// nearbyNode samples already-joined nodes and returns the proximally
// closest, playing the role of the "nearby node A" the paper's join
// protocol assumes a new node can locate.
func (c *Cluster) nearbyNode(joining int) int {
	best := -1
	bestD := 0.0
	for range min(joinSamples, joining) {
		cand := c.rng.Intn(joining)
		if c.down[cand] {
			continue
		}
		d := c.Topo.Distance(joining, cand)
		if best == -1 || d < bestD {
			best = cand
			bestD = d
		}
	}
	if best == -1 {
		// Sampling only hit crashed nodes (likely under churn): fall back
		// to the first live node rather than a dead bootstrap.
		for cand := 0; cand < joining; cand++ {
			if !c.down[cand] {
				return cand
			}
		}
		best = 0
	}
	return best
}

func (c *Cluster) rebuildOracle() {
	c.sorted = c.sorted[:0]
	for i, nd := range c.Nodes {
		if c.down[i] {
			continue
		}
		c.sorted = append(c.sorted, nd.Ref())
	}
	sort.Slice(c.sorted, func(a, b int) bool {
		return c.sorted[a].ID.Less(c.sorted[b].ID)
	})
}

// NumericallyClosest returns the live node whose id is numerically closest
// to key — the ground truth Pastry routing must reach ("the node whose
// nodeId is numerically closest ... among all live nodes").
func (c *Cluster) NumericallyClosest(key id.Node) wire.NodeRef {
	if len(c.sorted) == 0 {
		return wire.NodeRef{}
	}
	i := sort.Search(len(c.sorted), func(i int) bool {
		return !c.sorted[i].ID.Less(key)
	})
	best := c.sorted[i%len(c.sorted)]
	for _, j := range []int{i - 1, i, i + 1} {
		cand := c.sorted[(j+len(c.sorted))%len(c.sorted)]
		if id.Closer(key, cand.ID, best.ID) {
			best = cand
		}
	}
	return best
}

// KClosest returns the k live nodes numerically closest to key, the
// replica set of a fileId.
func (c *Cluster) KClosest(key id.Node, k int) []wire.NodeRef {
	if k > len(c.sorted) {
		k = len(c.sorted)
	}
	i := sort.Search(len(c.sorted), func(i int) bool {
		return !c.sorted[i].ID.Less(key)
	})
	type cand struct {
		ref  wire.NodeRef
		dist id.Node
	}
	// Collect a window of 2k+2 around the insertion point and sort by
	// ring distance.
	var cands []cand
	for j := i - k - 1; j <= i+k; j++ {
		r := c.sorted[(j%len(c.sorted)+len(c.sorted))%len(c.sorted)]
		cands = append(cands, cand{r, r.ID.Dist(key)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist.Cmp(cands[b].dist) != 0 {
			return cands[a].dist.Cmp(cands[b].dist) < 0
		}
		return cands[a].ref.ID.Less(cands[b].ref.ID)
	})
	out := make([]wire.NodeRef, 0, k)
	seen := make(map[id.Node]bool, k)
	for _, cd := range cands {
		if seen[cd.ref.ID] {
			continue
		}
		seen[cd.ref.ID] = true
		out = append(out, cd.ref)
		if len(out) == k {
			break
		}
	}
	return out
}

// IndexByID maps a node id back to its cluster index, or -1 (crashed and
// departed nodes included). The lookup is O(1): under churn every
// arrival and departure consults it. Like every Cluster method it runs on
// the coordinating goroutine.
func (c *Cluster) IndexByID(n id.Node) int {
	if i, ok := c.index[n]; ok {
		return int(i)
	}
	return -1
}

// Crash silently removes node i from the network (endpoint down, pastry
// node marked left) and refreshes the oracle.
func (c *Cluster) Crash(i int) {
	c.Eps[i].Crash()
	c.Nodes[i].Leave()
	c.down[i] = true
	c.rebuildOracle()
}

// Restart brings a crashed node back: its endpoint accepts traffic again
// and the node runs the recovery protocol of section 2.2 against its last
// known leaf set.
func (c *Cluster) Restart(i int) {
	if !c.down[i] {
		return
	}
	c.Eps[i].Restart()
	delete(c.down, i)
	c.Nodes[i].Recover()
	c.rebuildOracle()
}

// Down reports whether node i has been crashed.
func (c *Cluster) Down(i int) bool { return c.down[i] }

// LiveCount returns the number of live nodes.
func (c *Cluster) LiveCount() int { return len(c.sorted) }

// EnableProbes installs transport-level reachability detection on every
// node: forwarding to a crashed node fails immediately, and the sender
// routes around it and repairs its state (as a TCP deployment would).
// Nodes added later (AddNode) get a probe automatically.
func (c *Cluster) EnableProbes() {
	c.probes = true
	for i := range c.Nodes {
		if c.down[i] {
			continue
		}
		c.installProbe(i)
	}
}

func (c *Cluster) installProbe(i int) {
	c.Nodes[i].SetProbe(func(addr string) bool {
		idx, err := simnet.Index(addr)
		if err != nil || idx >= len(c.Eps) {
			return false
		}
		return c.Eps[idx].Up()
	})
}

// RandomLiveNode returns the index of a uniformly random live node.
func (c *Cluster) RandomLiveNode() int {
	for {
		i := c.rng.Intn(len(c.Nodes))
		if !c.down[i] {
			return i
		}
	}
}

// Rand exposes the cluster's deterministic random stream.
func (c *Cluster) Rand() *rand.Rand { return c.rng }

// RunSettle processes events for the given virtual duration, letting
// keep-alive and repair traffic run.
func (c *Cluster) RunSettle(d time.Duration) { c.Net.RunFor(d) }

// AttachTelemetry ticks rec at every window barrier of the simulator and
// registers the cluster-level series: live_nodes (overlay membership as
// churn sees it) and net_events (message deliveries per window). All
// samples are pure reads taken at barriers, so the series are as
// deterministic as the simulator. Call once per recorder, after
// Build.
func (c *Cluster) AttachTelemetry(rec *telemetry.Recorder) {
	rec.Gauge("live_nodes", []string{"value"}, func(v []float64) { v[0] = float64(c.LiveCount()) })
	rec.Counts("net_events", []string{"value"}, func(tot []uint64) { tot[0] = c.Net.Messages() })
	c.Net.SetBarrierHook(rec.Tick)
}
