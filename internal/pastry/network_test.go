package pastry_test

import (
	"math"
	"testing"
	"time"

	"past/internal/cluster"
	"past/internal/id"
	"past/internal/pastry"
	"past/internal/simnet"
	"past/internal/wire"
)

func buildCluster(t testing.TB, n int, seed int64, mut func(*cluster.Options)) (*cluster.Cluster, []*cluster.Recorder) {
	t.Helper()
	factory, recs := cluster.RecorderFactory(n)
	opts := cluster.Options{
		N:          n,
		Pastry:     pastry.DefaultConfig(),
		Seed:       seed,
		AppFactory: factory,
	}
	if mut != nil {
		mut(&opts)
	}
	c, err := cluster.Build(opts)
	if err != nil {
		t.Fatalf("Build(%d nodes): %v", n, err)
	}
	return c, recs
}

// routeAndWait routes a probe from node `from` to key and returns the
// delivery, or ok=false if the message was lost.
func routeAndWait(c *cluster.Cluster, recs []*cluster.Recorder, from int, key id.Node, seq uint64) (cluster.Delivery, bool) {
	var got *cluster.Delivery
	for _, r := range recs {
		if r == nil {
			continue
		}
		r.OnDeliver = func(d cluster.Delivery) {
			if p, ok := d.Routed.Payload.(cluster.ProbeMsg); ok && p.Seq == seq {
				got = &d
			}
		}
	}
	c.Nodes[from].Route(key, cluster.ProbeMsg{Seq: seq})
	c.Net.RunUntil(func() bool { return got != nil }, 1_000_000)
	for _, r := range recs {
		if r != nil {
			r.OnDeliver = nil
		}
	}
	if got == nil {
		return cluster.Delivery{}, false
	}
	return *got, true
}

func TestTwoNodeNetwork(t *testing.T) {
	c, recs := buildCluster(t, 2, 1, nil)
	// Each node must have the other in its leaf set.
	for i, nd := range c.Nodes {
		if len(nd.LeafMembers()) != 1 {
			t.Fatalf("node %d leaf set has %d members", i, len(nd.LeafMembers()))
		}
	}
	// Route to the exact id of node 1 from node 0.
	d, ok := routeAndWait(c, recs, 0, c.Nodes[1].ID(), 1)
	if !ok || d.NodeIndex != 1 {
		t.Fatalf("route to node 1's id delivered at %d (ok=%v)", d.NodeIndex, ok)
	}
}

func TestRoutingReachesNumericallyClosest(t *testing.T) {
	const n = 64
	c, recs := buildCluster(t, n, 2, nil)
	for trial := 0; trial < 200; trial++ {
		key := id.Rand(uint64(trial) + 5000)
		from := c.RandomLiveNode()
		d, ok := routeAndWait(c, recs, from, key, uint64(trial))
		if !ok {
			t.Fatalf("trial %d: message lost", trial)
		}
		want := c.NumericallyClosest(key)
		if c.Nodes[d.NodeIndex].ID() != want.ID {
			t.Fatalf("trial %d: delivered at %s, want %s",
				trial, c.Nodes[d.NodeIndex].ID().Short(), want.ID.Short())
		}
	}
}

func TestRoutingToOwnKeyDeliversLocally(t *testing.T) {
	c, recs := buildCluster(t, 16, 3, nil)
	d, ok := routeAndWait(c, recs, 5, c.Nodes[5].ID(), 99)
	if !ok || d.NodeIndex != 5 {
		t.Fatalf("self-route delivered at %d", d.NodeIndex)
	}
	if d.Routed.Hops != 0 {
		t.Fatalf("self-route took %d hops", d.Routed.Hops)
	}
}

func TestHopCountLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 256
	c, recs := buildCluster(t, n, 4, nil)
	total := 0
	trials := 300
	for trial := 0; trial < trials; trial++ {
		key := id.Rand(uint64(trial) + 90000)
		d, ok := routeAndWait(c, recs, c.RandomLiveNode(), key, uint64(trial))
		if !ok {
			t.Fatalf("trial %d lost", trial)
		}
		total += d.Routed.Hops
	}
	avg := float64(total) / float64(trials)
	bound := math.Ceil(math.Log(float64(n)) / math.Log(16))
	if avg >= bound+0.5 {
		t.Fatalf("average hops %.2f exceeds ceil(log16 %d)=%v", avg, n, bound)
	}
	t.Logf("avg hops %.2f (bound %.0f)", avg, bound)
}

func TestLeafSetsMatchOracle(t *testing.T) {
	const n = 48
	c, _ := buildCluster(t, n, 5, nil)
	half := c.Opts.Pastry.L / 2
	for i, nd := range c.Nodes {
		want := c.KClosest(nd.ID(), n-1) // all other nodes, ordered by ring distance
		members := nd.LeafMembers()
		have := make(map[id.Node]bool, len(members))
		for _, m := range members {
			have[m.ID] = true
		}
		// With n-1 < l every other node must be in the leaf set.
		if n-1 <= 2*half {
			for _, w := range want {
				if w.ID == nd.ID() {
					continue
				}
				if !have[w.ID] {
					t.Fatalf("node %d (%s) missing leaf member %s", i, nd.ID().Short(), w.ID.Short())
				}
			}
		}
	}
}

func TestLeafSetHalvesCorrect(t *testing.T) {
	// In a network larger than l, each node's smaller/larger halves must
	// be exactly the l/2 ring-closest nodes on each side.
	const n = 80
	c, _ := buildCluster(t, n, 6, nil)
	for i, nd := range c.Nodes {
		self := nd.ID()
		var wantLarger []wire.NodeRef
		// Walk the oracle ring clockwise from self.
		refs := make([]wire.NodeRef, 0, n)
		for _, other := range c.Nodes {
			if other.ID() != self {
				refs = append(refs, other.Ref())
			}
		}
		// Sort by clockwise distance.
		for k := 0; k < nd.LeafMembers()[0].ID.Digit(0, 4); k++ {
			_ = k // no-op: keep deterministic shape
		}
		wantLarger = kSmallestBy(refs, c.Opts.Pastry.L/2, func(a, b wire.NodeRef) bool {
			return self.CW(a.ID).Cmp(self.CW(b.ID)) < 0
		})
		gotLarger := nd.LeafLarger()
		if len(gotLarger) != len(wantLarger) {
			t.Fatalf("node %d larger half size %d want %d", i, len(gotLarger), len(wantLarger))
		}
		for j := range wantLarger {
			if gotLarger[j].ID != wantLarger[j].ID {
				t.Fatalf("node %d larger[%d] = %s want %s", i, j, gotLarger[j].ID.Short(), wantLarger[j].ID.Short())
			}
		}
	}
}

func kSmallestBy(refs []wire.NodeRef, k int, less func(a, b wire.NodeRef) bool) []wire.NodeRef {
	out := append([]wire.NodeRef(nil), refs...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if less(out[j], out[i]) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

func TestRoutingTableSizeBounded(t *testing.T) {
	const n = 128
	c, _ := buildCluster(t, n, 7, nil)
	// Paper: (2^b - 1) * ceil(log_2b N) + 2l entries. Allow slack of one
	// extra row since ids cluster randomly.
	bound := 15*(int(math.Ceil(math.Log(float64(n))/math.Log(16)))+1) + 2*c.Opts.Pastry.L
	for i, nd := range c.Nodes {
		rt, leaf, _ := nd.StateSize()
		if rt+leaf > bound {
			t.Fatalf("node %d state %d exceeds bound %d", i, rt+leaf, bound)
		}
	}
}

func TestRouteWithFailuresAndProbes(t *testing.T) {
	const n = 100
	c, recs := buildCluster(t, n, 8, nil)
	c.EnableProbes()
	// Crash 10% of nodes.
	for k := 0; k < n/10; k++ {
		c.Crash(c.RandomLiveNode())
	}
	lost := 0
	wrong := 0
	trials := 150
	for trial := 0; trial < trials; trial++ {
		key := id.Rand(uint64(trial) + 777000)
		d, ok := routeAndWait(c, recs, c.RandomLiveNode(), key, uint64(trial))
		if !ok {
			lost++
			continue
		}
		want := c.NumericallyClosest(key)
		if c.Nodes[d.NodeIndex].ID() != want.ID {
			wrong++
		}
	}
	if lost > 0 {
		t.Fatalf("%d/%d routes lost despite probes", lost, trials)
	}
	// A small number may land adjacent to the true closest while leaf
	// sets still contain dead entries; require the vast majority exact.
	if wrong > trials/20 {
		t.Fatalf("%d/%d routes misdelivered", wrong, trials)
	}
}

func TestKeepAliveDetectsFailure(t *testing.T) {
	c, _ := buildCluster(t, 12, 9, func(o *cluster.Options) {
		o.Pastry.KeepAlive = 500 * time.Millisecond
		o.Pastry.FailTimeout = 1200 * time.Millisecond
	})
	victim := 3
	victimID := c.Nodes[victim].ID()
	// Confirm the victim is currently in some leaf set.
	present := 0
	for i, nd := range c.Nodes {
		if i == victim {
			continue
		}
		for _, m := range nd.LeafMembers() {
			if m.ID == victimID {
				present++
			}
		}
	}
	if present == 0 {
		t.Fatal("victim not in any leaf set; test setup broken")
	}
	c.Crash(victim)
	c.RunSettle(5 * time.Second)
	for i, nd := range c.Nodes {
		if i == victim || c.Down(i) {
			continue
		}
		for _, m := range nd.LeafMembers() {
			if m.ID == victimID {
				t.Fatalf("node %d still lists crashed node in leaf set", i)
			}
		}
	}
}

func TestLeafRepairRestoresInvariant(t *testing.T) {
	const n = 40
	c, _ := buildCluster(t, n, 10, func(o *cluster.Options) {
		o.Pastry.KeepAlive = 500 * time.Millisecond
		o.Pastry.FailTimeout = 1200 * time.Millisecond
	})
	// Crash 4 nodes, let keep-alive and repair run.
	for k := 0; k < 4; k++ {
		c.Crash(c.RandomLiveNode())
	}
	c.RunSettle(10 * time.Second)
	half := c.Opts.Pastry.L / 2
	// After repair every live node's larger half must again hold the
	// live ring-closest nodes (n-5 < l so every node knows all others).
	for i, nd := range c.Nodes {
		if c.Down(i) {
			continue
		}
		members := nd.LeafMembers()
		for _, m := range members {
			j := c.IndexByID(m.ID)
			if j >= 0 && c.Down(j) {
				t.Fatalf("node %d leaf set still holds dead node %s", i, m.ID.Short())
			}
		}
		if len(members) < minInt(c.LiveCount()-1, half) {
			t.Fatalf("node %d leaf set shrank to %d", i, len(members))
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRandomizedRoutingAroundMaliciousNode(t *testing.T) {
	const n = 60
	c, recs := buildCluster(t, n, 11, func(o *cluster.Options) {
		o.Pastry.Randomize = true
		o.Pastry.Bias = 0.7
	})
	// Pick a key and find the deterministic first-hop of the origin; make
	// an on-path node malicious: it swallows all Routed messages that are
	// not its own deliveries.
	key := id.Rand(424242)
	origin := 0
	dest := c.NumericallyClosest(key)
	var malicious int = -1
	// Find some node on a likely path by routing once and tracing.
	c.Net.TraceFn = func(at time.Duration, from, to string, m wire.Msg) {
		if r, ok := m.(wire.Routed); ok && r.Key == key && malicious == -1 {
			if idx, err := simnet.Index(to); err == nil && c.Nodes[idx].ID() != dest.ID {
				malicious = idx
			}
		}
	}
	d, ok := routeAndWait(c, recs, origin, key, 1)
	c.Net.TraceFn = nil
	if !ok {
		t.Fatal("baseline route lost")
	}
	if malicious == -1 {
		t.Skip("route was direct; no intermediate to corrupt")
	}
	_ = d
	c.Eps[malicious].SetSendFilter(func(to string, m wire.Msg) bool {
		_, isRouted := m.(wire.Routed)
		return isRouted // forwards nothing
	})
	// Repeated randomized retries must eventually avoid the bad node.
	succeeded := false
	for attempt := 0; attempt < 10 && !succeeded; attempt++ {
		_, ok := routeAndWait(c, recs, origin, key, uint64(1000+attempt))
		succeeded = ok
	}
	if !succeeded {
		t.Fatal("randomized retries never routed around the malicious node")
	}
}

func TestJoinTimeout(t *testing.T) {
	// A node joining via a crashed seed must report ErrJoinTimeout.
	c, _ := buildCluster(t, 4, 12, func(o *cluster.Options) {
		o.Pastry.JoinTimeout = time.Second
	})
	c.Topo.Place()
	ep := c.Net.NewEndpoint()
	cfg := c.Opts.Pastry
	nd := pastry.New(cfg, id.Rand(31337), ep, c.Net.Clock(), nil)
	c.Eps[1].Crash()
	var joinErr error
	done := false
	nd.Join([]string{simnet.Addr(1)}, func(err error) { joinErr = err; done = true })
	c.Net.RunUntil(func() bool { return done }, 1_000_000)
	if joinErr == nil {
		t.Fatal("join via dead seed should fail")
	}
}

func TestRejoinBeforeFailTimeout(t *testing.T) {
	// A node that left silently joins again under the same id from a new
	// address (pastctl run twice with one card, a killed daemon restarted)
	// while its peers still hold the previous process's entry. The join
	// must not be forwarded into that entry, and the entry must follow the
	// node: its announce and its heartbeats come from the new address.
	c, _ := buildCluster(t, 8, 21, func(o *cluster.Options) {
		o.Pastry.KeepAlive = time.Second
		o.Pastry.FailTimeout = 30 * time.Second
		o.Pastry.JoinTimeout = 5 * time.Second
	})
	xid := id.Rand(271828)
	join := func() (*pastry.Node, error) {
		c.Topo.Place()
		nd := pastry.New(c.Opts.Pastry, xid, c.Net.NewEndpoint(), c.Net.Clock(), nil)
		var joinErr error
		done := false
		nd.Join([]string{simnet.Addr(0)}, func(err error) { joinErr = err; done = true })
		if !c.Net.RunUntil(func() bool { return done }, 1_000_000) {
			t.Fatal("join callback never ran")
		}
		return nd, joinErr
	}
	first, err := join()
	if err != nil {
		t.Fatalf("first join: %v", err)
	}
	c.RunSettle(2 * time.Second) // the announce reaches every peer
	known := 0
	for _, nd := range c.Nodes {
		for _, m := range nd.LeafMembers() {
			if m.ID == xid {
				known++
			}
		}
	}
	if known != len(c.Nodes) {
		t.Fatalf("%d of %d peers list the first process before it leaves", known, len(c.Nodes))
	}
	first.Leave()
	before := c.Net.Clock().Now()
	if _, err := join(); err != nil {
		t.Fatalf("re-join %v after a silent leave: %v", c.Net.Clock().Now()-before, err)
	}
	for _, m := range c.Nodes[0].LeafMembers() {
		if m.ID == xid && m.Addr == first.Ref().Addr {
			t.Fatalf("seed still lists the previous process at %s", m.Addr)
		}
	}
	c.RunSettle(c.Opts.Pastry.KeepAlive)
	for i, nd := range c.Nodes {
		state := map[string][]wire.NodeRef{"leaf set": nd.LeafMembers(), "neighborhood set": nd.NeighborhoodMembers()}
		for row := 0; row < nd.RoutingTableRows(); row++ {
			for col := 0; col < 1<<c.Opts.Pastry.B; col++ {
				if e, ok := nd.RoutingEntry(row, col); ok {
					state["routing table"] = append(state["routing table"], e)
				}
			}
		}
		for where, refs := range state {
			for _, m := range refs {
				if m.ID == xid && m.Addr == first.Ref().Addr {
					t.Errorf("one keep-alive period after the re-join, peer %d's %s still lists the previous process at %s", i, where, m.Addr)
				}
			}
		}
	}
}

func TestMessageCountPerJoinLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Per the paper, restoring invariants after an arrival takes
	// O(log_2b N) messages. Measure messages for the last join at two
	// network sizes and check sub-linear growth.
	count := func(n int) uint64 {
		factory, _ := cluster.RecorderFactory(n)
		opts := cluster.Options{N: n - 1, Pastry: pastry.DefaultConfig(), Seed: 77, AppFactory: factory}
		c, err := cluster.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		c.Net.ResetCounters()
		// Join one more node.
		c.Topo.Place()
		ep := c.Net.NewEndpoint()
		nd := pastry.New(c.Opts.Pastry, id.Rand(999999), ep, c.Net.Clock(), nil)
		done := false
		nd.Join([]string{simnet.Addr(0)}, func(error) { done = true })
		c.Net.RunUntil(func() bool { return done }, 10_000_000)
		c.Net.RunUntilIdle()
		return c.Net.Messages()
	}
	small := count(32)
	large := count(256)
	if large > small*8 {
		t.Fatalf("join cost grew from %d to %d messages (8x network): not logarithmic", small, large)
	}
	t.Logf("join cost: %d msgs at n=32, %d msgs at n=256", small, large)
}

func TestNodeRecovery(t *testing.T) {
	// Section 2.2: "A recovering node contacts the nodes in its last
	// known leaf set, obtains their current leaf sets, updates its own
	// leaf set and then notifies the members of its presence."
	const n = 20
	c, recs := buildCluster(t, n, 13, func(o *cluster.Options) {
		o.Pastry.KeepAlive = 500 * time.Millisecond
		o.Pastry.FailTimeout = 1500 * time.Millisecond
	})
	victim := 4
	victimID := c.Nodes[victim].ID()
	c.Crash(victim)
	// Let everyone notice the failure.
	c.RunSettle(6 * time.Second)
	for i, nd := range c.Nodes {
		if i == victim {
			continue
		}
		for _, m := range nd.LeafMembers() {
			if m.ID == victimID {
				t.Fatalf("node %d still lists victim before recovery", i)
			}
		}
	}
	// Recover and settle: the node must be re-admitted everywhere it
	// belongs (n-1 < l, so every node's leaf set should include it).
	c.Restart(victim)
	c.RunSettle(6 * time.Second)
	for i, nd := range c.Nodes {
		if i == victim {
			continue
		}
		found := false
		for _, m := range nd.LeafMembers() {
			if m.ID == victimID {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d did not re-admit the recovered node", i)
		}
	}
	// And routing to its exact id reaches it again.
	d, ok := routeAndWait(c, recs, (victim+7)%n, victimID, 4242)
	if !ok || d.NodeIndex != victim {
		t.Fatalf("route to recovered node delivered at %d (ok=%v)", d.NodeIndex, ok)
	}
}

func TestRandomizedRoutingStillConverges(t *testing.T) {
	// Randomized routing must preserve correctness: every admissible hop
	// is strictly numerically closer, so routes still terminate at the
	// numerically closest node.
	const n = 64
	c, recs := buildCluster(t, n, 14, func(o *cluster.Options) {
		o.Pastry.Randomize = true
		o.Pastry.Bias = 0.6
	})
	for trial := 0; trial < 150; trial++ {
		key := id.Rand(uint64(trial) + 31000)
		d, ok := routeAndWait(c, recs, c.RandomLiveNode(), key, uint64(trial))
		if !ok {
			t.Fatalf("trial %d lost", trial)
		}
		want := c.NumericallyClosest(key)
		if c.Nodes[d.NodeIndex].ID() != want.ID {
			t.Fatalf("trial %d: randomized route ended at %s, want %s",
				trial, c.Nodes[d.NodeIndex].ID().Short(), want.ID.Short())
		}
		// Loop-freedom: hops bounded well below n.
		if d.Routed.Hops > 10 {
			t.Fatalf("trial %d: %d hops suggests a routing loop", trial, d.Routed.Hops)
		}
	}
}

func TestRandomizedRoutingTakesDifferentPaths(t *testing.T) {
	const n = 128
	c, _ := buildCluster(t, n, 15, func(o *cluster.Options) {
		o.Pastry.Randomize = true
		o.Pastry.Bias = 0.5
	})
	key := id.Rand(999999)
	origin := 0
	// Trace first hops of repeated routes; with bias 0.5 they must vary.
	firstHops := map[string]bool{}
	for trial := 0; trial < 30; trial++ {
		var first string
		c.Net.TraceFn = func(at time.Duration, from, to string, m wire.Msg) {
			if r, ok := m.(wire.Routed); ok && r.Key == key && first == "" && from == simnet.Addr(origin) {
				first = to
			}
		}
		c.Nodes[origin].Route(key, cluster.ProbeMsg{Seq: uint64(trial)})
		c.Net.RunUntilIdle()
		c.Net.TraceFn = nil
		if first != "" {
			firstHops[first] = true
		}
	}
	if len(firstHops) < 2 {
		t.Fatalf("30 randomized routes all took the same first hop")
	}
}
