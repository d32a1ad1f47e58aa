package pastry_test

import (
	"sort"
	"testing"
	"time"

	"past/internal/cluster"
	"past/internal/id"
	"past/internal/pastry"
	"past/internal/simnet"
	"past/internal/wire"
)

// partition is the simulator's twin of chaos.Proxy.Partition: while cut
// is set, a node on one side drops every send addressed to the other. Its
// send filters stay installed, cut or not, to count the joins each node
// starts (a JoinRequest it sends as the request's origin).
type partition struct {
	minority map[string]bool
	cut      bool
	joins    map[string]int
}

func newPartition(c *cluster.Cluster, minority []int) *partition {
	p := &partition{minority: map[string]bool{}, joins: map[string]int{}}
	for _, i := range minority {
		p.minority[c.Eps[i].Addr()] = true
	}
	for _, ep := range c.Eps {
		from := ep.Addr()
		ep.SetSendFilter(func(to string, m wire.Msg) bool {
			if r, ok := m.(wire.Routed); ok && r.Origin.Addr == from {
				if _, ok := r.Payload.(wire.JoinRequest); ok {
					p.joins[from]++
				}
			}
			return p.cut && p.minority[from] != p.minority[to]
		})
	}
	return p
}

// leafMismatches counts the nodes whose leaf set is not exactly the l/2
// ring neighbours on each side among every node of c.
func leafMismatches(c *cluster.Cluster) int {
	ring := make([]id.Node, len(c.Nodes))
	for i, nd := range c.Nodes {
		ring[i] = nd.ID()
	}
	sort.Slice(ring, func(a, b int) bool { return ring[a].Less(ring[b]) })
	half := min(c.Opts.Pastry.L/2, (len(ring)-1)/2)
	bad := 0
	for p, self := range ring {
		want := map[id.Node]bool{}
		for k := 1; k <= half; k++ {
			want[ring[(p+k)%len(ring)]] = true
			want[ring[(p-k+len(ring))%len(ring)]] = true
		}
		have := c.Nodes[c.IndexByID(self)].LeafMembers()
		ok := len(have) == len(want)
		for _, m := range have {
			ok = ok && want[m.ID]
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// TestPartitionHealRejoinsMinority cuts a 40-node keep-alive network
// 30/10 for longer than FailTimeout and heals it. Each node on the small
// side sees its leaf set fall below half its largest, and its keep-alive
// tick re-joins through its seeds until one across the cut answers; the
// ring is whole again within a bound. The large side never loses half its
// view, so it never re-joins.
func TestPartitionHealRejoinsMinority(t *testing.T) {
	const n, small = 40, 10
	c, _ := buildCluster(t, n, 41, func(o *cluster.Options) {
		o.Pastry.KeepAlive = time.Second
		o.Pastry.FailTimeout = 3 * time.Second
		o.Pastry.JoinTimeout = 5 * time.Second // the daemon's -join-timeout
	})
	// Re-joining a live node re-anchors it and leaves it the seed list.
	// Every list holds node 0, on the large side. A small-side node's list
	// starts with the small-side node nearest it by id: that seed answers
	// from inside the cut, so the re-join must rotate past it to node 0.
	var minority []int
	for i := n - small; i < n; i++ {
		minority = append(minority, i)
	}
	for i := 1; i < n; i++ {
		seeds := []string{c.Eps[0].Addr()}
		if i >= n-small {
			near := -1
			for _, j := range minority {
				if j != i && (near < 0 || id.Closer(c.Nodes[i].ID(), c.Nodes[j].ID(), c.Nodes[near].ID())) {
					near = j
				}
			}
			seeds = []string{c.Eps[near].Addr(), c.Eps[0].Addr()}
		}
		var joinErr error
		done := false
		c.Nodes[i].Join(seeds, func(err error) { joinErr, done = err, true })
		if !c.Net.RunUntil(func() bool { return done }, 1_000_000) || joinErr != nil {
			t.Fatalf("node %d: join through %v: done %v, %v", i, seeds, done, joinErr)
		}
	}
	c.RunSettle(5 * time.Second)
	if bad := leafMismatches(c); bad > 0 {
		t.Fatalf("%d leaf sets off the ring before the cut", bad)
	}
	p := newPartition(c, minority)
	p.cut = true
	lowest := make([]int, n)
	for i, nd := range c.Nodes {
		lowest[i] = len(nd.LeafMembers())
	}
	for range 20 { // 20 s: over six FailTimeouts
		c.RunSettle(time.Second)
		for i, nd := range c.Nodes {
			lowest[i] = min(lowest[i], len(nd.LeafMembers()))
		}
	}
	p.cut = false

	const bound = 30 * time.Second
	healed := time.Duration(-1)
	for at := time.Second; at <= bound; at += time.Second {
		c.RunSettle(time.Second)
		if leafMismatches(c) == 0 {
			healed = at
			break
		}
	}
	if healed < 0 {
		t.Fatalf("%d of %d leaf sets still off the ring %v after the heal", leafMismatches(c), n, bound)
	}
	t.Logf("every leaf set back on the ring %v after the heal", healed)
	full := c.Opts.Pastry.L
	for i, nd := range c.Nodes {
		joins := p.joins[c.Eps[i].Addr()]
		switch {
		case p.minority[c.Eps[i].Addr()] && joins == 0:
			t.Errorf("node %d on the small side (leaf set down to %d) never re-joined", i, lowest[i])
		case 2*lowest[i] >= full && joins > 0:
			t.Errorf("node %d kept %d of %d leaves yet re-joined %d times", i, lowest[i], full, joins)
		}
		if len(nd.LeafMembers()) != full {
			t.Errorf("node %d holds %d leaves after the heal, want %d", i, len(nd.LeafMembers()), full)
		}
	}
}

// TestJoinPassSkipsDeadSeed joins through [crashed, live]: the pass gives
// the crashed seed JoinTimeout, completes through the live one, and the
// next pass starts at the seed that answered.
func TestJoinPassSkipsDeadSeed(t *testing.T) {
	c, _ := buildCluster(t, 4, 12, func(o *cluster.Options) {
		o.Pastry.JoinTimeout = time.Second
	})
	c.Topo.Place()
	nd := pastry.New(c.Opts.Pastry, id.Rand(31337), c.Net.NewEndpoint(), c.Net.Clock(), nil)
	c.Eps[1].Crash()
	seeds := []string{simnet.Addr(1), simnet.Addr(2)}
	join := func() (time.Duration, error) {
		start := c.Net.Clock().Now()
		var joinErr error
		done := false
		nd.Join(seeds, func(err error) { joinErr, done = err, true })
		if !c.Net.RunUntil(func() bool { return done }, 1_000_000) {
			t.Fatal("join callback never ran")
		}
		return c.Net.Clock().Now() - start, joinErr
	}
	timeout := c.Opts.Pastry.JoinTimeout
	if took, err := join(); err != nil || took < timeout || took > 2*timeout {
		t.Fatalf("first pass: %v after %v, want success between %v and %v", err, took, timeout, 2*timeout)
	}
	if took, err := join(); err != nil || took >= timeout {
		t.Fatalf("second pass: %v after %v, want success before the dead seed's %v", err, took, timeout)
	}
}
