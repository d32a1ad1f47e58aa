package pastry

import (
	"testing"
	"time"

	"past/internal/id"
	"past/internal/simnet"
	"past/internal/transport"
	"past/internal/wire"
)

// benchLeafSets are the two shapes that matter: 17 members in l = 32 (the
// 18-peer bench/ cluster: the ring wraps, 15 nodes sit in both halves) and
// 32 distinct members (any network larger than l).
func benchLeafSets() map[string]*LeafSet {
	sets := map[string]*LeafSet{}
	for name, others := range map[string]int{"17of32": 17, "32of32": 64} {
		s := NewLeafSet(id.Rand(1), 32)
		for i := 0; i < others; i++ {
			s.Consider(ref(uint64(100+i)), false)
		}
		sets[name] = s
	}
	return sets
}

var (
	sinkRef  wire.NodeRef
	sinkRefs []wire.NodeRef
)

func BenchmarkLeafSetClosest(b *testing.B) {
	for name, s := range benchLeafSets() {
		b.Run(name, func(b *testing.B) {
			keys := make([]id.Node, 256)
			for i := range keys {
				keys[i] = id.Rand(uint64(9000 + i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRef, _ = s.Closest(keys[i%len(keys)])
			}
		})
	}
}

func BenchmarkLeafSetMembers(b *testing.B) {
	for name, s := range benchLeafSets() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRefs = s.Members()
			}
		})
	}
}

// BenchmarkLeafSetConsider offers a full l = 32 leaf set the three kinds of
// node a network larger than l offers it: a member it holds, a node beyond
// both extremes (most of the network), and one that enters (then leaves
// again, inside the timing, so every iteration meets the same set).
func BenchmarkLeafSetConsider(b *testing.B) {
	s := benchLeafSets()["32of32"]
	enters := wire.NodeRef{ID: id.Mid(s.owner, s.larger[0].ID), Addr: "sim:0"}
	for _, c := range []struct {
		name string
		ref  wire.NodeRef
	}{{"held", s.larger[7]}, {"beyond", ref(5)}, {"admitted", enters}} {
		b.Run(c.name, func(b *testing.B) {
			if held := s.Contains(c.ref.ID); held != (c.name == "held") {
				b.Fatalf("set holds %s: %v", c.ref.ID, held)
			}
			admitted := c.name == "admitted"
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s.Consider(c.ref, true) != admitted {
					b.Fatalf("Consider(%s) = %v", c.ref.ID, !admitted)
				}
				if admitted {
					s.Remove(c.ref.ID)
				}
			}
		})
	}
}

// simNodes joins n nodes one at a time on a simulated network (keep-alives
// off, so it goes idle) and returns them.
func simNodes(tb testing.TB, n int) []*Node {
	net := simnet.New(simnet.Config{Seed: 1}, func(a, b int) float64 { return float64(1 + (a+b)%40) })
	nodes := make([]*Node, n)
	for i := range nodes {
		ep := net.NewEndpoint()
		nodes[i] = New(DefaultConfig(), id.Rand(uint64(7000+i)), ep, ep.Clock(), nil)
		if i == 0 {
			nodes[i].Bootstrap()
			continue
		}
		var joinErr error
		done := false
		nodes[i].Join([]string{simnet.Addr(0)}, func(err error) { joinErr, done = err, true })
		if !net.RunUntil(func() bool { return done }, 1_000_000) || joinErr != nil {
			tb.Fatalf("join of node %d: done=%v, %v", i, done, joinErr)
		}
		net.RunUntilIdle()
	}
	return nodes
}

// heartbeatFromLeaf is a 64-node network's first node and a Heartbeat, as
// it arrives, from a member of its (full, l = 32) leaf set.
func heartbeatFromLeaf(tb testing.TB) (*Node, string, wire.Msg) {
	nd := simNodes(tb, 64)[0]
	if nd.leaf.Len() != nd.cfg.L || nd.nbhd.Len() != neighborhoodSize {
		tb.Fatalf("leaf set %d of %d, neighborhood %d of %d", nd.leaf.Len(), nd.cfg.L, nd.nbhd.Len(), neighborhoodSize)
	}
	from := nd.leaf.larger[5]
	return nd, from.Addr, wire.Heartbeat{From: from}
}

func BenchmarkHeartbeatHandle(b *testing.B) {
	nd, from, hb := heartbeatFromLeaf(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd.handle(from, hb)
	}
}

// discard is a transport whose sends go nowhere and a clock whose timers
// never fire: under them a keep-alive tick can run b.N times in a row.
type discard struct {
	transport.Transport
	transport.Clock
}

type noTimer struct{}

func (discard) Send(string, wire.Msg) error                     { return nil }
func (discard) AfterFunc(time.Duration, func()) transport.Timer { return noTimer{} }
func (noTimer) Stop() bool                                      { return false }
func (noTimer) Release()                                        {}

// tickingNode is heartbeatFromLeaf's node, every member heard from, cut off
// from the network.
func tickingNode(tb testing.TB) *Node {
	nd, _, _ := heartbeatFromLeaf(tb)
	nd.cfg.KeepAlive = time.Second
	nd.leaf.ForEach(func(m wire.NodeRef) { nd.sawNow(m.ID) })
	nd.tr, nd.clock = discard{Transport: nd.tr}, discard{Clock: nd.clock}
	return nd
}

func BenchmarkKeepAliveTick(b *testing.B) {
	nd := tickingNode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd.keepAliveTick()
	}
}

// TestLivenessAllocations holds the failure detector's two steady-state
// paths to what they allocate: hearing from a held leaf member nothing; a
// tick over a full l = 32 leaf set its one boxed Heartbeat and the timer's
// method value (34 before the tick walked the halves in place and boxed the
// Heartbeat once: 31 boxings and a Members copy more).
func TestLivenessAllocations(t *testing.T) {
	nd, from, hb := heartbeatFromLeaf(t)
	if got := testing.AllocsPerRun(200, func() { nd.handle(from, hb) }); got != 0 {
		t.Errorf("a Heartbeat from a held leaf member allocates %v times, want 0", got)
	}
	nd = tickingNode(t)
	if got := testing.AllocsPerRun(200, nd.keepAliveTick); got > 3 {
		t.Errorf("a keep-alive tick over a full leaf set allocates %v times, want <= 3", got)
	}
}
