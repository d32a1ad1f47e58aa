package cluster

import (
	"fmt"
	"sort"

	"past/internal/id"
	"past/internal/pastry"
	"past/internal/wire"
)

// Bulk analytic network construction.
//
// Protocol construction joins n nodes sequentially, each join routing
// through the overlay and draining its announce traffic — O(n log n)
// messages but with enormous constants (a 100k-node build replays 100k
// join protocols: hours of wall clock). The analytic builder computes the
// same converged state directly from the sorted id ring:
//
//   - Leaf sets are, by definition, the l/2 ring neighbors on each side —
//     read straight off the sorted ring in O(l) per node.
//   - Routing-table slot (row d, col v) of node x must hold A node sharing
//     the first d digits with x whose digit d is v, and the paper fills it
//     with a proximally close such node. Because the ring is sorted, the
//     nodes sharing any given prefix form a contiguous range; recursively
//     partitioning the ring by digit yields every (prefix, next-digit)
//     candidate range in O(n log n) total, and each slot picks the
//     proximally closest of a few deterministic samples from its range.
//   - Neighborhood sets seed from same-stub peers (the topologically
//     nearest nodes by construction).
//
// The state is equivalent to what protocol joins converge to — same slot
// occupancy, same leaf sets, hence same routes and replica placement —
// which TestAnalyticEquivalence asserts against protocol-built networks
// at small n. Occupants of a routing slot may differ (any node with the
// right prefix is correct per section 2.2; the protocol's choice depends
// on join order), which changes no route lengths: hop counts depend on
// prefix progress, not on which correctly-prefixed node makes it.
//
// The build schedules zero simulation events.

// rtSamples is how many candidates a routing slot examines; the winner is
// the proximally closest. The paper only requires "a" close node, not the
// closest; 4 samples lands within ~1.3x of the true proximal minimum in
// expectation, matching the locality quality of protocol joins.
const rtSamples = 4

// nbhdSeed bounds how many same-stub peers seed each neighborhood set.
// Sets refill through normal protocol traffic; seeding all M would cost
// M×n ref copies for state most experiments never read.
const nbhdSeed = 8

func (c *Cluster) buildAnalytic() error {
	n := c.Opts.N
	for i := 0; i < n; i++ {
		c.newNode(i)
	}
	refs := make([]wire.NodeRef, n)
	for i, nd := range c.Nodes {
		refs[i] = nd.Ref()
	}

	// ring holds cluster indices sorted by node id; contiguous slices of
	// it are exactly the prefix groups the routing table needs.
	ring := make([]int32, n)
	for i := range ring {
		ring[i] = int32(i)
	}
	sort.Slice(ring, func(a, b int) bool {
		return refs[ring[a]].ID.Less(refs[ring[b]].ID)
	})
	for p := 1; p < n; p++ {
		if refs[ring[p-1]].ID == refs[ring[p]].ID {
			return fmt.Errorf("cluster: duplicate node id %v", refs[ring[p]].ID)
		}
	}

	arena := pastry.NewArena()
	c.seedLeafSets(ring, refs, arena)
	c.seedRoutingTables(ring, refs, arena)
	c.seedNeighborhoods(refs)
	for _, nd := range c.Nodes {
		nd.SeedJoined()
	}
	c.rebuildOracle()
	return nil
}

// seedLeafSets reads each node's halves straight off the sorted ring:
// walking clockwise from a node's ring position visits exactly the larger
// half closest-first, counter-clockwise the smaller half.
func (c *Cluster) seedLeafSets(ring []int32, refs []wire.NodeRef, arena *pastry.Arena) {
	n := len(ring)
	half := c.Opts.Pastry.L / 2
	k := half
	if k > n-1 {
		k = n - 1 // in rings smaller than l the halves overlap, as in the protocol
	}
	for p, xi := range ring {
		larger := arena.Refs(k)
		smaller := arena.Refs(k)
		for j := 0; j < k; j++ {
			larger[j] = refs[ring[(p+1+j)%n]]
			smaller[j] = refs[ring[((p-1-j)%n+n)%n]]
		}
		c.Nodes[xi].SeedLeafHalves(smaller, larger)
	}
}

// span is a contiguous ring range whose ids share the first depth digits.
type span struct {
	lo, hi, depth int
}

// seedRoutingTables fills every populatable slot: for each prefix group
// and each next-digit value present in it, members with a different digit
// get an entry sampled proximally from that value's subrange.
func (c *Cluster) seedRoutingTables(ring []int32, refs []wire.NodeRef, arena *pastry.Arena) {
	b := c.Opts.Pastry.B
	d := 1 << b
	numDigits := id.NumDigits(b)
	seedMix := uint64(c.Opts.Seed) * 0x9E3779B97F4A7C15
	bnd := make([]int, d+1)

	stack := []span{{0, len(ring), 0}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo <= 1 || s.depth >= numDigits {
			continue
		}
		// Subrange boundaries by digit value: bnd[v]..bnd[v+1] holds the
		// members whose digit s.depth equals v. One linear scan; the ring
		// is numerically sorted, so values are non-decreasing.
		v := 0
		bnd[0] = s.lo
		for p := s.lo; p < s.hi; p++ {
			dv := refs[ring[p]].ID.Digit(s.depth, b)
			for v < dv {
				v++
				bnd[v] = p
			}
		}
		for v < d {
			v++
			bnd[v] = s.hi
		}

		for p := s.lo; p < s.hi; p++ {
			xi := ring[p]
			xd := refs[xi].ID.Digit(s.depth, b)
			for col := 0; col < d; col++ {
				size := bnd[col+1] - bnd[col]
				if col == xd || size == 0 {
					continue
				}
				best := int32(-1)
				bestProx := 0.0
				for samp := 0; samp < rtSamples; samp++ {
					h := mix3(seedMix^uint64(xi), uint64(s.depth)<<8|uint64(col), uint64(samp))
					ci := ring[bnd[col]+int(h%uint64(size))]
					prox := c.Topo.Distance(int(xi), int(ci))
					if best == -1 || prox < bestProx {
						best, bestProx = ci, prox
					}
				}
				c.Nodes[xi].SeedRoutingEntry(arena, refs[best], bestProx)
			}
		}
		for v := 0; v < d; v++ {
			if bnd[v+1]-bnd[v] > 1 {
				stack = append(stack, span{bnd[v], bnd[v+1], s.depth + 1})
			}
		}
	}
}

// seedNeighborhoods gives each node up to nbhdSeed same-stub peers,
// proximally closest first — the topologically nearest nodes there are.
func (c *Cluster) seedNeighborhoods(refs []wire.NodeRef) {
	byStub := map[int][]int32{}
	for i := range c.Nodes {
		st := c.Topo.Stub(i)
		byStub[st] = append(byStub[st], int32(i))
	}
	var peerRefs []wire.NodeRef
	var peerProx []float64
	for i := range c.Nodes {
		peers := byStub[c.Topo.Stub(i)]
		peerRefs = peerRefs[:0]
		peerProx = peerProx[:0]
		for _, pi := range peers {
			if int(pi) == i {
				continue
			}
			peerRefs = append(peerRefs, refs[pi])
			peerProx = append(peerProx, c.Topo.Distance(i, int(pi)))
			if len(peerRefs) == nbhdSeed {
				break
			}
		}
		sort.Sort(&proxSort{peerRefs, peerProx})
		c.Nodes[i].SeedNeighborhood(peerRefs, peerProx)
	}
}

type proxSort struct {
	refs []wire.NodeRef
	prox []float64
}

func (p *proxSort) Len() int           { return len(p.refs) }
func (p *proxSort) Less(a, b int) bool { return p.prox[a] < p.prox[b] }
func (p *proxSort) Swap(a, b int) {
	p.refs[a], p.refs[b] = p.refs[b], p.refs[a]
	p.prox[a], p.prox[b] = p.prox[b], p.prox[a]
}

// mix3 is the splitmix64 finalizer over three mixed words: a cheap,
// deterministic hash driving routing-slot sampling (no rand.Rand state,
// no allocation).
func mix3(a, b, s uint64) uint64 {
	z := a ^ b*0xBF58476D1CE4E5B9 ^ s*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}
