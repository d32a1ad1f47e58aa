package topology

import (
	"fmt"
	"math/rand"
	"time"
)

// The topology's shape mirrors the rough scale of GT-ITM topologies used
// in the Pastry paper: a handful of transit domains, tens of stubs, wide
// spread between intra-stub and cross-transit latencies (milliseconds).
const (
	transits        = 8  // transit domains
	stubsPerTransit = 16 // stub domains per transit domain
	// Bounds on the latency between distinct transit domains, on a stub
	// domain's uplink to its transit router, and on a node's intra-stub
	// contribution.
	transitMin, transitMax = 20.0, 80.0
	uplinkMin, uplinkMax   = 4.0, 16.0
	stubMin, stubMax       = 0.5, 3.0
)

// Topology is an immutable generated topology. Attach end nodes with
// Place; query distances with Distance.
type Topology struct {
	transit [transits][transits]float64 // symmetric transit-to-transit latency matrix
	uplink  []float64                   // per-stub uplink latency, indexed by stub
	rng     *rand.Rand
	nodes   []place // indexed by node
}

// place is where an end node sits: everything Distance reads of one node,
// in one record.
type place struct {
	stub, transit int32
	hop           float64 // intra-stub latency component
	uplink        float64 // the stub's uplink latency
}

// New generates a topology; seed makes generation deterministic.
func New(seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	t := &Topology{rng: rng}
	for i := 0; i < transits; i++ {
		for j := i + 1; j < transits; j++ {
			d := transitMin + rng.Float64()*(transitMax-transitMin)
			t.transit[i][j] = d
			t.transit[j][i] = d
		}
	}
	nStubs := transits * stubsPerTransit
	t.uplink = make([]float64, nStubs)
	for s := 0; s < nStubs; s++ {
		t.uplink[s] = uplinkMin + rng.Float64()*(uplinkMax-uplinkMin)
	}
	return t
}

// NumStubs returns the number of stub domains.
func (t *Topology) NumStubs() int { return len(t.uplink) }

// NumNodes returns the number of placed end nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Place attaches a new end node to a uniformly random stub domain and
// returns its node index. Node indices are dense and start at zero.
func (t *Topology) Place() int {
	stub := t.rng.Intn(len(t.uplink))
	return t.PlaceAt(stub)
}

// PlaceAt attaches a new end node to the given stub domain.
func (t *Topology) PlaceAt(stub int) int {
	if stub < 0 || stub >= len(t.uplink) {
		panic(fmt.Sprintf("topology: stub %d out of range [0,%d)", stub, len(t.uplink)))
	}
	hop := stubMin + t.rng.Float64()*(stubMax-stubMin)
	t.nodes = append(t.nodes, place{
		stub: int32(stub), transit: int32(stub / stubsPerTransit), hop: hop, uplink: t.uplink[stub],
	})
	return len(t.nodes) - 1
}

// Stub returns the stub domain of node i.
func (t *Topology) Stub(i int) int { return int(t.nodes[i].stub) }

// Transit returns the transit domain of node i.
func (t *Topology) Transit(i int) int { return int(t.nodes[i].transit) }

// LookaheadBound returns a lower bound on the delivery latency between
// any two end nodes in DIFFERENT transit domains: two intra-stub hops,
// two uplinks and one transit link at their minimums. It is a constant —
// it never depends on node placement — and clusters use it as the
// simulator's window length.
func (t *Topology) LookaheadBound() time.Duration {
	return time.Duration((transitMin + 2*uplinkMin + 2*stubMin) * float64(time.Millisecond))
}

// Distance returns the proximity metric between end nodes a and b, in
// milliseconds of one-way latency. Distance is symmetric, zero iff a == b,
// and satisfies the hierarchical structure described in the package
// comment. It does not satisfy the triangle inequality exactly (neither do
// Internet RTTs).
func (t *Topology) Distance(a, b int) float64 {
	if a == b {
		return 0
	}
	pa, pb := &t.nodes[a], &t.nodes[b]
	if pa.stub == pb.stub {
		return pa.hop + pb.hop
	}
	// Group the symmetric pairs so floating-point non-associativity cannot
	// make Distance(a,b) != Distance(b,a).
	d := (pa.hop + pb.hop) + (pa.uplink + pb.uplink)
	if pa.transit != pb.transit {
		d += t.transit[pa.transit][pb.transit]
	}
	return d
}

// MaxDistance returns an upper bound on any pairwise distance, useful for
// normalizing plots and for timeout selection in simulations.
func (t *Topology) MaxDistance() float64 {
	maxT := 0.0
	for i := range t.transit {
		for j := range t.transit[i] {
			if t.transit[i][j] > maxT {
				maxT = t.transit[i][j]
			}
		}
	}
	return 2*stubMax + 2*uplinkMax + maxT
}
