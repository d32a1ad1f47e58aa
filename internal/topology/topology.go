package topology

import (
	"fmt"
	"math/rand"
	"time"
)

// Config controls topology generation. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Transits is the number of transit domains.
	Transits int
	// StubsPerTransit is the number of stub domains per transit domain.
	StubsPerTransit int
	// TransitMin/TransitMax bound the latency between distinct transit
	// domains, in milliseconds.
	TransitMin, TransitMax float64
	// UplinkMin/UplinkMax bound each stub domain's uplink latency to its
	// transit router.
	UplinkMin, UplinkMax float64
	// StubMin/StubMax bound the intra-stub latency contribution of a node.
	StubMin, StubMax float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultConfig mirrors the rough scale of GT-ITM topologies used in the
// Pastry paper: a handful of transit domains, tens of stubs, wide spread
// between intra-stub and cross-transit latencies.
func DefaultConfig(seed int64) Config {
	return Config{
		Transits:        8,
		StubsPerTransit: 16,
		TransitMin:      20,
		TransitMax:      80,
		UplinkMin:       4,
		UplinkMax:       16,
		StubMin:         0.5,
		StubMax:         3,
		Seed:            seed,
	}
}

// Topology is an immutable generated topology. Attach end nodes with
// Place; query distances with Distance.
type Topology struct {
	cfg      Config
	transit  [][]float64 // symmetric transit-to-transit latency matrix
	uplink   []float64   // per-stub uplink latency, indexed by stub
	stubOf   []int       // stub -> transit index
	rng      *rand.Rand
	nodeStub []int     // node -> stub index
	nodeHop  []float64 // node -> intra-stub latency component
}

// New generates a topology from cfg.
func New(cfg Config) (*Topology, error) {
	if cfg.Transits <= 0 || cfg.StubsPerTransit <= 0 {
		return nil, fmt.Errorf("topology: need positive domain counts, got %d transits × %d stubs", cfg.Transits, cfg.StubsPerTransit)
	}
	if cfg.TransitMax < cfg.TransitMin || cfg.UplinkMax < cfg.UplinkMin || cfg.StubMax < cfg.StubMin {
		return nil, fmt.Errorf("topology: invalid latency bounds")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Topology{cfg: cfg, rng: rng}
	t.transit = make([][]float64, cfg.Transits)
	for i := range t.transit {
		t.transit[i] = make([]float64, cfg.Transits)
	}
	for i := 0; i < cfg.Transits; i++ {
		for j := i + 1; j < cfg.Transits; j++ {
			d := cfg.TransitMin + rng.Float64()*(cfg.TransitMax-cfg.TransitMin)
			t.transit[i][j] = d
			t.transit[j][i] = d
		}
	}
	nStubs := cfg.Transits * cfg.StubsPerTransit
	t.uplink = make([]float64, nStubs)
	t.stubOf = make([]int, nStubs)
	for s := 0; s < nStubs; s++ {
		t.uplink[s] = cfg.UplinkMin + rng.Float64()*(cfg.UplinkMax-cfg.UplinkMin)
		t.stubOf[s] = s / cfg.StubsPerTransit
	}
	return t, nil
}

// MustNew is New but panics on error; for tests and examples with known
// good configs.
func MustNew(cfg Config) *Topology {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// NumStubs returns the number of stub domains.
func (t *Topology) NumStubs() int { return len(t.uplink) }

// NumNodes returns the number of placed end nodes.
func (t *Topology) NumNodes() int { return len(t.nodeStub) }

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
	hop := t.cfg.StubMin + t.rng.Float64()*(t.cfg.StubMax-t.cfg.StubMin)
	t.nodeStub = append(t.nodeStub, stub)
	t.nodeHop = append(t.nodeHop, hop)
	return len(t.nodeStub) - 1
}

// Stub returns the stub domain of node i.
func (t *Topology) Stub(i int) int { return t.nodeStub[i] }

// Transit returns the transit domain of node i. The simulator
// partitions nodes into shards by transit domain, because the
// config bounds guarantee a latency floor between nodes in different
// transit domains (see LookaheadBound).
func (t *Topology) Transit(i int) int { return t.stubOf[t.nodeStub[i]] }

// LookaheadBound returns a lower bound on the delivery latency between
// any two end nodes in DIFFERENT transit domains, derived purely from the
// config bounds: two intra-stub hops, two uplinks and one transit link at
// their configured minimums. It depends only on the Config — never on
// node placement — so it is identical at any shard count, which the
// simulator's determinism guarantee requires.
func (t *Topology) LookaheadBound() time.Duration {
	ms := t.cfg.TransitMin + 2*t.cfg.UplinkMin + 2*t.cfg.StubMin
	return time.Duration(ms * float64(time.Millisecond))
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
	sa, sb := t.nodeStub[a], t.nodeStub[b]
	if sa == sb {
		return t.nodeHop[a] + t.nodeHop[b]
	}
	ta, tb := t.stubOf[sa], t.stubOf[sb]
	// Group the symmetric pairs so floating-point non-associativity cannot
	// make Distance(a,b) != Distance(b,a).
	d := (t.nodeHop[a] + t.nodeHop[b]) + (t.uplink[sa] + t.uplink[sb])
	if ta != tb {
		d += t.transit[ta][tb]
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
	return 2*t.cfg.StubMax + 2*t.cfg.UplinkMax + maxT
}
