// Package experiments reproduces every quantitative claim of the PAST
// paper (and the companion-paper results it quotes) as runnable
// experiments. Each experiment builds a simulated network through
// package cluster, drives a workload, and returns a table shaped like the
// corresponding figure or table in the paper. cmd/pastsim prints them;
// the repository-root benchmarks run them at reduced scale.
//
// See ARCHITECTURE.md for the experiment index and the paper-to-code
// mapping.
package experiments

import (
	"fmt"

	"past/internal/cluster"
	"past/internal/id"
	"past/internal/metrics"
	"past/internal/past"
	"past/internal/pastry"
)

// Scale selects experiment sizing.
type Scale int

// Scales: Small finishes in seconds (CI, benchmarks); Full approaches the
// paper's network sizes and runs for minutes. Large (20k nodes) and Huge
// (100k nodes) reach the paper's "many thousands of nodes" regime via
// bulk analytic construction (cluster.Options.Analytic) and compact
// per-node randomness; only E1, E4, and E15 implement them — other
// experiments fall back to their Small sizing (they switch on the scales
// they know).
const (
	Small Scale = iota
	Full
	Large
	Huge
)

// String names the scale the way the CLI flags spell it.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Full:
		return "full"
	case Large:
		return "large"
	case Huge:
		return "huge"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// ParseScale converts a CLI spelling to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "full":
		return Full, nil
	case "large":
		return Large, nil
	case "huge":
		return Huge, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (small, full, large, huge)", s)
}

// Result is one reproduced table/figure.
type Result struct {
	ID         string
	Title      string
	PaperClaim string
	Table      *metrics.Table
	Notes      []string
	// Nodes and Events, when nonzero, report the largest network built
	// and the total simulated messages delivered. They do not appear in
	// String() output: pastsim prints them (and events/sec) on its timing
	// line, and bench/ reads Events for sim.e15_*.
	Nodes  int
	Events uint64
	// SeriesLP holds the experiment's per-window telemetry in line
	// protocol when CollectSeries is on (experiments that instrument
	// series: E15, E18, E20). Not part of String() output; pastsim
	// persists it via -series.
	SeriesLP string
}

// String renders the result for terminal output.
func (r Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\npaper: %s\n\n%s", r.ID, r.Title, r.PaperClaim, r.Table.String())
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Runner executes one experiment.
type Runner func(scale Scale, seed int64) Result

// Registry maps experiment ids to runners, in presentation order.
var registry = []struct {
	id  string
	run Runner
}{
	{"E1", E1RoutingHops},
	{"E2", E2HopDistribution},
	{"E3", E3Locality},
	{"E4", E4ReplicaProximity},
	{"E5", E5FailureRouting},
	{"E6", E6TableSize},
	{"E7", E7JoinCost},
	{"E8", E8Utilization},
	{"E9", E9RejectionBias},
	{"E10", E10Caching},
	{"E11", E11MaliciousRouting},
	{"E12", E12Quota},
	{"E13", E13ChordComparison},
	{"E14", E14ReplicaDiversity},
	{"E15", E15ChurnAvailability},
	{"E16", E16MaintenanceBandwidth},
	{"E17", E17ReplicaDurability},
	{"E18", E18AdversarialLookups},
	{"E19", E19ReceiptContainment},
	{"E20", E20RegionalOutage},
	{"E21", E21FlashCrowd},
	{"A1", A1ParameterAblation},
	{"A2", A2DiversionAblation},
}

// IDs lists all experiment identifiers in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes the experiment with the given id.
func Run(idStr string, scale Scale, seed int64) (Result, error) {
	for _, e := range registry {
		if e.id == idStr {
			return e.run(scale, seed), nil
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", idStr, IDs())
}

// ---------------------------------------------------------------------------
// Shared harness helpers

// clusterOptions is how every experiment configures its simulated
// network: the default overlay parameters, then the experiment's own
// mutator.
func clusterOptions(n int, seed int64, mut func(*cluster.Options)) cluster.Options {
	opts := cluster.Options{N: n, Pastry: pastry.DefaultConfig(), Seed: seed}
	if mut != nil {
		mut(&opts)
	}
	return opts
}

// routingCluster builds an N-node overlay with recorder apps.
func routingCluster(n int, seed int64, mut func(*cluster.Options)) (*cluster.Cluster, []*cluster.Recorder, error) {
	factory, recs := cluster.RecorderFactory(n)
	opts := clusterOptions(n, seed, mut)
	opts.AppFactory = factory
	c, err := cluster.Build(opts)
	return c, recs, err
}

// mustRoutingCluster panics on build failure (experiments are programs,
// not servers; a failed build is a bug).
func mustRoutingCluster(n int, seed int64, mut func(*cluster.Options)) (*cluster.Cluster, []*cluster.Recorder) {
	c, recs, err := routingCluster(n, seed, mut)
	if err != nil {
		panic(err)
	}
	return c, recs
}

// probeRoute sends one probe and waits for delivery; returns ok=false on
// loss.
func probeRoute(c *cluster.Cluster, recs []*cluster.Recorder, from int, key id.Node, seq uint64) (cluster.Delivery, bool) {
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
	c.Net.RunUntil(func() bool { return got != nil }, 10_000_000)
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

// largeTier configures a bulk-constructed tier cluster: analytic ring
// seeding instead of protocol joins and compact per-node randomness.
// Only the Large/Huge tiers use it — their output is new, so the stream
// changes CompactRand implies are admissible there and nowhere else.
func largeTier(o *cluster.Options) {
	o.Analytic = true
	o.Pastry.CompactRand = true
}

// probeRouteTo sends one probe whose correct destination is already known
// from the oracle, arming only that node's recorder. probeRoute arms all
// n recorders per probe, which is fine at experiment scales up to a few
// thousand nodes but dominates wall clock at 100k.
func probeRouteTo(c *cluster.Cluster, recs []*cluster.Recorder, from, dest int, key id.Node, seq uint64) (cluster.Delivery, bool) {
	var got *cluster.Delivery
	recs[dest].OnDeliver = func(d cluster.Delivery) {
		if p, ok := d.Routed.Payload.(cluster.ProbeMsg); ok && p.Seq == seq {
			got = &d
		}
	}
	c.Nodes[from].Route(key, cluster.ProbeMsg{Seq: seq})
	c.Net.RunUntil(func() bool { return got != nil }, 10_000_000)
	recs[dest].OnDeliver = nil
	if got == nil {
		return cluster.Delivery{}, false
	}
	return *got, true
}

// mustPAST builds a PAST network. capacities may be nil (uniform cfg.Capacity) or provide per-node
// capacities. A failed build is a bug, as in mustRoutingCluster.
func mustPAST(n int, seed int64, cfg past.Config, capacities func(i int) int64, mut func(*cluster.Options)) *cluster.PAST {
	pc, err := cluster.BuildPAST(clusterOptions(n, seed, mut), cfg, capacities, 0)
	if err != nil {
		panic(err)
	}
	return pc
}
