// Package topology synthesizes an Internet-like network topology and
// exposes a pairwise proximity metric over end nodes.
//
// The Pastry evaluation the PAST paper cites used GT-ITM transit-stub
// graphs with shortest-path link distances. Computing all-pairs shortest
// paths is infeasible at the 10^5-node scale this reproduction targets, so
// this package substitutes a hierarchical metric with the same structure:
// a small set of transit domains connected by a random symmetric distance
// matrix, stub domains attached to transit routers, and end nodes attached
// to stub routers. The distance between two end nodes composes
//
//	intra-stub hop + stub uplink + transit-to-transit + downlink + hop
//
// in O(1) per pair: Distance reads the two nodes' placement records (stub,
// transit domain, hop, uplink) and at most one cell of the transit matrix.
// Locality experiments depend only on the metric's hierarchical clustering
// (nearby nodes share a stub, far nodes cross transit domains), which this
// construction preserves. See ARCHITECTURE.md ("Topology and locality").
//
// LookaheadBound turns the minimum cross-transit latency into the
// simulator's window length. It follows from the package's constants
// alone, never from placement.
package topology
