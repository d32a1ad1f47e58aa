package pastry

import "past/internal/wire"

// Bulk-construction seeding. The analytic builder in internal/cluster
// computes routing tables, leaf sets, and neighborhood sets for a whole
// network directly from the sorted id ring (O(n log n) total work)
// instead of replaying n join protocols. These entry points install that
// precomputed state; they are only meant to be called on a node that has
// not yet joined a network and before the simulation delivers any
// traffic, so they take the lock only to keep the race detector honest
// about construction-vs-run ordering.

// SeedRoutingEntry installs ref at its prefix slot, allocating the row
// from a when non-nil. Unlike Consider it does not compare proximities —
// the builder already chose the winning candidate — but it does follow
// the same coordinate rules (the owner itself is silently skipped).
func (n *Node) SeedRoutingEntry(a *Arena, ref wire.NodeRef, prox float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	row, col, ok := n.rt.coords(ref.ID)
	if !ok {
		return
	}
	n.rt.ensureRow(row, a)[col] = entry{ref, prox}
	n.rt.ver++
}

// SeedLeafHalves replaces the leaf-set halves. Both slices must already be
// sorted closest-first in ring distance from this node (smaller =
// counter-clockwise, larger = clockwise) and contain at most l/2 entries
// each; ownership transfers to the node, so the builder typically carves
// them from an Arena and never touches them again.
func (n *Node) SeedLeafHalves(smaller, larger []wire.NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leaf.smaller = smaller
	n.leaf.larger = larger
	n.leaf.ver++
}

// SeedNeighborhood replaces the neighborhood set with refs (proximally
// closest first, paired with prox). len(refs) must not exceed M.
func (n *Node) SeedNeighborhood(refs []wire.NodeRef, prox []float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nbhd.entries = n.nbhd.entries[:0]
	for i, r := range refs {
		n.nbhd.entries = append(n.nbhd.entries, entry{r, prox[i]})
	}
	n.nbhd.ver++
}

// SeedJoined marks the node a full member without running the join
// protocol, mirroring what Bootstrap does for the first node: the node
// starts routing, answering joins, and (when configured) probing its leaf
// set for liveness.
func (n *Node) SeedJoined() {
	n.mu.Lock()
	n.joined = true
	n.alive = true
	n.mu.Unlock()
	n.startKeepAlive()
}
