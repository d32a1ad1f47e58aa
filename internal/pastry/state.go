// Package pastry implements the Pastry location and routing scheme used by
// PAST (section 2.2 of the paper): prefix-based routing in a circular
// 128-bit nodeId space, a routing table with ceil(128/b) rows of 2^b-1
// entries, a leaf set of the l numerically closest nodes, a neighborhood
// set of proximally close nodes, the self-organizing join protocol, leaf
// keep-alive failure detection with repair, lazy routing-table repair, and
// the randomized fault-tolerant routing variant.
package pastry

import (
	"slices"
	"sort"

	"past/internal/id"
	"past/internal/wire"
)

// entry is a routing-state slot: a node reference plus its proximity
// (the scalar metric of section 1) as measured from the owning node.
type entry struct {
	ref  wire.NodeRef
	prox float64
}

// ---------------------------------------------------------------------------
// Routing table

// RoutingTable is the prefix-routing structure of section 2.2: row n holds
// nodes whose nodeIds share the first n digits with the owner but differ in
// digit n. Both the row directory and individual rows are allocated
// lazily: in a network of N nodes only about log_2b N rows ever populate,
// so the directory grows on demand instead of holding all ceil(128/b)
// slots up front (at b=4 that is 32 slice headers — 768 bytes — per node,
// which matters when simulating 100k of them).
//
// ver counts the table's changes (an entry installed, replaced, re-addressed,
// re-measured or removed); a refresh that changes nothing is not one.
type RoutingTable struct {
	owner id.Node
	b     int
	rows  [][]entry
	ver   uint64
}

// NewRoutingTable creates an empty table for the given owner and digit
// size b.
func NewRoutingTable(owner id.Node, b int) *RoutingTable {
	return &RoutingTable{owner: owner, b: b}
}

// ensureRow grows the row directory through index row and materializes the
// row itself, drawing its backing array from a when non-nil (bulk
// construction) and the heap otherwise.
func (t *RoutingTable) ensureRow(row int, a *Arena) []entry {
	if row >= len(t.rows) {
		if row >= cap(t.rows) {
			grown := make([][]entry, row+1, max(row+1, 2*cap(t.rows)))
			copy(grown, t.rows)
			t.rows = grown
		}
		t.rows = t.rows[:row+1]
	}
	if t.rows[row] == nil {
		if a != nil {
			t.rows[row] = a.entryRow(1 << t.b)
		} else {
			t.rows[row] = make([]entry, 1<<t.b)
		}
	}
	return t.rows[row]
}

// coords returns the (row, col) slot where ref belongs, or ok=false when
// ref is the owner itself.
func (t *RoutingTable) coords(n id.Node) (row, col int, ok bool) {
	row = id.CommonPrefix(t.owner, n, t.b)
	if row >= id.NumDigits(t.b) {
		return 0, 0, false // same id as owner
	}
	return row, n.Digit(row, t.b), true
}

// Consider offers a node for inclusion. The slot keeps the proximally
// closest candidate ("among such nodes, the one closest to the present
// node, according to the proximity metric, is chosen", section 2.2).
// It reports whether the entry was installed.
func (t *RoutingTable) Consider(ref wire.NodeRef, prox float64) bool {
	row, col, ok := t.coords(ref.ID)
	if !ok {
		return false
	}
	slot := &t.ensureRow(row, nil)[col]
	if slot.ref.IsZero() {
		*slot = entry{ref, prox}
		t.ver++
		return true
	}
	if slot.ref.ID == ref.ID {
		if slot.ref.Addr != ref.Addr || slot.prox != prox {
			slot.ref.Addr = ref.Addr // refresh address
			slot.prox = prox
			t.ver++
		}
		return true
	}
	if prox < slot.prox {
		*slot = entry{ref, prox}
		t.ver++
		return true
	}
	return false
}

// Get returns the entry at (row, col) and whether it is populated.
func (t *RoutingTable) Get(row, col int) (wire.NodeRef, bool) {
	if row < 0 || row >= len(t.rows) || t.rows[row] == nil {
		return wire.NodeRef{}, false
	}
	if col < 0 || col >= len(t.rows[row]) {
		return wire.NodeRef{}, false
	}
	e := t.rows[row][col]
	return e.ref, !e.ref.IsZero()
}

// Lookup returns the next-hop entry for key: the slot at row = shared
// prefix length, column = key's next digit.
func (t *RoutingTable) Lookup(key id.Node) (wire.NodeRef, bool) {
	row := id.CommonPrefix(t.owner, key, t.b)
	if row >= id.NumDigits(t.b) {
		return wire.NodeRef{}, false
	}
	return t.Get(row, key.Digit(row, t.b))
}

// Remove deletes the entry for node n, returning whether it was present.
func (t *RoutingTable) Remove(n id.Node) bool {
	row, col, ok := t.coords(n)
	if !ok || row >= len(t.rows) || t.rows[row] == nil {
		return false
	}
	if t.rows[row][col].ref.ID != n {
		return false
	}
	t.rows[row][col] = entry{}
	t.ver++
	return true
}

// Row returns a copy of row r's populated entries (used during joins).
func (t *RoutingTable) Row(r int) []wire.NodeRef {
	if r < 0 || r >= len(t.rows) || t.rows[r] == nil {
		return nil
	}
	var out []wire.NodeRef
	for _, e := range t.rows[r] {
		if !e.ref.IsZero() {
			out = append(out, e.ref)
		}
	}
	return out
}

// NumRows returns the table's row capacity (ceil(128/b)). Rows past the
// lazily-grown directory exist logically; they are simply all-empty.
func (t *RoutingTable) NumRows() int { return id.NumDigits(t.b) }

// PopulatedRows returns the index one past the last non-empty row.
func (t *RoutingTable) PopulatedRows() int {
	last := 0
	for i, row := range t.rows {
		if row == nil {
			continue
		}
		for _, e := range row {
			if !e.ref.IsZero() {
				last = i + 1
				break
			}
		}
	}
	return last
}

// Size returns the number of populated entries, the quantity the paper
// bounds by (2^b-1)·ceil(log_2b N).
func (t *RoutingTable) Size() int {
	n := 0
	for _, row := range t.rows {
		for _, e := range row {
			if !e.ref.IsZero() {
				n++
			}
		}
	}
	return n
}

// ForEach visits every populated entry without allocating.
func (t *RoutingTable) ForEach(f func(wire.NodeRef)) {
	for _, row := range t.rows {
		for _, e := range row {
			if !e.ref.IsZero() {
				f(e.ref)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Leaf set

// LeafSet holds the l/2 numerically closest smaller and l/2 closest larger
// nodeIds (section 2.2). In networks with fewer than l nodes the two
// halves may contain the same nodes (the ring wraps).
//
// Sort invariant, which Closest, Members and Len rely on: each half is
// duplicate-free, never holds the owner, and is strictly ascending in its
// ring offset from the owner (offset) — clockwise for larger,
// counter-clockwise for smaller. Consider keeps it by insertion;
// SeedLeafHalves requires it of its caller. Only a smaller entry can repeat
// a larger one.
//
// ver counts the set's changes: a member admitted, evicted, removed or
// re-addressed.
type LeafSet struct {
	owner   id.Node
	half    int
	smaller []wire.NodeRef // sorted by counter-clockwise distance, closest first
	larger  []wire.NodeRef // sorted by clockwise distance, closest first
	ver     uint64
}

// NewLeafSet creates an empty leaf set for owner with capacity l (split
// into halves of l/2).
func NewLeafSet(owner id.Node, l int) *LeafSet {
	return &LeafSet{owner: owner, half: l / 2}
}

// Consider offers a node for membership; it reports whether the set
// changed. A node enters the smaller (larger) half when it is among the
// half closest in counter-clockwise (clockwise) ring direction. direct
// says the offer is a message from the node itself, not a third party's
// mention of it: a held entry then follows the node to ref.Addr.
func (s *LeafSet) Consider(ref wire.NodeRef, direct bool) bool {
	if ref.ID == s.owner || ref.IsZero() {
		return false
	}
	a := s.considerSide(&s.larger, ref, true, direct)
	b := s.considerSide(&s.smaller, ref, false, direct)
	return a || b
}

// offset returns point w's ring offset from the owner o, clockwise or
// counter-clockwise, all in machine words (id.Node.Words): the one form
// every comparison the leaf set makes is in, small enough to inline into
// each search loop.
func offset(o, w id.Offset, clockwise bool) id.Offset {
	if clockwise {
		return w.Sub(o)
	}
	return o.Sub(w)
}

// holds reports whether node n is in list.
func holds(list []wire.NodeRef, n id.Node) bool {
	for i := range list {
		if list[i].ID == n {
			return true
		}
	}
	return false
}

// search returns the index of the first member of a half whose offset from
// o is at or past off: a held node's own slot, anyone else's insertion point.
func search(half []wire.NodeRef, o, off id.Offset, clockwise bool) int {
	lo, hi := 0, len(half)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if offset(o, half[mid].ID.Words(), clockwise).Less(off) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (s *LeafSet) considerSide(side *[]wire.NodeRef, ref wire.NodeRef, clockwise, direct bool) bool {
	list, o := *side, s.owner.Words()
	off := offset(o, ref.ID.Words(), clockwise)
	if n := len(list); n == s.half && offset(o, list[n-1].ID.Words(), clockwise).Less(off) {
		return false // a full half admits nothing past its extreme
	}
	pos := search(list, o, off, clockwise)
	if pos < len(list) && list[pos].ID == ref.ID {
		if direct && list[pos].Addr != ref.Addr {
			list[pos].Addr = ref.Addr
			s.ver++
		}
		return false
	}
	list = append(list, wire.NodeRef{})
	copy(list[pos+1:], list[pos:])
	list[pos] = ref
	if len(list) > s.half {
		list = list[:s.half]
	}
	*side = list
	s.ver++
	return true
}

// Remove deletes node n from both halves, reporting whether it was present.
func (s *LeafSet) Remove(n id.Node) bool {
	removed := false
	for _, side := range []*[]wire.NodeRef{&s.smaller, &s.larger} {
		list := *side
		for i := range list {
			if list[i].ID == n {
				*side = append(list[:i], list[i+1:]...)
				removed = true
				s.ver++
				break
			}
		}
	}
	return removed
}

// Contains reports whether node n is a member.
func (s *LeafSet) Contains(n id.Node) bool {
	return holds(s.smaller, n) || holds(s.larger, n)
}

// wraps reports whether the halves can share a member: the ring is small
// enough that the larger half reaches as far clockwise as the smaller
// half's farthest member sits.
func (s *LeafSet) wraps() bool {
	if len(s.larger) == 0 || len(s.smaller) == 0 {
		return false
	}
	o := s.owner.Words()
	reach := offset(o, s.larger[len(s.larger)-1].ID.Words(), true)
	return !reach.Less(offset(o, s.smaller[len(s.smaller)-1].ID.Words(), true))
}

// Members returns the deduplicated membership (a node can sit in both
// halves in small rings): the larger half, then the smaller-half members
// not already listed, each closest first.
func (s *LeafSet) Members() []wire.NodeRef {
	out := make([]wire.NodeRef, 0, len(s.smaller)+len(s.larger))
	s.ForEach(func(m wire.NodeRef) { out = append(out, m) })
	return out
}

// Len returns the number of distinct members.
func (s *LeafSet) Len() int {
	n := 0
	s.ForEach(func(wire.NodeRef) { n++ })
	return n
}

// ForEach visits the distinct members in place, in Members' order, without
// allocating.
func (s *LeafSet) ForEach(f func(wire.NodeRef)) {
	for _, m := range s.larger {
		f(m)
	}
	wraps := s.wraps()
	for _, m := range s.smaller {
		if !wraps || !holds(s.larger, m.ID) {
			f(m)
		}
	}
}

// InRange reports whether key falls within the leaf set's span: between
// the farthest smaller member and the farthest larger member (inclusive),
// measured around the ring from the owner. An empty set covers only the
// owner itself.
func (s *LeafSet) InRange(key id.Node) bool {
	if key == s.owner {
		return true
	}
	// When either side is unfilled the set spans the whole ring (the
	// network is smaller than l/2 per side).
	if len(s.smaller) < s.half || len(s.larger) < s.half {
		return true
	}
	// key ∈ [lo, owner] ∪ [owner, hi] going clockwise: no farther from the
	// owner than a half's extreme, in that half's direction.
	o, k := s.owner.Words(), key.Words()
	lo := s.smaller[len(s.smaller)-1].ID.Words()
	hi := s.larger[len(s.larger)-1].ID.Words()
	return !offset(o, hi, true).Less(offset(o, k, true)) || !offset(o, lo, false).Less(offset(o, k, false))
}

// Closest returns the member numerically closest to key, considering the
// owner as well; selfBest reports whether the owner itself is closest.
// Within a half, the member closest to key is one of the two whose ring
// offsets bracket the key's: any other is farther than one of those by the
// direct arc, or farther than the owner by the arc through the owner. So a
// binary search per half leaves at most four members to measure against
// the owner, one ring distance each, and the answer is the one a scan of
// every slot under id.Closer gives (larger before smaller, ties by id).
func (s *LeafSet) Closest(key id.Node) (best wire.NodeRef, selfBest bool) {
	o, k := s.owner.Words(), key.Words()
	bestID, bestDist := s.owner, o.Arc(k)
	selfBest = true
	for _, clockwise := range [2]bool{true, false} {
		half := s.smaller
		if clockwise {
			half = s.larger
		}
		at := search(half, o, offset(o, k, clockwise), clockwise)
		for i := max(at-1, 0); i <= at && i < len(half); i++ {
			d := half[i].ID.Words().Arc(k)
			if d.Less(bestDist) || d == bestDist && half[i].ID.Less(bestID) {
				best, bestID, bestDist, selfBest = half[i], half[i].ID, d, false
			}
		}
	}
	return best, selfBest
}

// AppendClosestK appends to dst the k nodes numerically closest to key
// among self (the owner's reference) and the members, closest first:
// exactly the k first of a full sort under id.Closer's total order, at one
// ring distance per slot and with nothing allocated but the room dst lacks
// (while k <= 8). A node in both halves is listed once, by its
// larger-half entry.
func (s *LeafSet) AppendClosestK(dst []wire.NodeRef, self wire.NodeRef, key id.Node, k int) []wire.NodeRef {
	k = min(k, 1+len(s.larger)+len(s.smaller))
	if k <= 0 {
		return dst
	}
	all := slices.Grow(dst, k)
	out := all[len(dst):len(dst)]
	dists := make([]id.Offset, 0, 8) // dists[i] is out[i]'s; on the stack for the usual k
	k0 := key.Words()
	offer := func(c *wire.NodeRef) {
		d := c.ID.Words().Arc(k0)
		pos := len(out)
		for pos > 0 {
			if dists[pos-1].Less(d) {
				break
			}
			if d == dists[pos-1] {
				cmp := c.ID.Cmp(out[pos-1].ID)
				if cmp == 0 {
					return // the smaller-half repeat of a node already placed
				}
				if cmp > 0 {
					break
				}
			}
			pos--
		}
		if pos == k {
			return
		}
		if len(out) < k {
			out = append(out, wire.NodeRef{})
			dists = append(dists, id.Offset{})
		}
		copy(out[pos+1:], out[pos:])
		copy(dists[pos+1:], dists[pos:])
		out[pos], dists[pos] = *c, d
	}
	offer(&self)
	for i := range s.larger {
		offer(&s.larger[i])
	}
	for i := range s.smaller {
		offer(&s.smaller[i])
	}
	return all[:len(dst)+len(out)]
}

// Extreme returns the farthest member on one side (clockwise = larger),
// used to repair the leaf set after a failure ("contacts the live node
// with the largest index on the side of the failed node", section 2.2).
func (s *LeafSet) Extreme(clockwise bool) (wire.NodeRef, bool) {
	side := s.smaller
	if clockwise {
		side = s.larger
	}
	if len(side) == 0 {
		return wire.NodeRef{}, false
	}
	return side[len(side)-1], true
}

// SideOf reports whether n sits clockwise (larger) of the owner by the
// shorter arc; used to decide which side a failed node belonged to.
func (s *LeafSet) SideOf(n id.Node) (clockwise bool) {
	o, w := s.owner.Words(), n.Words()
	return !offset(o, w, false).Less(offset(o, w, true))
}

// Smaller and Larger expose copies of each half, closest first.
func (s *LeafSet) Smaller() []wire.NodeRef { return append([]wire.NodeRef(nil), s.smaller...) }

// Larger returns the clockwise half, closest first.
func (s *LeafSet) Larger() []wire.NodeRef { return append([]wire.NodeRef(nil), s.larger...) }

// ---------------------------------------------------------------------------
// Neighborhood set

// Neighborhood holds the m nodes proximally closest to the owner
// (section 2.2). It is not used for routing but improves the locality of
// routing-table entries and seeds joins. ver counts its changes: a member
// admitted, evicted, removed or re-addressed.
type Neighborhood struct {
	cap     int
	entries []entry // sorted by proximity, closest first
	ver     uint64
}

// NewNeighborhood creates an empty neighborhood set with capacity m.
func NewNeighborhood(m int) *Neighborhood { return &Neighborhood{cap: m} }

// Consider offers a node; the set keeps the m proximally closest. A held
// entry takes a direct offer's address, as in LeafSet.Consider — if the
// offer gets as far as the id scan.
func (nb *Neighborhood) Consider(ref wire.NodeRef, prox float64, direct bool) bool {
	if n := len(nb.entries); n == nb.cap && !(prox < nb.entries[n-1].prox) {
		return false // full and no closer than the farthest: refused, held or not
	}
	for i := range nb.entries {
		if nb.entries[i].ref.ID == ref.ID {
			if direct && nb.entries[i].ref.Addr != ref.Addr {
				nb.entries[i].ref.Addr = ref.Addr
				nb.ver++
			}
			return false
		}
	}
	pos := sort.Search(len(nb.entries), func(i int) bool { return prox < nb.entries[i].prox })
	if pos >= nb.cap {
		return false
	}
	nb.entries = append(nb.entries, entry{})
	copy(nb.entries[pos+1:], nb.entries[pos:])
	nb.entries[pos] = entry{ref, prox}
	if len(nb.entries) > nb.cap {
		nb.entries = nb.entries[:nb.cap]
	}
	nb.ver++
	return true
}

// Remove deletes node n, reporting whether it was present.
func (nb *Neighborhood) Remove(n id.Node) bool {
	for i := range nb.entries {
		if nb.entries[i].ref.ID == n {
			nb.entries = append(nb.entries[:i], nb.entries[i+1:]...)
			nb.ver++
			return true
		}
	}
	return false
}

// Members returns the neighborhood, proximally closest first.
func (nb *Neighborhood) Members() []wire.NodeRef {
	out := make([]wire.NodeRef, len(nb.entries))
	for i, e := range nb.entries {
		out[i] = e.ref
	}
	return out
}

// ForEach visits every member without allocating, closest first.
func (nb *Neighborhood) ForEach(f func(wire.NodeRef)) {
	for _, e := range nb.entries {
		f(e.ref)
	}
}

// Len returns the number of members.
func (nb *Neighborhood) Len() int { return len(nb.entries) }
