package pastry

import (
	"math/rand"
	"testing"
	"testing/quick"

	"past/internal/id"
	"past/internal/wire"
)

func ref(seed uint64) wire.NodeRef {
	return wire.NodeRef{ID: id.Rand(seed), Addr: "sim:0"}
}

func refWithID(n id.Node) wire.NodeRef {
	return wire.NodeRef{ID: n, Addr: "sim:0"}
}

// ---------------------------------------------------------------------------
// Routing table

func TestRoutingTableConsiderAndLookup(t *testing.T) {
	owner := id.Rand(1)
	rt := NewRoutingTable(owner, 4)
	// A node differing in the first digit goes into row 0.
	other := owner.SetDigit(0, 4, (owner.Digit(0, 4)+1)%16)
	if !rt.Consider(refWithID(other), 10) {
		t.Fatal("fresh entry rejected")
	}
	got, ok := rt.Get(0, other.Digit(0, 4))
	if !ok || got.ID != other {
		t.Fatal("entry not found at expected slot")
	}
	// Lookup for a key with the same first digit as `other` should find it.
	key := other.SetDigit(5, 4, (other.Digit(5, 4)+1)%16)
	e, ok := rt.Lookup(key)
	if !ok || e.ID != other {
		t.Fatal("Lookup missed row-0 entry")
	}
}

func TestRoutingTableKeepsProximallyClosest(t *testing.T) {
	owner := id.Rand(1)
	rt := NewRoutingTable(owner, 4)
	d := (owner.Digit(0, 4) + 1) % 16
	a := owner.SetDigit(0, 4, d)
	b := a.SetDigit(31, 4, (a.Digit(31, 4)+1)%16) // same slot, different node
	if id.CommonPrefix(owner, a, 4) != 0 || a.Digit(0, 4) != b.Digit(0, 4) {
		t.Fatal("test construction broken")
	}
	rt.Consider(refWithID(a), 50)
	if rt.Consider(refWithID(b), 100) {
		t.Fatal("farther node displaced closer one")
	}
	if got, _ := rt.Get(0, d); got.ID != a {
		t.Fatal("slot should keep a")
	}
	if !rt.Consider(refWithID(b), 10) {
		t.Fatal("closer node should displace")
	}
	if got, _ := rt.Get(0, d); got.ID != b {
		t.Fatal("slot should now hold b")
	}
}

func TestRoutingTableRefreshesSameNode(t *testing.T) {
	owner := id.Rand(1)
	rt := NewRoutingTable(owner, 4)
	a := owner.SetDigit(0, 4, (owner.Digit(0, 4)+1)%16)
	rt.Consider(wire.NodeRef{ID: a, Addr: "sim:1"}, 50)
	rt.Consider(wire.NodeRef{ID: a, Addr: "sim:2"}, 60)
	got, _ := rt.Get(0, a.Digit(0, 4))
	if got.Addr != "sim:2" {
		t.Fatal("address not refreshed")
	}
}

func TestRoutingTableRejectsOwner(t *testing.T) {
	owner := id.Rand(1)
	rt := NewRoutingTable(owner, 4)
	if rt.Consider(refWithID(owner), 1) {
		t.Fatal("owner must not enter its own table")
	}
	if rt.Size() != 0 {
		t.Fatal("table should be empty")
	}
}

func TestRoutingTableRemove(t *testing.T) {
	owner := id.Rand(1)
	rt := NewRoutingTable(owner, 4)
	a := owner.SetDigit(0, 4, (owner.Digit(0, 4)+1)%16)
	rt.Consider(refWithID(a), 1)
	if !rt.Remove(a) {
		t.Fatal("Remove missed present entry")
	}
	if rt.Remove(a) {
		t.Fatal("Remove on absent entry should report false")
	}
	if rt.Size() != 0 {
		t.Fatal("size after remove")
	}
}

func TestRoutingTableRowAndSize(t *testing.T) {
	owner := id.Rand(1)
	rt := NewRoutingTable(owner, 4)
	n := 0
	for v := 0; v < 16; v++ {
		if v == owner.Digit(0, 4) {
			continue
		}
		rt.Consider(refWithID(owner.SetDigit(0, 4, v).SetDigit(20, 4, v)), float64(v))
		n++
	}
	if rt.Size() != n || n != 15 {
		t.Fatalf("Size = %d, want 15", rt.Size())
	}
	if len(rt.Row(0)) != 15 {
		t.Fatalf("Row(0) has %d entries", len(rt.Row(0)))
	}
	if rt.PopulatedRows() != 1 {
		t.Fatalf("PopulatedRows = %d", rt.PopulatedRows())
	}
	if rt.Row(5) != nil {
		t.Fatal("empty row should be nil")
	}
	if rt.NumRows() != 32 {
		t.Fatalf("NumRows = %d for b=4", rt.NumRows())
	}
}

func TestRoutingTableDeepRow(t *testing.T) {
	owner := id.Rand(1)
	rt := NewRoutingTable(owner, 4)
	// Node sharing 10 digits goes to row 10.
	n10 := owner.SetDigit(10, 4, (owner.Digit(10, 4)+3)%16)
	rt.Consider(refWithID(n10), 1)
	if got, ok := rt.Get(10, n10.Digit(10, 4)); !ok || got.ID != n10 {
		t.Fatal("deep row entry missing")
	}
	if rt.PopulatedRows() != 11 {
		t.Fatalf("PopulatedRows = %d, want 11", rt.PopulatedRows())
	}
}

func TestRoutingTableQuickSlotInvariant(t *testing.T) {
	// Property: every populated slot (r,c) holds a node that shares
	// exactly r digits with the owner and whose digit r is c.
	owner := id.Rand(42)
	rt := NewRoutingTable(owner, 4)
	rng := rand.New(rand.NewSource(7))
	f := func(seed uint64, prox float64) bool {
		n := id.Rand(seed | rng.Uint64())
		rt.Consider(refWithID(n), prox)
		for r := 0; r < rt.NumRows(); r++ {
			for c := 0; c < 16; c++ {
				e, ok := rt.Get(r, c)
				if !ok {
					continue
				}
				if id.CommonPrefix(owner, e.ID, 4) != r || e.ID.Digit(r, 4) != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Leaf set

func TestLeafSetOrdering(t *testing.T) {
	owner := id.Rand(1)
	ls := NewLeafSet(owner, 8)
	// Insert nodes at increasing clockwise offsets.
	var refs []wire.NodeRef
	for i := 1; i <= 10; i++ {
		d := id.Node{}
		d[id.NodeBytes-1] = byte(i)
		refs = append(refs, refWithID(owner.Add(d)))
	}
	// Insert in scrambled order.
	for _, i := range []int{5, 2, 9, 0, 7, 1, 8, 3, 6, 4} {
		ls.Consider(refs[i], false)
	}
	larger := ls.Larger()
	if len(larger) != 4 {
		t.Fatalf("larger half size %d, want 4", len(larger))
	}
	for i, m := range larger {
		if m.ID != refs[i].ID {
			t.Fatalf("larger[%d] wrong: got %v want %v", i, m.ID.Short(), refs[i].ID.Short())
		}
	}
}

func TestLeafSetBothSidesSmallRing(t *testing.T) {
	// With fewer nodes than l/2 the same node may appear on both sides.
	owner := id.Rand(1)
	ls := NewLeafSet(owner, 8)
	other := refWithID(owner.Add(id.Rand(2)))
	ls.Consider(other, false)
	if !ls.Contains(other.ID) {
		t.Fatal("member missing")
	}
	if got := len(ls.Members()); got != 1 {
		t.Fatalf("Members deduplicated to %d, want 1", got)
	}
	if len(ls.Smaller()) != 1 || len(ls.Larger()) != 1 {
		t.Fatal("single peer should occupy both halves of a 2-node ring")
	}
}

func TestLeafSetRejectsOwnerAndDup(t *testing.T) {
	owner := id.Rand(1)
	ls := NewLeafSet(owner, 8)
	if ls.Consider(refWithID(owner), false) {
		t.Fatal("owner accepted")
	}
	m := ref(2)
	if !ls.Consider(m, false) {
		t.Fatal("fresh member rejected")
	}
	if ls.Consider(m, false) {
		t.Fatal("duplicate accepted")
	}
}

func TestLeafSetEviction(t *testing.T) {
	owner := id.Rand(1)
	ls := NewLeafSet(owner, 4) // 2 per side
	d := func(i byte) wire.NodeRef {
		dd := id.Node{}
		dd[id.NodeBytes-1] = i
		return refWithID(owner.Add(dd))
	}
	ls.Consider(d(10), false)
	ls.Consider(d(20), false)
	// d(5) is closer clockwise: should evict d(20) from larger side.
	ls.Consider(d(5), false)
	larger := ls.Larger()
	if len(larger) != 2 || larger[0].ID != d(5).ID || larger[1].ID != d(10).ID {
		t.Fatalf("eviction wrong: %v", larger)
	}
	// A far node must be rejected outright.
	if changedLarger(ls, d(200)) {
		t.Fatal("far node accepted on full side")
	}
}

func changedLarger(ls *LeafSet, r wire.NodeRef) bool {
	before := ls.Larger()
	ls.Consider(r, false)
	after := ls.Larger()
	if len(before) != len(after) {
		return true
	}
	for i := range before {
		if before[i].ID != after[i].ID {
			return true
		}
	}
	return false
}

func TestLeafSetRemove(t *testing.T) {
	owner := id.Rand(1)
	ls := NewLeafSet(owner, 8)
	m := ref(2)
	ls.Consider(m, false)
	if !ls.Remove(m.ID) {
		t.Fatal("Remove missed member")
	}
	if ls.Remove(m.ID) {
		t.Fatal("double remove reported true")
	}
	if ls.Contains(m.ID) {
		t.Fatal("still contains removed member")
	}
}

func TestLeafSetInRange(t *testing.T) {
	owner := id.Rand(1)
	ls := NewLeafSet(owner, 4)
	// Underfull set covers the whole ring.
	if !ls.InRange(id.Rand(99)) {
		t.Fatal("underfull leaf set should cover everything")
	}
	d := func(i byte, up bool) wire.NodeRef {
		dd := id.Node{}
		dd[id.NodeBytes-1] = i
		if up {
			return refWithID(owner.Add(dd))
		}
		return refWithID(owner.Sub(dd))
	}
	ls.Consider(d(10, true), false)
	ls.Consider(d(20, true), false)
	ls.Consider(d(10, false), false)
	ls.Consider(d(20, false), false)
	if len(ls.Smaller()) != 2 || len(ls.Larger()) != 2 {
		t.Fatal("setup: sides should be full")
	}
	inside := id.Node{}
	inside[id.NodeBytes-1] = 15
	if !ls.InRange(owner.Add(inside)) {
		t.Fatal("key within span reported out of range")
	}
	if !ls.InRange(owner) {
		t.Fatal("owner in range")
	}
	outside := id.Node{}
	outside[id.NodeBytes-1] = 25
	if ls.InRange(owner.Add(outside)) {
		t.Fatal("key beyond span reported in range")
	}
	if ls.InRange(owner.Sub(outside)) {
		t.Fatal("key below span reported in range")
	}
	// Boundary members are in range.
	if !ls.InRange(d(20, true).ID) || !ls.InRange(d(20, false).ID) {
		t.Fatal("extreme members must be in range")
	}
}

func TestLeafSetClosest(t *testing.T) {
	owner := id.Rand(1)
	ls := NewLeafSet(owner, 4)
	d := id.Node{}
	d[id.NodeBytes-1] = 10
	peer := refWithID(owner.Add(d))
	ls.Consider(peer, false)
	// Key right next to peer: peer is closest.
	key := peer.ID.Add(id.Node{})
	got, selfBest := ls.Closest(key)
	if selfBest || got.ID != peer.ID {
		t.Fatal("peer should be closest to its own vicinity")
	}
	// Key equal to owner: owner closest.
	if _, selfBest := ls.Closest(owner); !selfBest {
		t.Fatal("owner should be closest to itself")
	}
}

func TestLeafSetExtremeAndSide(t *testing.T) {
	owner := id.Rand(1)
	ls := NewLeafSet(owner, 4)
	d := func(i byte, up bool) wire.NodeRef {
		dd := id.Node{}
		dd[id.NodeBytes-1] = i
		if up {
			return refWithID(owner.Add(dd))
		}
		return refWithID(owner.Sub(dd))
	}
	up1, up2 := d(10, true), d(20, true)
	dn1 := d(10, false)
	ls.Consider(up1, false)
	ls.Consider(up2, false)
	ls.Consider(dn1, false)
	ext, ok := ls.Extreme(true)
	if !ok || ext.ID != up2.ID {
		t.Fatal("clockwise extreme wrong")
	}
	// With only three members and two slots per side, the smaller side
	// wraps around the ring: dn1 (distance 10 CCW) then up2 (distance
	// 2^128-20 CCW). The extreme is therefore up2.
	ext, ok = ls.Extreme(false)
	if !ok || ext.ID != up2.ID {
		t.Fatalf("counter-clockwise extreme = %v, want up2", ext.ID.Short())
	}
	if !ls.SideOf(up1.ID) {
		t.Fatal("up1 should be clockwise")
	}
	if ls.SideOf(dn1.ID) {
		t.Fatal("dn1 should be counter-clockwise")
	}
}

func TestLeafSetQuickClosestIsTrueMinimum(t *testing.T) {
	// Property: Closest returns the true numerically closest member.
	rng := rand.New(rand.NewSource(3))
	f := func(ownerSeed uint64, n uint8) bool {
		owner := id.Rand(ownerSeed)
		ls := NewLeafSet(owner, 16)
		var all []id.Node
		for i := 0; i < int(n%20)+1; i++ {
			m := id.Rand(rng.Uint64())
			if ls.Consider(refWithID(m), false) {
				all = append(all, m)
			}
		}
		key := id.Rand(rng.Uint64())
		got, selfBest := ls.Closest(key)
		bestID := owner
		for _, m := range ls.Members() {
			if id.Closer(key, m.ID, bestID) {
				bestID = m.ID
			}
		}
		if selfBest {
			return bestID == owner
		}
		return got.ID == bestID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Neighborhood

func TestNeighborhoodKeepsClosest(t *testing.T) {
	nb := NewNeighborhood(3)
	nb.Consider(ref(1), 30, false)
	nb.Consider(ref(2), 10, false)
	nb.Consider(ref(3), 20, false)
	nb.Consider(ref(4), 5, false)
	members := nb.Members()
	if len(members) != 3 {
		t.Fatalf("len = %d", len(members))
	}
	if members[0].ID != id.Rand(4) || members[1].ID != id.Rand(2) || members[2].ID != id.Rand(3) {
		t.Fatal("neighborhood not sorted by proximity")
	}
	if nb.Consider(ref(5), 100, false) {
		t.Fatal("far node accepted into full set")
	}
	if nb.Consider(ref(2), 1, false) {
		t.Fatal("duplicate accepted")
	}
}

func TestNeighborhoodRemove(t *testing.T) {
	nb := NewNeighborhood(3)
	nb.Consider(ref(1), 1, false)
	if !nb.Remove(id.Rand(1)) {
		t.Fatal("remove missed")
	}
	if nb.Remove(id.Rand(1)) {
		t.Fatal("double remove")
	}
	if nb.Len() != 0 {
		t.Fatal("len after remove")
	}
}
