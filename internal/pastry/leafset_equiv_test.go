package pastry

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"past/internal/id"
	"past/internal/wire"
)

// The reference implementations the order-exploiting, word-comparing
// LeafSet and Neighborhood methods are held to: Consider as the id scan
// plus sort.Search over id.Node offsets it used to be, the linear id.Closer
// scan Closest used to be, the map-built Members, a full sort for ClosestK,
// id.Between for InRange. They live here, not in the package.

// refOffset is n's ring offset from the owner as an identifier.
func refOffset(s *LeafSet, n id.Node, clockwise bool) id.Node {
	if clockwise {
		return s.owner.CW(n)
	}
	return s.owner.CCW(n)
}

func refConsider(s *LeafSet, ref wire.NodeRef, direct bool) bool {
	if ref.ID == s.owner || ref.IsZero() {
		return false
	}
	a := refConsiderSide(s, &s.larger, ref, true, direct)
	b := refConsiderSide(s, &s.smaller, ref, false, direct)
	return a || b
}

func refConsiderSide(s *LeafSet, side *[]wire.NodeRef, ref wire.NodeRef, clockwise, direct bool) bool {
	list := *side
	for i := range list {
		if list[i].ID == ref.ID {
			if direct {
				list[i].Addr = ref.Addr
			}
			return false
		}
	}
	off := refOffset(s, ref.ID, clockwise)
	pos := sort.Search(len(list), func(i int) bool {
		return off.Cmp(refOffset(s, list[i].ID, clockwise)) < 0
	})
	if pos >= s.half {
		return false
	}
	list = append(list, wire.NodeRef{})
	copy(list[pos+1:], list[pos:])
	list[pos] = ref
	if len(list) > s.half {
		list = list[:s.half]
	}
	*side = list
	return true
}

// refNeighborhoodConsider scans for the id before anything else, as
// Neighborhood.Consider did. The one rule it did not have: a held entry
// takes a direct offer's address — unless the set is full and the offer no
// closer than its farthest member, which Consider now refuses unseen.
func refNeighborhoodConsider(nb *Neighborhood, ref wire.NodeRef, prox float64, direct bool) bool {
	for i := range nb.entries {
		if nb.entries[i].ref.ID == ref.ID {
			if direct && (len(nb.entries) < nb.cap || prox < nb.entries[len(nb.entries)-1].prox) {
				nb.entries[i].ref.Addr = ref.Addr
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
	return true
}

// refEach visits every slot, larger half first; a node in both halves twice.
func refEach(s *LeafSet, f func(wire.NodeRef)) {
	for _, m := range s.larger {
		f(m)
	}
	for _, m := range s.smaller {
		f(m)
	}
}

func refClosest(s *LeafSet, key id.Node) (best wire.NodeRef, selfBest bool) {
	bestID := s.owner
	selfBest = true
	refEach(s, func(m wire.NodeRef) {
		if id.Closer(key, m.ID, bestID) {
			bestID = m.ID
			best = m
			selfBest = false
		}
	})
	return best, selfBest
}

func refMembers(s *LeafSet) []wire.NodeRef {
	out := make([]wire.NodeRef, 0, len(s.smaller)+len(s.larger))
	seen := make(map[id.Node]bool, len(s.smaller)+len(s.larger))
	refEach(s, func(m wire.NodeRef) {
		if !seen[m.ID] {
			seen[m.ID] = true
			out = append(out, m)
		}
	})
	return out
}

func refInRange(s *LeafSet, key id.Node) bool {
	if key == s.owner || len(s.smaller) < s.half || len(s.larger) < s.half {
		return true
	}
	lo := s.smaller[len(s.smaller)-1].ID
	hi := s.larger[len(s.larger)-1].ID
	return id.Between(key, lo, s.owner) || id.Between(key, s.owner, hi) || key == lo
}

// refSorted is self and every member in id.Closer's order around key.
func refSorted(s *LeafSet, self wire.NodeRef, key id.Node) []wire.NodeRef {
	all := append([]wire.NodeRef{self}, refMembers(s)...)
	sort.Slice(all, func(i, j int) bool { return id.Closer(key, all[i].ID, all[j].ID) })
	return all
}

func sameRefs(a, b []wire.NodeRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// small is the identifier with value v.
func small(v int) id.Node {
	var n id.Node
	n[id.NodeBytes-1] = byte(v)
	return n
}

// TestLeafSetMatchesReference builds thousands of random leaf sets — every
// l the experiments use, rings smaller than l (so the halves overlap),
// ids clustered a few units apart (near-ties), removals — one offer at a
// time beside a twin built by refConsider, and requires after every offer
// the same return value and the same two halves: third-party and direct
// offers, re-offers under another address, then offers at each extreme, one
// inside and one past it, and one unit either side of the owner (offsets 1
// and 2^128-1). Of each finished set it requires that Members, ForEach,
// Len, InRange, Closest and ClosestK return exactly what the reference
// implementations do, on keys chosen to tie: a member itself, the midpoint
// of a member and the owner, the midpoint of two members.
func TestLeafSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	randID := func() id.Node { return id.Rand(rng.Uint64()) }
	checkedKeys, exactTies, offers, moved := 0, 0, 0, 0
	for round := 0; round < 3200; round++ {
		l := []int{2, 4, 8, 16, 32}[rng.Intn(5)]
		owner := randID()
		s, twin := NewLeafSet(owner, l), NewLeafSet(owner, l)
		offer := func(x id.Node, addr string) {
			t.Helper()
			offers++
			r, direct := wire.NodeRef{ID: x, Addr: addr}, rng.Intn(2) == 0
			for _, m := range twin.larger {
				if direct && m.ID == x && m.Addr != addr {
					moved++
				}
			}
			got, want := s.Consider(r, direct), refConsider(twin, r, direct)
			if got != want || !sameRefs(s.larger, twin.larger) || !sameRefs(s.smaller, twin.smaller) {
				t.Fatalf("round %d (l=%d): Consider(%s at %s, direct=%v) = %v, reference %v\n larger %v\n   want %v\nsmaller %v\n   want %v",
					round, l, x, addr, direct, got, want, s.larger, twin.larger, s.smaller, twin.smaller)
			}
		}
		self := wire.NodeRef{ID: owner, Addr: "self"}
		offered := []id.Node{owner}
		for i, n := 0, rng.Intn(81); i < n; i++ {
			var x id.Node
			switch rng.Intn(8) {
			case 0, 1: // clustered: a few units from something already offered
				base := offered[rng.Intn(len(offered))]
				if delta := small(1 + rng.Intn(6)); rng.Intn(2) == 0 {
					x = base.Add(delta)
				} else {
					x = base.Sub(delta)
				}
			case 2: // offered again, under another address
				x = offered[rng.Intn(len(offered))]
			default:
				x = randID()
			}
			offered = append(offered, x)
			offer(x, fmt.Sprintf("a%d", i))
			if rng.Intn(10) == 0 {
				gone := offered[rng.Intn(len(offered))]
				s.Remove(gone)
				twin.Remove(gone)
			}
		}
		for _, clockwise := range [2]bool{true, false} {
			if ext, ok := s.Extreme(clockwise); ok {
				step := small(1)
				if !clockwise {
					step = id.Zero.Sub(step)
				}
				offer(ext.ID, "at the extreme")
				offer(ext.ID.Sub(step), "one inside")
				offer(ext.ID.Add(step), "one past")
				offer(ext.ID.Add(step), "one past, again")
			}
		}
		offer(owner.Add(small(1)), "offset 1")
		offer(owner.Sub(small(1)), "offset 2^128-1")

		for _, half := range []struct {
			side      []wire.NodeRef
			clockwise bool
		}{{s.larger, true}, {s.smaller, false}} {
			for i, m := range half.side {
				if m.ID == owner {
					t.Fatalf("round %d: owner in a half", round)
				}
				if i > 0 && refOffset(s, half.side[i-1].ID, half.clockwise).Cmp(refOffset(s, m.ID, half.clockwise)) >= 0 {
					t.Fatalf("round %d: half not strictly ascending at %d (clockwise=%v)", round, i, half.clockwise)
				}
			}
		}
		members := s.Members()
		if want := refMembers(s); !sameRefs(members, want) {
			t.Fatalf("round %d (l=%d): Members\n got %v\nwant %v", round, l, members, want)
		}
		if s.Len() != len(members) {
			t.Fatalf("round %d: Len %d, Members has %d", round, s.Len(), len(members))
		}
		var walked []wire.NodeRef
		s.ForEach(func(m wire.NodeRef) { walked = append(walked, m) })
		if !sameRefs(walked, members) {
			t.Fatalf("round %d (l=%d): ForEach\n got %v\nwant %v", round, l, walked, members)
		}

		keys := []id.Node{owner, randID(), randID(), owner.Add(small(1)), owner.Sub(small(1))}
		for i := 0; i < 3 && len(members) > 0; i++ {
			m := members[rng.Intn(len(members))].ID
			o := members[rng.Intn(len(members))].ID
			keys = append(keys, m, m.Add(small(1)), m.Sub(small(1)),
				id.Mid(owner, m), id.Mid(m, owner), id.Mid(m, o), id.Mid(o, m))
		}
		for _, key := range keys {
			checkedKeys++
			got, gotSelf := s.Closest(key)
			want, wantSelf := refClosest(s, key)
			sorted := refSorted(s, self, key)
			if len(sorted) > 1 && sorted[0].ID.Dist(key) == sorted[1].ID.Dist(key) {
				exactTies++
			}
			if got != want || gotSelf != wantSelf {
				t.Fatalf("round %d (l=%d, %d members): Closest(%s) = %v,%v want %v,%v",
					round, l, len(members), key, got, gotSelf, want, wantSelf)
			}
			if got, want := s.InRange(key), refInRange(s, key); got != want {
				t.Fatalf("round %d (l=%d, %d members): InRange(%s) = %v, want %v", round, l, len(members), key, got, want)
			}
			if got, want := s.SideOf(key), owner.CW(key).Cmp(owner.CCW(key)) <= 0; got != want {
				t.Fatalf("round %d: SideOf(%s) = %v, want %v", round, key, got, want)
			}
			for _, k := range []int{0, 1, 3, 5, 8, 100} {
				if got, want := s.AppendClosestK(nil, self, key, k), sorted[:min(k, len(sorted))]; !sameRefs(got, want) {
					t.Fatalf("round %d (l=%d, %d members): ClosestK(%s, %d)\n got %v\nwant %v",
						round, l, len(members), key, k, got, want)
				}
			}
		}
	}
	t.Logf("%d offers, %d of them direct to a held entry under another address; %d keys, %d exact ties for first place",
		offers, moved, checkedKeys, exactTies)
	if checkedKeys < 50000 || exactTies < 1000 || offers < 100000 || moved < 1000 {
		t.Fatalf("%d offers (%d re-addressing), %d keys checked, %d of them exact ties for first place: the generator lost its edge cases",
			offers, moved, checkedKeys, exactTies)
	}
}

// TestNeighborhoodMatchesReference does the same for the neighborhood set:
// capacities from 1 to the paper's 32, proximities drawn from a few values
// (ties) and ids from a small pool (re-offers, some under another address),
// removals; after every offer the return value and the entries equal
// refNeighborhoodConsider's.
func TestNeighborhoodMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	full, moved := 0, 0
	for round := 0; round < 2000; round++ {
		capacity := []int{1, 3, 8, 32}[rng.Intn(4)]
		nb, twin := NewNeighborhood(capacity), NewNeighborhood(capacity)
		pool := 1 + rng.Intn(3*capacity)
		for i, n := 0, rng.Intn(6*capacity); i < n; i++ {
			r := wire.NodeRef{ID: id.Rand(uint64(rng.Intn(pool))), Addr: fmt.Sprintf("a%d", rng.Intn(2))}
			prox, direct := float64(rng.Intn(2*capacity)), rng.Intn(2) == 0
			if len(twin.entries) == capacity {
				full++
			}
			before := twin.Members()
			got, want := nb.Consider(r, prox, direct), refNeighborhoodConsider(twin, r, prox, direct)
			if !want && !sameRefs(before, twin.Members()) {
				moved++
			}
			if got != want || len(nb.entries) != len(twin.entries) {
				t.Fatalf("round %d (cap %d): Consider(%v, %v, direct=%v) = %v, reference %v", round, capacity, r, prox, direct, got, want)
			}
			for j := range nb.entries {
				if nb.entries[j] != twin.entries[j] {
					t.Fatalf("round %d (cap %d): after Consider(%v, %v, direct=%v) entry %d is %v, reference %v",
						round, capacity, r, prox, direct, j, nb.entries[j], twin.entries[j])
				}
			}
			if rng.Intn(10) == 0 {
				gone := id.Rand(uint64(rng.Intn(pool)))
				nb.Remove(gone)
				twin.Remove(gone)
			}
		}
	}
	t.Logf("%d offers to a full set, %d re-addressed a held entry", full, moved)
	if full < 10000 || moved < 1000 {
		t.Fatalf("%d offers to a full set, %d re-addressed a held entry: the generator lost its edge cases", full, moved)
	}
}
