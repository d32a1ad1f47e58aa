package pastry

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"past/internal/id"
	"past/internal/wire"
)

// The reference implementations the order-exploiting LeafSet methods are
// held to: the linear id.Closer scan Closest used to be, the map-built
// Members, and a full sort for ClosestK. They live here, not in the
// package.

func refClosest(s *LeafSet, key id.Node) (best wire.NodeRef, selfBest bool) {
	bestID := s.owner
	selfBest = true
	s.ForEach(func(m wire.NodeRef) {
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
	s.ForEach(func(m wire.NodeRef) {
		if !seen[m.ID] {
			seen[m.ID] = true
			out = append(out, m)
		}
	})
	return out
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
// ids clustered a few units apart (near-ties), removals — and requires of
// each that Members, Len, Closest and ClosestK return exactly what the
// reference implementations do, on keys chosen to tie: a member itself,
// the midpoint of a member and the owner, the midpoint of two members.
func TestLeafSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	randID := func() id.Node { return id.Rand(rng.Uint64()) }
	checkedKeys, exactTies := 0, 0
	for round := 0; round < 3200; round++ {
		l := []int{2, 4, 8, 16, 32}[rng.Intn(5)]
		owner := randID()
		s := NewLeafSet(owner, l)
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
			s.Consider(wire.NodeRef{ID: x, Addr: fmt.Sprintf("a%d", i)})
			if rng.Intn(10) == 0 {
				s.Remove(offered[rng.Intn(len(offered))])
			}
		}

		for _, half := range []struct {
			side      []wire.NodeRef
			clockwise bool
		}{{s.larger, true}, {s.smaller, false}} {
			for i, m := range half.side {
				if m.ID == owner {
					t.Fatalf("round %d: owner in a half", round)
				}
				if i > 0 && s.offset(half.side[i-1].ID, half.clockwise).Cmp(s.offset(m.ID, half.clockwise)) >= 0 {
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
			for _, k := range []int{0, 1, 3, 5, 8, 100} {
				if got, want := s.ClosestK(self, key, k), sorted[:min(k, len(sorted))]; !sameRefs(got, want) {
					t.Fatalf("round %d (l=%d, %d members): ClosestK(%s, %d)\n got %v\nwant %v",
						round, l, len(members), key, k, got, want)
				}
			}
		}
	}
	t.Logf("%d keys, %d exact ties for first place", checkedKeys, exactTies)
	if checkedKeys < 50000 || exactTies < 1000 {
		t.Fatalf("%d keys checked, %d of them exact ties for first place: the generator lost its edge cases", checkedKeys, exactTies)
	}
}
