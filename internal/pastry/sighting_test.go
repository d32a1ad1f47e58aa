package pastry

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"past/internal/id"
	"past/internal/simnet"
	"past/internal/transport"
	"past/internal/wire"
)

// setNet is a transport whose sends go nowhere and whose proximities the
// test sets, with a clock the test moves and timers that never fire.
type setNet struct {
	prox map[string]float64
	now  time.Duration
}

func (*setNet) Addr() string                                    { return "self" }
func (*setNet) Send(string, wire.Msg) error                     { return nil }
func (*setNet) SetHandler(transport.Handler)                    {}
func (*setNet) Close() error                                    { return nil }
func (*setNet) AfterFunc(time.Duration, func()) transport.Timer { return noTimer{} }
func (s *setNet) Proximity(to string) float64                   { return s.prox[to] }
func (s *setNet) Now() time.Duration                            { return s.now }

// sameState reports whether a and b hold the same routing table (every slot
// and its proximity), leaf halves, neighborhood (with proximities) and
// silence clocks: everything a Consider or a sighting can touch.
func sameState(a, b *Node) bool {
	if len(a.rt.rows) != len(b.rt.rows) || !slices.Equal(a.leaf.smaller, b.leaf.smaller) ||
		!slices.Equal(a.leaf.larger, b.leaf.larger) || !slices.Equal(a.nbhd.entries, b.nbhd.entries) ||
		len(a.lastSeen) != len(b.lastSeen) {
		return false
	}
	for r := range a.rt.rows {
		if !slices.Equal(a.rt.rows[r], b.rt.rows[r]) {
			return false
		}
	}
	for p, s := range a.lastSeen {
		if t, ok := b.lastSeen[p]; !ok || t.at != s.at {
			return false
		}
	}
	return true
}

// versioned is a copy of a node's routing table, leaf halves and
// neighborhood, each with its version.
type versioned struct {
	rows                    [][]entry
	smaller, larger         []wire.NodeRef
	nbhd                    []entry
	rtVer, leafVer, nbhdVer uint64
}

func versionsOf(n *Node) versioned {
	v := versioned{
		smaller: slices.Clone(n.leaf.smaller), larger: slices.Clone(n.leaf.larger), nbhd: slices.Clone(n.nbhd.entries),
		rtVer: n.rt.ver, leafVer: n.leaf.ver, nbhdVer: n.nbhd.ver,
	}
	for _, row := range n.rt.rows {
		v.rows = append(v.rows, slices.Clone(row))
	}
	return v
}

// unversioned names each structure of n whose contents differ from v's
// while its version has not moved.
func (v versioned) unversioned(n *Node) []string {
	var out []string
	now := versionsOf(n)
	rowsEqual := len(v.rows) == len(now.rows)
	for r := 0; rowsEqual && r < len(v.rows); r++ {
		rowsEqual = slices.Equal(v.rows[r], now.rows[r])
	}
	if !rowsEqual && v.rtVer == now.rtVer {
		out = append(out, "routing table")
	}
	if !(slices.Equal(v.smaller, now.smaller) && slices.Equal(v.larger, now.larger)) && v.leafVer == now.leafVer {
		out = append(out, "leaf set")
	}
	if !slices.Equal(v.nbhd, now.nbhd) && v.nbhdVer == now.nbhdVer {
		out = append(out, "neighborhood")
	}
	return out
}

// routingState renders what sameState compares.
func routingState(n *Node) string {
	var b []byte
	for r := range n.rt.rows {
		for c, e := range n.rt.rows[r] {
			if !e.ref.IsZero() {
				b = fmt.Appendf(b, "rt[%d][%d]=%v/%v ", r, c, e.ref, e.prox)
			}
		}
	}
	b = fmt.Appendf(b, "\nsmaller %v\nlarger %v\nnbhd %v\nseen", n.leaf.smaller, n.leaf.larger, n.nbhd.entries)
	seen := slices.SortedFunc(maps.Keys(n.lastSeen), id.Node.Cmp)
	for _, p := range seen {
		b = fmt.Appendf(b, " %s@%v", p.Short(), n.lastSeen[p].at)
	}
	return string(b)
}

// TestNoteAliveMatchesUnskippedFold drives two identically built nodes
// through the same random sequence: direct sightings from a pool of ids
// with two addresses and two proximities each; third-party offers, deaths,
// recoveries, keep-alive ticks and each Seed* call alone. Node a hears a
// sighting through noteAlive, node b through what noteAlive did before it
// could skip — clear the suspicion, restart the silence clock, fold with
// considerLocked — and after every step the two must hold the same routing
// table, leaf set, neighborhood and clocks. On both, a structure whose
// contents a step changed must have moved its version; a's sighting must
// record the version its fold left; a repeated direct offer on b must move
// no version, and a repeated heartbeat on a must not either.
func TestNoteAliveMatchesUnskippedFold(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	skipped, folded := 0, 0
	for round := 0; round < 150; round++ {
		cfg := DefaultConfig()
		cfg.L = []int{2, 4, 8, 16}[rng.Intn(4)]
		cfg.KeepAlive, cfg.FailTimeout = time.Second, 3*time.Second
		net := &setNet{prox: map[string]float64{}}
		owner := id.Rand(rng.Uint64())
		a, b := New(cfg, owner, net, net, nil), New(cfg, owner, net, net, nil)
		a.SeedJoined()
		b.SeedJoined()

		pool := make([]id.Node, 16+rng.Intn(112))
		proxes := map[string][2]float64{}
		for i := range pool {
			pool[i] = id.Rand(rng.Uint64())
			for j := 0; j < 2; j++ {
				p := [2]float64{float64(1 + rng.Intn(50)), float64(1 + rng.Intn(50))}
				proxes[addrOf(i, j)], net.prox[addrOf(i, j)] = p, p[0]
			}
		}
		// pick draws a pool member at its usual address, or now and then
		// at its other one (a restart elsewhere, a stale mention).
		pick := func() wire.NodeRef {
			i, j := rng.Intn(len(pool)), 0
			if rng.Intn(6) == 0 {
				j = 1
			}
			return wire.NodeRef{ID: pool[i], Addr: addrOf(i, j)}
		}
		remeasure := func(addr string) {
			p := proxes[addr]
			if net.prox[addr] == p[0] {
				net.prox[addr] = p[1]
			} else {
				net.prox[addr] = p[0]
			}
		}
		both := func(f func(*Node)) { f(a); f(b) }
		heartbeat := func(r wire.NodeRef) {
			before := a.stateVer()
			a.noteAlive(r)
			if a.stateVer() == before {
				skipped++
			} else {
				folded++
			}
			delete(b.suspect, r.ID)
			b.sawNow(r.ID)
			b.considerLocked(r, true)
		}
		for i := range pool {
			heartbeat(wire.NodeRef{ID: pool[i], Addr: addrOf(i, 0)})
		}

		for step := 0; step < 400; step++ {
			var what string
			va, vb := versionsOf(a), versionsOf(b)
			switch k := rng.Intn(24); {
			case k < 14:
				r := pick()
				what = fmt.Sprintf("heartbeat from %v", r)
				if k == 0 {
					// The same peer at the same address, with nothing else
					// changed, at its other proximity.
					remeasure(r.Addr)
					what += " at its other proximity"
				}
				heartbeat(r)
				if s := a.lastSeen[r.ID]; s.ver != a.stateVer() || s.addr != r.Addr {
					t.Fatalf("round %d step %d: after a %s the sighting is %+v, want %s at version %d",
						round, step, what, s, r.Addr, a.stateVer())
				}
				if rng.Intn(2) == 0 {
					va, vb := a.stateVer(), b.stateVer()
					a.noteAlive(r)
					b.considerLocked(r, true)
					if a.stateVer() != va || b.stateVer() != vb {
						t.Fatalf("round %d step %d: a repeated %s moved a version: a %d→%d, b %d→%d",
							round, step, what, va, a.stateVer(), vb, b.stateVer())
					}
				}
			case k < 15:
				r := pick()
				what = fmt.Sprintf("%s remeasured", r.Addr)
				remeasure(r.Addr)
			case k < 17:
				r := pick()
				what = fmt.Sprintf("third-party offer of %v", r)
				both(func(n *Node) { n.considerLocked(r, false) })
			case k < 18:
				r := pick()
				what = fmt.Sprintf("%v declared dead", r)
				both(func(n *Node) { n.declareDeadLocked(r) })
			case k < 19:
				what = "a second passes, keep-alive tick"
				net.now += time.Second
				both(func(n *Node) {
					n.keepAliveTick()
					if err := watchErr(n); err != nil {
						t.Fatalf("round %d step %d (l=%d): after a tick: %v", round, step, cfg.L, err)
					}
				})
			case k < 20:
				what = "leave and recover"
				both(func(n *Node) { n.Leave(); n.Recover() })
			case k < 21:
				r, prox := pick(), float64(rng.Intn(60))
				what = fmt.Sprintf("%v seeded at %v", r, prox)
				both(func(n *Node) { n.SeedRoutingEntry(nil, r, prox) })
			case k < 22:
				drop := rng.Intn(cfg.L/2 + 1)
				what = fmt.Sprintf("leaf halves reseeded without member %d", drop)
				smaller, larger := without(a.leaf.smaller, drop), without(a.leaf.larger, drop)
				both(func(n *Node) { n.SeedLeafHalves(slices.Clone(smaller), slices.Clone(larger)) })
			default:
				drop := rng.Intn(neighborhoodSize + 1)
				what = fmt.Sprintf("neighborhood reseeded without member %d", drop)
				var refs []wire.NodeRef
				var proxes []float64
				for i, e := range a.nbhd.entries {
					if i != drop {
						refs, proxes = append(refs, e.ref), append(proxes, e.prox)
					}
				}
				both(func(n *Node) { n.SeedNeighborhood(refs, proxes) })
			}
			for _, c := range []struct {
				name string
				n    *Node
				v    versioned
			}{{"noteAlive", a, va}, {"unskipped", b, vb}} {
				if moved := c.v.unversioned(c.n); len(moved) > 0 {
					t.Fatalf("round %d step %d (l=%d), %s node: %s changed its %v but not its version",
						round, step, cfg.L, c.name, what, moved)
				}
			}
			if !sameState(a, b) {
				t.Fatalf("round %d step %d (l=%d), after %s:\nnoteAlive:\n%s\nunskipped:\n%s",
					round, step, cfg.L, what, routingState(a), routingState(b))
			}
		}
	}
	t.Logf("%d heartbeats moved no version, %d did", skipped, folded)
	if skipped < 1000 || folded < 1000 {
		t.Fatalf("%d heartbeats moved no version, %d did: the generator lost its edge cases", skipped, folded)
	}
}

func addrOf(i, j int) string { return fmt.Sprintf("sim:%d/%d", i, j) }

// without returns a copy of list less its element at i, if it has one.
func without(list []wire.NodeRef, i int) []wire.NodeRef {
	out := append([]wire.NodeRef(nil), list...)
	if i < len(out) {
		out = append(out[:i], out[i+1:]...)
	}
	return out
}

// TestHeldHeartbeatMovesNoVersion: in a settled network a leaf member's
// heartbeat records its sighting at the state's version, the next one
// changes nothing, and neither does re-offering a routing-table entry at
// the address and proximity it holds.
func TestHeldHeartbeatMovesNoVersion(t *testing.T) {
	nd, from, hb := heartbeatFromLeaf(t)
	peer := hb.(wire.Heartbeat).From
	nd.handle(from, hb)
	v := nd.stateVer()
	if s := nd.lastSeen[peer.ID]; s.ver != v || s.addr != peer.Addr || s.prox != nd.tr.Proximity(peer.Addr) {
		t.Fatalf("sighting %+v after a heartbeat, want address %s at version %d", s, peer.Addr, v)
	}
	nd.handle(from, hb)
	if nd.stateVer() != v {
		t.Fatalf("a second heartbeat from a held member moved the version %d → %d", v, nd.stateVer())
	}
	refreshed := 0
	for _, row := range nd.rt.rows {
		for _, e := range row {
			if !e.ref.IsZero() {
				refreshed++
				if !nd.rt.Consider(e.ref, e.prox) || nd.stateVer() != v {
					t.Fatalf("re-offering held entry %v moved the version %d → %d", e.ref, v, nd.stateVer())
				}
			}
		}
	}
	if refreshed == 0 {
		t.Fatal("empty routing table")
	}
}

// watchErr checks n's keep-alive watch list against lastSeen right after a
// tick. The list mirrors the leaf set in ForEach order, or did when the
// tick began and the tick has since declared members dead. Each member's
// handle is the sighting lastSeen holds, never nil (the tick started a
// clock for every member it had not heard from), and a listed node the
// tick removed has no sighting left.
func watchErr(n *Node) error {
	members := n.leaf.Members()
	current := n.watchVer == n.leaf.ver+1
	if current && len(n.watch) != len(members) {
		return fmt.Errorf("watch list of %d at leaf version %d, leaf set of %d", len(n.watch), n.leaf.ver, len(members))
	}
	listed := map[id.Node]bool{}
	for i, w := range n.watch {
		listed[w.ref.ID] = true
		if current && w.ref != members[i] {
			return fmt.Errorf("watch[%d] is %v, leaf member %d is %v", i, w.ref, i, members[i])
		}
		got, held := n.lastSeen[w.ref.ID], n.leaf.Contains(w.ref.ID)
		switch {
		case held && (w.seen == nil || w.seen != got):
			return fmt.Errorf("member %v: watched sighting %p, lastSeen holds %p", w.ref, w.seen, got)
		case !held && got != nil:
			return fmt.Errorf("%v left the leaf set during the tick but its sighting %p survives", w.ref, got)
		}
	}
	for _, m := range members {
		if !listed[m.ID] {
			return fmt.Errorf("member %v is not on the watch list", m)
		}
	}
	return nil
}

// tickErr checks a tick's outcome against what the tick did when it looked
// every leaf member up in lastSeen: before holds the members and their
// sightings (with each clock) as the tick found them. A member never heard
// from has its clock started at now; one silent for longer than
// FailTimeout is declared dead, leaving the leaf set and lastSeen; any
// other keeps its sighting and clock.
func tickErr(n *Node, before []watched, at []time.Duration, now time.Duration) error {
	for i, w := range before {
		got := n.lastSeen[w.ref.ID]
		switch {
		case w.seen == nil:
			if got == nil || got.at != now {
				return fmt.Errorf("first contact with %v: sighting %+v, want one at %v", w.ref, got, now)
			}
		case now-at[i] > n.cfg.FailTimeout:
			if got != nil || n.leaf.Contains(w.ref.ID) {
				return fmt.Errorf("%v silent since %v at %v was not declared dead", w.ref, at[i], now)
			}
		case got != w.seen || got.at != at[i]:
			return fmt.Errorf("%v heard at %v: sighting %+v after the tick, was %p", w.ref, at[i], got, w.seen)
		}
	}
	return nil
}

// watchClock runs check on its node after every timer callback that was a
// keep-alive tick, passing the leaf members and sightings the tick found.
type watchClock struct {
	transport.Clock
	nd    *Node
	check func(n *Node, before []watched, at []time.Duration)
}

func (c *watchClock) AfterFunc(d time.Duration, f func()) transport.Timer {
	return c.Clock.AfterFunc(d, func() {
		var before []watched
		var at []time.Duration
		c.nd.leaf.ForEach(func(m wire.NodeRef) {
			s := c.nd.lastSeen[m.ID]
			before = append(before, watched{m, s})
			if s != nil {
				at = append(at, s.at)
			} else {
				at = append(at, 0)
			}
		})
		ticks := c.nd.kaTicks
		f()
		if c.nd.kaTicks != ticks {
			c.check(c.nd, before, at)
		}
	})
}

// TestKeepAliveWatchMatchesLastSeen churns a small simulated network (l = 8,
// so joins evict leaf members and deaths re-admit them) with crashes and
// restarts (the rejoin reset), graceful departures, restarts at a new
// address, and repair replies that admit a node never heard from; after
// every keep-alive tick on every node, watchErr and tickErr must hold. A
// member evicted and later re-admitted must find the sighting it left, as
// the map keeps it, and is judged by its clock.
func TestKeepAliveWatchMatchesLastSeen(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	net := simnet.New(simnet.Config{Seed: 35}, func(a, b int) float64 { return float64(1 + (a+b)%40) })
	cfg := DefaultConfig()
	cfg.L, cfg.KeepAlive, cfg.FailTimeout, cfg.JoinTimeout = 8, time.Second, 3*time.Second, 5*time.Second

	ticks := 0
	// evicted holds, per node, the sightings of members that left its leaf
	// set without being declared dead.
	evicted := map[*Node]map[id.Node]*sighting{}
	held := map[*Node]map[id.Node]*sighting{}
	readmitted := 0
	check := func(n *Node, before []watched, at []time.Duration) {
		ticks++
		err := watchErr(n)
		if err == nil {
			err = tickErr(n, before, at, n.clock.Now())
		}
		if err != nil {
			t.Fatalf("after tick %d of %s at %v: %v", n.kaTicks, n.ref.ID.Short(), n.clock.Now(), err)
		}
		now := map[id.Node]*sighting{}
		for _, m := range n.leaf.Members() {
			now[m.ID] = n.lastSeen[m.ID]
			if s, ok := evicted[n][m.ID]; ok && s == now[m.ID] {
				readmitted++
			}
		}
		if evicted[n] == nil {
			evicted[n] = map[id.Node]*sighting{}
		}
		for p, s := range held[n] {
			if _, in := now[p]; !in && n.lastSeen[p] == s {
				evicted[n][p] = s
			}
		}
		for p := range now {
			delete(evicted[n], p)
		}
		held[n] = now
	}

	var live, down []*Node
	spawn := func(nid id.Node, seed *Node) *Node {
		ep := net.NewEndpoint()
		clock := &watchClock{Clock: ep.Clock(), check: check}
		nd := New(cfg, nid, ep, clock, nil)
		clock.nd = nd
		if seed == nil {
			nd.Bootstrap()
		} else {
			nd.Join([]string{seed.ref.Addr}, func(error) {})
		}
		live = append(live, nd)
		return nd
	}
	spawn(id.Rand(1), nil)
	for i := 1; i < 24; i++ {
		spawn(id.Rand(uint64(1+i)), live[rng.Intn(len(live))])
		net.RunFor(300 * time.Millisecond)
	}
	take := func(list *[]*Node) *Node {
		i := rng.Intn(len(*list))
		nd := (*list)[i]
		*list = append((*list)[:i], (*list)[i+1:]...)
		return nd
	}
	counts := map[string]int{}
	for step := 0; step < 240; step++ {
		switch k := rng.Intn(6); {
		case k == 0 && len(live) > 12:
			nd := take(&live)
			nd.tr.(*simnet.Endpoint).Crash()
			nd.Leave()
			down = append(down, nd)
			counts["crash"]++
		case k == 1 && len(live) > 12:
			nd := take(&live)
			nd.Depart()
			nd.tr.(*simnet.Endpoint).Crash()
			down = append(down, nd)
			counts["depart"]++
		case k == 2 && len(down) > 0:
			nd := take(&down)
			nd.tr.(*simnet.Endpoint).Restart()
			nd.Recover()
			live = append(live, nd)
			counts["restart"]++
		case k == 3 && len(down) > 0:
			nd := take(&down)
			spawn(nd.ref.ID, live[rng.Intn(len(live))])
			counts["new address"]++
		case k == 4:
			// A repair reply naming a live node the receiver has no
			// sighting of.
			to, from := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			for _, e := range live {
				if _, seen := to.lastSeen[e.ref.ID]; !seen && e != to && from != to {
					to.handle(from.ref.Addr, wire.RTRepairReply{From: from.ref, Entry: e.ref})
					if to.leaf.Contains(e.ref.ID) {
						counts["unseen repair admission"]++
					}
					break
				}
			}
		default:
			spawn(id.Rand(uint64(1000+step)), live[rng.Intn(len(live))])
			counts["join"]++
		}
		net.RunFor(time.Duration(200+rng.Intn(1200)) * time.Millisecond)
	}
	t.Logf("%d ticks checked, %d re-admissions, %v", ticks, readmitted, counts)
	for _, c := range []string{"crash", "depart", "restart", "new address", "unseen repair admission"} {
		if counts[c] == 0 {
			t.Errorf("no %s: the schedule lost a case", c)
		}
	}
	if readmitted == 0 {
		t.Error("no member was evicted and re-admitted: the schedule lost a case")
	}
}
