package past_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"past/internal/cluster"
	"past/internal/id"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/seccrypt"
	"past/internal/simnet"
	"past/internal/wire"
)

// joinClient adds one more node, configured by cfg, to pc and returns its
// PAST layer.
func joinClient(t *testing.T, pc *cluster.PAST, cfg past.Config, cardSeed uint64) *past.Node {
	t.Helper()
	card, err := pc.Broker.IssueCard(1<<30, cfg.Capacity, 0, seccrypt.DetRand(cardSeed))
	if err != nil {
		t.Fatal(err)
	}
	pc.Topo.Place()
	nd := pastry.New(pc.Opts.Pastry, card.NodeID(), pc.Net.NewEndpoint(), pc.Net.Clock(), nil)
	client := past.NewNode(cfg, nd, card, pc.Broker.PublicKey())
	done := false
	nd.Join([]string{simnet.Addr(0)}, func(error) { done = true })
	pc.Net.RunUntil(func() bool { return done }, 50_000_000)
	pc.Net.RunUntilIdle()
	return client
}

// lookupVia runs one lookup through client and then drains the network, so
// that a CacheCopy still in flight when the reply arrived is counted.
func lookupVia(t *testing.T, pc *cluster.PAST, client *past.Node, f id.File) past.LookupResult {
	t.Helper()
	var res *past.LookupResult
	client.Lookup(f, func(r past.LookupResult) { res = &r })
	pc.Net.RunUntil(func() bool { return res != nil }, 50_000_000)
	pc.Net.RunUntilIdle()
	if res == nil || res.Err != nil {
		t.Fatalf("lookup: %+v", res)
	}
	return *res
}

// TestLookupMovesFileOnce pins the lookup's frame count: the LookupReply
// is the cache push when the responder's previous hop is the client, a
// CacheCopy goes only to an intermediate hop, and the client keeps what it
// verified unless it has caching off or no storage to spare.
func TestLookupMovesFileOnce(t *testing.T) {
	cfg := defaultCfg()
	cfg.Caching = true
	const n = 64
	pc := buildPAST(t, n, 140, cfg, nil)
	res := pc.Insert(0, nil, "once.bin", bytes.Repeat([]byte{0x5a}, 4096), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	f := res.FileID
	copies := func() uint64 { return pc.Net.MessagesByKind()["cache-copy"] }
	cachedAt := func() map[int]bool {
		at := map[int]bool{}
		for i, pn := range pc.PASTNodes() {
			if pn.Cache().Has(f) {
				at[i] = true
			}
		}
		return at
	}

	direct, relayed, relayCached := 0, 0, 0
	for c := 0; c < n; c++ {
		client := pc.Node(c)
		if client.Store().Has(f) {
			// Served from its own store: nothing travels, nothing is cached.
			msgs := pc.Net.Messages()
			if lr := lookupVia(t, pc, client, f); lr.Hops != 0 || lr.Cached || pc.Net.Messages() != msgs {
				t.Fatalf("holder %d: hops %d cached %v, %d messages", c, lr.Hops, lr.Cached, pc.Net.Messages()-msgs)
			}
			if client.Cache().Has(f) {
				t.Fatalf("holder %d admitted its own replica to its cache", c)
			}
			continue
		}
		if client.Cache().Has(f) {
			continue // cached along the insert's route or by an earlier push
		}
		before, sent := cachedAt(), copies()
		lr := lookupVia(t, pc, client, f)
		pushed := copies() - sent
		var gained []int
		for i := range cachedAt() {
			if !before[i] && i != c {
				gained = append(gained, i)
			}
		}
		switch {
		case pushed == 0 && len(gained) == 0:
			direct++
		case pushed == 1 && lr.Hops > 1 && len(gained) <= 1:
			relayed++
			relayCached += len(gained)
		default:
			t.Fatalf("client %d: %d hops, %d cache-copy frames, new cached copies at %v (client excluded)", c, lr.Hops, pushed, gained)
		}
		if !client.Cache().Has(f) {
			t.Fatalf("client %d (%d hops) did not keep the reply it verified", c, lr.Hops)
		}
		msgs := pc.Net.Messages()
		again := lookupVia(t, pc, client, f)
		if !again.Cached || again.Hops != 0 || again.From.ID != pc.Nodes[c].ID() || pc.Net.Messages() != msgs {
			t.Fatalf("client %d, second lookup: cached %v, %d hops, from %s, %d messages; want its own cache and none",
				c, again.Cached, again.Hops, again.From.ID.Short(), pc.Net.Messages()-msgs)
		}
		if copies() != sent+pushed {
			t.Fatalf("client %d: a reply served from its own cache pushed a copy", c)
		}
	}
	if direct == 0 || relayed == 0 || relayCached == 0 {
		t.Fatalf("saw %d lookups answered one hop from the client, %d relayed (%d of them cached at the relay); need every kind",
			direct, relayed, relayCached)
	}

	// Clients that must keep nothing: caching off, and no storage contributed.
	off := cfg
	off.Caching = false
	none := cfg
	none.Capacity = 0
	for name, client := range map[string]*past.Node{
		"caching off": joinClient(t, pc, off, 9001),
		"capacity 0":  joinClient(t, pc, none, 9002),
	} {
		for i := 0; i < 2; i++ {
			if lr := lookupVia(t, pc, client, f); lr.Cached && lr.Hops == 0 {
				t.Fatalf("%s: lookup %d served from the client's own cache", name, i)
			}
		}
		if client.Cache().Len() != 0 || client.Cache().Used() != 0 {
			t.Fatalf("%s: client cached %d files", name, client.Cache().Len())
		}
	}
}

// TestForgedInsertDoesNotPoisonCaches routes an unsigned certificate that
// names a victim's fileId over junk content through caching nodes. No
// cache may admit it, and lookups entering at those nodes must still
// reach a replica.
func TestForgedInsertDoesNotPoisonCaches(t *testing.T) {
	cfg := defaultCfg()
	cfg.Caching = true
	const n = 24
	pc := buildPAST(t, n, 141, cfg, nil)
	genuine := []byte("the victim's authentic content")
	res := pc.Insert(0, nil, "victim.txt", genuine, 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	victim := res.FileID
	junk := []byte("junk served under the victim's name")
	forged := wire.FileCertificate{FileID: victim, ContentHash: sha256.Sum256(junk), Size: int64(len(junk)), Replicas: 3}

	attacked := 0
	for a := 0; a < n; a++ {
		node := pc.Node(a)
		if node.Store().Has(victim) || node.Cache().Has(victim) {
			continue
		}
		attacked++
		pc.Nodes[a].Route(victim.Key(), wire.InsertRequest{Cert: forged, Data: junk, Client: pc.Nodes[a].Ref(), ReqID: uint64(a) + 1})
		pc.Net.RunUntilIdle()
		for i, pn := range pc.PASTNodes() {
			if it, ok := pn.Cache().Get(victim); ok && !bytes.Equal(it.Data, genuine) {
				t.Fatalf("forged insert from node %d left %q in node %d's cache under the victim's fileId", a, it.Data, i)
			}
		}
		lr := pc.Lookup(a, victim)
		if lr.Err != nil || !bytes.Equal(lr.Data, genuine) {
			t.Fatalf("lookup entering at node %d after the forged insert: %q, %v", a, lr.Data, lr.Err)
		}
	}
	if attacked < n/2 {
		t.Fatalf("only %d nodes had neither replica nor cached copy to attack through", attacked)
	}
}

// fullSort is the reference replicaSet is held to: this node and its whole
// leaf set in id.Closer's order around key.
func fullSort(nd *pastry.Node, key id.Node) []wire.NodeRef {
	all := append([]wire.NodeRef{nd.Ref()}, nd.LeafMembers()...)
	sort.Slice(all, func(i, j int) bool { return id.Closer(key, all[i].ID, all[j].ID) })
	return all
}

// TestReplicaSetMatchesFullSort checks replicaSet against a full sort on
// a ring that wraps (12 nodes, every other node in both leaf halves) and
// one that does not, for k below, at and above the membership.
func TestReplicaSetMatchesFullSort(t *testing.T) {
	for _, n := range []int{4, 12, 48} {
		pc := buildPAST(t, n, 142, defaultCfg(), nil)
		for i := 0; i < n; i++ {
			for j := 0; j < 25; j++ {
				key := id.Rand(uint64(i*1000 + j))
				if j == 0 {
					key = pc.Nodes[(i+1)%n].ID() // a member itself
				}
				want := fullSort(pc.Nodes[i], key)
				for _, k := range []int{1, 3, 5, 8, 40} {
					got := past.ReplicaSet(pc.Node(i), key, k)
					if fmt.Sprint(got) != fmt.Sprint(want[:min(k, len(want))]) {
						t.Fatalf("n=%d node %d key %s k=%d:\n got %v\nwant %v", n, i, key.Short(), k, got, want[:min(k, len(want))])
					}
				}
			}
		}
	}
}

// TestNearestHolderPinned pins the redirect decision on a fixed seed: for
// every node of a 40-node network and 50 keys each, the holder chosen
// when the route's next hop is the key's root. The fingerprint was
// recorded before replicaSet moved into the leaf set and must not change
// with how the replica set is computed.
func TestNearestHolderPinned(t *testing.T) {
	const n = 40
	pc := buildPAST(t, n, 143, defaultCfg(), nil)
	h := fnv.New64a()
	redirects := 0
	for i := 0; i < n; i++ {
		for j := 0; j < 50; j++ {
			key := id.Rand(uint64(7_000_000 + i*100 + j))
			holder, ok := past.NearestHolder(pc.Node(i), key, pc.NumericallyClosest(key))
			if ok {
				redirects++
			}
			fmt.Fprintf(h, "%d %d %v %s\n", i, j, ok, holder.ID)
		}
	}
	const want = 0xdbb8def878a483fb
	if got := h.Sum64(); got != want || redirects == 0 {
		t.Fatalf("nearestHolder fingerprint %#x over %d redirects, want %#x", got, redirects, uint64(want))
	}
}

var sinkSet []wire.NodeRef

// BenchmarkReplicaSet measures the k = 3 selection on the bench/ cluster's
// shape: 18 nodes, so each leaf set holds the 17 others, 15 of them in
// both halves.
func BenchmarkReplicaSet(b *testing.B) {
	pc := buildPAST(b, 18, 144, defaultCfg(), nil)
	keys := make([]id.Node, 256)
	for i := range keys {
		keys[i] = id.Rand(uint64(5000 + i))
	}
	node := pc.Node(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSet = past.ReplicaSet(node, keys[i%len(keys)], 3)
	}
}
