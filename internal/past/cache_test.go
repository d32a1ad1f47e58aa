package past_test

import (
	"fmt"
	"testing"
)

// TestSyncCacheYieldsToPrimaryStore pins the unpinned-cache contract of
// section 2.3: cache space is exactly the storage not currently in use
// by replicas, so as primary storage fills, every node's cache capacity
// shrinks in lockstep with its free space and never overflows it.
func TestSyncCacheYieldsToPrimaryStore(t *testing.T) {
	cfg := defaultCfg()
	cfg.Caching = true
	cfg.Capacity = 64 << 10
	pc := buildPAST(t, 16, 131, cfg, nil)

	check := func(when string) {
		t.Helper()
		for i, pn := range pc.PASTNodes() {
			if got, want := pn.Cache().Capacity(), pn.Store().Free(); got != want {
				t.Fatalf("%s: node %d cache capacity %d != store free %d", when, i, got, want)
			}
			if pn.Cache().Used() > pn.Cache().Capacity() {
				t.Fatalf("%s: node %d cache used %d exceeds capacity %d",
					when, i, pn.Cache().Used(), pn.Cache().Capacity())
			}
		}
	}
	check("empty network")

	var free int64
	for _, pn := range pc.PASTNodes() {
		free += pn.Store().Free()
	}
	for f := 0; f < 24; f++ {
		pc.Insert(f%16, pc.Card(f%16), fmt.Sprintf("fill-%d", f), make([]byte, 4096), 3)
	}
	check("after inserts")
	var freeNow int64
	for _, pn := range pc.PASTNodes() {
		freeNow += pn.Store().Free()
	}
	if freeNow >= free {
		t.Fatalf("inserts did not consume primary storage (%d -> %d)", free, freeNow)
	}
}

// TestSyncCacheDisabledIsZero pins the other half of the contract: with
// caching off the cache tier holds no capacity at all, so replicas can
// never be shadowed by stale cached copies.
func TestSyncCacheDisabledIsZero(t *testing.T) {
	cfg := defaultCfg()
	cfg.Caching = false
	pc := buildPAST(t, 8, 132, cfg, nil)
	pc.Insert(0, pc.Card(0), "a.bin", make([]byte, 1024), 3)
	for i, pn := range pc.PASTNodes() {
		if pn.Cache().Capacity() != 0 || pn.Cache().Used() != 0 {
			t.Fatalf("node %d cache capacity=%d used=%d with caching disabled",
				i, pn.Cache().Capacity(), pn.Cache().Used())
		}
	}
}

// TestForwardServesMidRouteFromCache pins where cache hits come from: a
// lookup answered with Cached=true was served by a node that holds the
// file only in its cache, not among its replicas — i.e. past.Forward
// consumed the request mid-route before it ever reached the replica set.
func TestForwardServesMidRouteFromCache(t *testing.T) {
	cfg := defaultCfg()
	cfg.Caching = true
	pc := buildPAST(t, 40, 133, cfg, nil)
	res := pc.Insert(0, pc.Card(0), "hot.bin", make([]byte, 256), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := 0; i < 12; i++ {
		lr := pc.Lookup(29, res.FileID)
		if lr.Err != nil {
			t.Fatalf("lookup %d: %v", i, lr.Err)
		}
		if !lr.Cached {
			continue
		}
		server := pc.IndexByID(lr.From.ID)
		if server < 0 {
			t.Fatalf("cached reply from unknown node %s", lr.From.ID.Short())
		}
		if _, err := pc.Node(server).Store().Get(res.FileID); err == nil {
			t.Fatalf("cached reply came from node %d which holds a replica; expected a pure cache copy", server)
		}
		if !pc.Node(server).Cache().Has(res.FileID) {
			t.Fatalf("node %d served Cached=true but its cache does not hold the file", server)
		}
		return
	}
	t.Fatal("no lookup was served from a mid-route cache")
}
