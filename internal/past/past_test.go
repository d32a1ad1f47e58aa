package past_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"past/internal/cluster"
	"past/internal/id"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/seccrypt"
	"past/internal/simnet"
)

// buildPAST builds a simulated network of PAST nodes with their cards.
func buildPAST(t testing.TB, n int, seed int64, cfg past.Config, mut func(*cluster.Options)) *cluster.PAST {
	t.Helper()
	opts := cluster.Options{N: n, Pastry: pastry.DefaultConfig(), Seed: seed}
	if mut != nil {
		mut(&opts)
	}
	pc, err := cluster.BuildPAST(opts, cfg, nil, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return pc
}

func defaultCfg() past.Config {
	cfg := past.DefaultConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	return cfg
}

func TestInsertAndLookup(t *testing.T) {
	pc := buildPAST(t, 24, 100, defaultCfg(), nil)
	data := []byte("PAST stores this file with k replicas")
	res := pc.Insert(0, pc.Card(0), "doc.txt", data, 3)
	if res.Err != nil {
		t.Fatalf("insert: %v", res.Err)
	}
	if len(res.Receipts) < 3 {
		t.Fatalf("got %d receipts, want 3", len(res.Receipts))
	}
	// Lookup from a different node.
	lr := pc.Lookup(17, res.FileID)
	if lr.Err != nil {
		t.Fatalf("lookup: %v", lr.Err)
	}
	if string(lr.Data) != string(data) {
		t.Fatal("lookup returned wrong content")
	}
}

func TestReplicasLandOnKClosestNodes(t *testing.T) {
	pc := buildPAST(t, 32, 101, defaultCfg(), nil)
	res := pc.Insert(5, pc.Card(5), "placement.bin", make([]byte, 2048), 3)
	if res.Err != nil {
		t.Fatalf("insert: %v", res.Err)
	}
	want := pc.KClosest(res.FileID.Key(), 3)
	wantSet := make(map[id.Node]bool, 3)
	for _, w := range want {
		wantSet[w.ID] = true
	}
	stored := 0
	for i, pn := range pc.PASTNodes() {
		if pn.Store().Has(res.FileID) {
			if !wantSet[pc.Nodes[i].ID()] {
				t.Errorf("replica on node %s not among 3 closest", pc.Nodes[i].ID().Short())
			}
			stored++
		}
	}
	if stored != 3 {
		t.Fatalf("found %d stored replicas, want 3", stored)
	}
	// Receipts must come from nodes with adjacent nodeIds — exactly the
	// wantSet (section 2.1: the client verifies this).
	for _, r := range res.Receipts {
		if !wantSet[r.StoredBy.ID] {
			t.Errorf("receipt from unexpected node %s", r.StoredBy.ID.Short())
		}
	}
}

func TestLookupVerifiesAuthenticity(t *testing.T) {
	pc := buildPAST(t, 16, 102, defaultCfg(), nil)
	res := pc.Insert(0, pc.Card(0), "auth.txt", []byte("authentic content"), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Corrupt every stored replica; the client's verification must fail.
	// Store.Put is zero-copy, so all replicas alias one backing array:
	// give each node its own corrupted copy instead of XOR-ing the shared
	// bytes in place (an even number of in-place flips would cancel out).
	corrupted := append([]byte(nil), []byte("authentic content")...)
	corrupted[0] ^= 0xFF
	for _, pn := range pc.PASTNodes() {
		if pn.Store().Has(res.FileID) {
			it, _ := pn.Store().Get(res.FileID)
			it.Data = append([]byte(nil), corrupted...)
			pn.Store().Delete(res.FileID)
			pn.Store().Put(it)
		}
		pn.Cache().Invalidate(res.FileID)
	}
	lr := pc.Lookup(9, res.FileID)
	if lr.Err == nil {
		t.Fatal("corrupted content passed client verification")
	}
}

func TestLookupMiss(t *testing.T) {
	pc := buildPAST(t, 12, 103, defaultCfg(), nil)
	lr := pc.Lookup(2, id.RandFile(987654))
	if !errors.Is(lr.Err, past.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", lr.Err)
	}
}

func TestImmutabilityDuplicateFileID(t *testing.T) {
	// Same name, owner and salt would collide, but Insert draws a fresh
	// salt per attempt so re-inserting the same name yields a distinct
	// fileId (files are immutable; nothing is overwritten).
	pc := buildPAST(t, 16, 104, defaultCfg(), nil)
	r1 := pc.Insert(0, pc.Card(0), "same-name", []byte("v1"), 3)
	r2 := pc.Insert(0, pc.Card(0), "same-name", []byte("v2"), 3)
	if r1.Err != nil || r2.Err != nil {
		t.Fatalf("inserts failed: %v %v", r1.Err, r2.Err)
	}
	if r1.FileID == r2.FileID {
		t.Fatal("re-insert reused fileId")
	}
	a := pc.Lookup(3, r1.FileID)
	b := pc.Lookup(3, r2.FileID)
	if string(a.Data) != "v1" || string(b.Data) != "v2" {
		t.Fatal("versions confused")
	}
}

func TestReclaimFreesAndCredits(t *testing.T) {
	pc := buildPAST(t, 20, 105, defaultCfg(), nil)
	data := make([]byte, 4096)
	quotaBefore := pc.Card(0).RemainingQuota()
	res := pc.Insert(0, pc.Card(0), "temp.bin", data, 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if pc.Card(0).RemainingQuota() != quotaBefore-3*4096 {
		t.Fatalf("quota not debited correctly: %d", quotaBefore-pc.Card(0).RemainingQuota())
	}
	rr := pc.Reclaim(0, pc.Card(0), res.FileID)
	if rr.Err != nil {
		t.Fatalf("reclaim: %v", rr.Err)
	}
	if rr.Freed == 0 {
		t.Fatal("no storage freed")
	}
	// All replicas gone.
	for i, pn := range pc.PASTNodes() {
		if pn.Store().Has(res.FileID) {
			t.Errorf("node %d still stores reclaimed file", i)
		}
	}
	// Quota credited for each freed replica.
	if pc.Card(0).RemainingQuota() != quotaBefore-3*4096+rr.Freed {
		t.Fatalf("quota after reclaim: %d, freed %d", pc.Card(0).RemainingQuota(), rr.Freed)
	}
}

func TestReclaimByNonOwnerIgnored(t *testing.T) {
	pc := buildPAST(t, 20, 106, defaultCfg(), nil)
	res := pc.Insert(0, pc.Card(0), "mine.bin", make([]byte, 1024), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rr := pc.Reclaim(4, pc.Card(4), res.FileID)
	if rr.Err == nil {
		t.Fatal("non-owner reclaim produced receipts")
	}
	lr := pc.Lookup(8, res.FileID)
	if lr.Err != nil {
		t.Fatalf("file should survive unauthorized reclaim: %v", lr.Err)
	}
}

func TestQuotaEnforcedEndToEnd(t *testing.T) {
	pc := buildPAST(t, 12, 107, defaultCfg(), nil)
	broker := pc.Broker
	small, err := broker.IssueCard(1000, 0, 0, seccrypt.DetRand(424242))
	if err != nil {
		t.Fatal(err)
	}
	// 400 bytes × 3 replicas = 1200 > 1000: the card must refuse.
	var res *past.InsertResult
	pc.Node(0).Insert(small, "big.bin", make([]byte, 400), 3, func(r past.InsertResult) { res = &r })
	pc.Net.RunUntil(func() bool { return res != nil }, 10_000_000)
	if res == nil || res.Err == nil {
		t.Fatal("over-quota insert succeeded")
	}
	if !errors.Is(res.Err, seccrypt.ErrQuotaExceeded) {
		t.Fatalf("want quota error, got %v", res.Err)
	}
	// 300 × 3 = 900 fits.
	ok := pc.Insert(0, small, "ok.bin", make([]byte, 300), 3)
	if ok.Err != nil {
		t.Fatalf("within-quota insert failed: %v", ok.Err)
	}
	if small.RemainingQuota() != 100 {
		t.Fatalf("remaining quota %d, want 100", small.RemainingQuota())
	}
}

func TestPersistenceAfterFailures(t *testing.T) {
	cfg := defaultCfg()
	pc := buildPAST(t, 30, 108, cfg, func(o *cluster.Options) {
		o.Pastry.KeepAlive = 500_000_000 // 500ms
		o.Pastry.FailTimeout = 1_500_000_000
	})
	pc.EnableProbes()
	res := pc.Insert(0, pc.Card(0), "precious.bin", []byte("survive me"), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Kill one replica holder; the file must stay available immediately
	// (k-1 copies remain reachable along the route).
	killed := 0
	for i, pn := range pc.PASTNodes() {
		if pn.Store().Has(res.FileID) {
			pc.Crash(i)
			killed++
			break
		}
	}
	if killed == 0 {
		t.Fatal("no replica holder found")
	}
	lr := pc.Lookup(11, res.FileID)
	if lr.Err != nil {
		t.Fatalf("file unavailable after one failure: %v", lr.Err)
	}
	// Let failure detection and re-replication run; afterwards k live
	// replicas must exist again.
	pc.RunSettle(20_000_000_000) // 20s virtual
	live := 0
	for i, pn := range pc.PASTNodes() {
		if !pc.Down(i) && pn.Store().Has(res.FileID) {
			live++
		}
	}
	if live < 3 {
		t.Fatalf("replication not restored: %d live replicas, want >= 3", live)
	}
}

// TestKeepAliveTickAloneRestoresReplicas: the keep-alive tick is the one
// periodic trigger of re-replication (failure detection, then Maintain's
// rate-limited sweep). After a replica holder crashes, nothing but the
// clock advances — no lookup, no probe, no forced sweep — and within one
// failure timeout plus one sweep period every file is back at k live,
// content-verified copies.
func TestKeepAliveTickAloneRestoresReplicas(t *testing.T) {
	const keepAlive, failTimeout = 500 * time.Millisecond, 1500 * time.Millisecond
	cfg := defaultCfg()
	cfg.AntiEntropyEvery = 2 * time.Second
	pc := buildPAST(t, 30, 109, cfg, func(o *cluster.Options) {
		o.Pastry.KeepAlive = keepAlive
		o.Pastry.FailTimeout = failTimeout
	})
	var files []id.File
	for i := 0; i < 8; i++ {
		res := pc.Insert(i, pc.Card(i), fmt.Sprintf("held-%d", i), []byte(fmt.Sprintf("content %d", i)), 3)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		files = append(files, res.FileID)
	}
	victim := -1
	for i, pn := range pc.PASTNodes() {
		if pn.Store().Has(files[0]) {
			victim = i
			break
		}
	}
	pc.Crash(victim)
	if got := pc.LiveVerifiedCopies(files[0]); got != 2 {
		t.Fatalf("after the crash: %d live copies of file 0, want 2", got)
	}
	pc.Net.RunFor(failTimeout + cfg.AntiEntropyEvery + 2*keepAlive)
	for i, f := range files {
		if got := pc.LiveVerifiedCopies(f); got < 3 {
			t.Errorf("file %d: %d live verified copies, want >= 3", i, got)
		}
	}
}

func TestNewNodeReceivesReplicasForItsKeyspace(t *testing.T) {
	cfg := defaultCfg()
	pc := buildPAST(t, 20, 109, cfg, nil)
	res := pc.Insert(0, pc.Card(0), "adopt.bin", make([]byte, 512), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Join a new node whose id is engineered to be the numerically
	// closest to the fileId: it must receive a replica.
	newID := res.FileID.Key() // exactly the key: always closest
	card, _ := pc.Broker.IssueCard(1<<30, cfg.Capacity, 0, seccrypt.DetRand(5150))
	pc.Topo.Place()
	ep := pc.Net.NewEndpoint()
	pcfg := pc.Opts.Pastry
	nd := pastry.New(pcfg, newID, ep, pc.Net.Clock(), nil)
	pnew := past.NewNode(cfg, nd, card, pc.Broker.PublicKey())
	done := false
	nd.Join([]string{simnet.Addr(0)}, func(error) { done = true })
	pc.Net.RunUntil(func() bool { return done }, 50_000_000)
	pc.Net.RunUntilIdle()
	if !pnew.Store().Has(res.FileID) {
		t.Fatal("new closest node did not receive the replica")
	}
}

func TestAuditPeer(t *testing.T) {
	pc := buildPAST(t, 16, 110, defaultCfg(), nil)
	res := pc.Insert(0, pc.Card(0), "audited.bin", []byte("prove you store me"), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Find two holders: one audits the other.
	var holders []int
	for i, pn := range pc.PASTNodes() {
		if pn.Store().Has(res.FileID) {
			holders = append(holders, i)
		}
	}
	if len(holders) < 2 {
		t.Fatalf("need 2 holders, have %d", len(holders))
	}
	auditor, target := holders[0], holders[1]
	var verdict *bool
	err := pc.Node(auditor).AuditPeer(pc.Nodes[target].Ref(), res.FileID, func(ok bool) { verdict = &ok })
	if err != nil {
		t.Fatal(err)
	}
	pc.Net.RunUntil(func() bool { return verdict != nil }, 10_000_000)
	if verdict == nil || !*verdict {
		t.Fatal("honest holder failed audit")
	}
	// A cheating node (discarded the file) fails the audit.
	pc.Node(target).Store().Delete(res.FileID)
	pc.Node(target).Cache().Invalidate(res.FileID)
	verdict = nil
	if err := pc.Node(auditor).AuditPeer(pc.Nodes[target].Ref(), res.FileID, func(ok bool) { verdict = &ok }); err != nil {
		t.Fatal(err)
	}
	pc.Net.RunUntil(func() bool { return verdict != nil }, 10_000_000)
	if verdict == nil || *verdict {
		t.Fatal("cheater passed audit")
	}
}

func TestCachingServesFromCloser(t *testing.T) {
	cfg := defaultCfg()
	cfg.Caching = true
	pc := buildPAST(t, 40, 111, cfg, nil)
	res := pc.Insert(0, pc.Card(0), "popular.bin", make([]byte, 256), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Repeated lookups from the same client should eventually hit caches.
	cachedSeen := false
	for i := 0; i < 10; i++ {
		lr := pc.Lookup(33, res.FileID)
		if lr.Err != nil {
			t.Fatalf("lookup %d: %v", i, lr.Err)
		}
		if lr.Cached {
			cachedSeen = true
			break
		}
	}
	if !cachedSeen {
		t.Fatal("no lookup was served from cache")
	}
}

func TestCachingDisabled(t *testing.T) {
	cfg := defaultCfg()
	cfg.Caching = false
	pc := buildPAST(t, 20, 112, cfg, nil)
	res := pc.Insert(0, pc.Card(0), "cold.bin", make([]byte, 256), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := 0; i < 5; i++ {
		lr := pc.Lookup(13, res.FileID)
		if lr.Err != nil {
			t.Fatal(lr.Err)
		}
		if lr.Cached {
			t.Fatal("cache hit despite caching disabled")
		}
	}
	for _, pn := range pc.PASTNodes() {
		if pn.Cache().Len() != 0 {
			t.Fatal("cache populated despite caching disabled")
		}
	}
}

func TestReplicaDiversionWhenNodeFull(t *testing.T) {
	cfg := defaultCfg()
	cfg.Capacity = 8 << 10 // tiny nodes: 8 KiB
	cfg.TPri = 0.5
	cfg.TDiv = 0.5
	cfg.FileDiversion = false // isolate replica diversion
	pc := buildPAST(t, 24, 113, cfg, nil)
	// Fill the network until some primaries must divert.
	diverted := 0
	for i := 0; i < 60; i++ {
		res := pc.Insert(i%24, pc.Card(i%24), fmt.Sprintf("fill-%d", i), make([]byte, 1024), 3)
		if res.Err != nil {
			continue
		}
		diverted += res.Diverted
	}
	totalDiverted := 0
	for _, pn := range pc.PASTNodes() {
		totalDiverted += pn.Stats().DivertedStores
	}
	if totalDiverted == 0 {
		t.Fatal("no replica diversion occurred despite full nodes")
	}
	// Diverted files must remain retrievable (pointer chase).
	if diverted > 0 {
		t.Logf("receipts marked diverted: %d, diverted stores: %d", diverted, totalDiverted)
	}
}

func TestDivertedFileRetrievable(t *testing.T) {
	cfg := defaultCfg()
	cfg.Capacity = 8 << 10
	cfg.TPri = 0.5
	cfg.TDiv = 0.5
	cfg.FileDiversion = false
	pc := buildPAST(t, 24, 114, cfg, nil)
	var divertedFile *id.File
	for i := 0; i < 80 && divertedFile == nil; i++ {
		res := pc.Insert(i%24, pc.Card(i%24), fmt.Sprintf("d-%d", i), make([]byte, 1024), 3)
		if res.Err == nil && res.Diverted > 0 {
			f := res.FileID
			divertedFile = &f
		}
	}
	if divertedFile == nil {
		t.Skip("no diverted insert produced in this run")
	}
	lr := pc.Lookup(7, *divertedFile)
	if lr.Err != nil {
		t.Fatalf("diverted file not retrievable: %v", lr.Err)
	}
}

func TestFileDiversionRetries(t *testing.T) {
	cfg := defaultCfg()
	cfg.Capacity = 4 << 10
	cfg.TPri = 1.0
	cfg.TDiv = 1.0
	cfg.ReplicaDiversion = false
	cfg.FileDiversion = true
	cfg.MaxRetries = 3
	cfg.RequestTimeout = 5_000_000_000 // 5s virtual
	pc := buildPAST(t, 16, 115, cfg, nil)
	// Fill most nodes almost completely so first attempts often fail.
	for i := 0; i < 40; i++ {
		pc.Insert(i%16, pc.Card(i%16), fmt.Sprintf("fill-%d", i), make([]byte, 3<<10), 1)
	}
	// Now a 2 KiB file may be rejected at full roots and succeed after
	// re-salting toward an emptier region.
	retried := false
	for i := 0; i < 20 && !retried; i++ {
		res := pc.Insert(3, pc.Card(3), fmt.Sprintf("retry-%d", i), make([]byte, 2<<10), 1)
		if res.Err == nil && res.Retries > 0 {
			retried = true
		}
	}
	if !retried {
		t.Skip("no insert needed file diversion in this run; utilization too low")
	}
}

func TestInsertRejectAfterRetriesRefundsQuota(t *testing.T) {
	cfg := defaultCfg()
	cfg.Capacity = 2 << 10
	cfg.ReplicaDiversion = false
	cfg.FileDiversion = true
	cfg.MaxRetries = 2
	cfg.RequestTimeout = 5_000_000_000
	pc := buildPAST(t, 8, 116, cfg, nil)
	quotaBefore := pc.Card(0).RemainingQuota()
	// A file bigger than any node's capacity can never be stored.
	res := pc.Insert(0, pc.Card(0), "whale.bin", make([]byte, 4<<10), 3)
	if res.Err == nil {
		t.Fatal("impossible insert succeeded")
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
	if pc.Card(0).RemainingQuota() != quotaBefore {
		t.Fatalf("quota leaked: %d != %d", pc.Card(0).RemainingQuota(), quotaBefore)
	}
}

func TestStatsAccumulate(t *testing.T) {
	pc := buildPAST(t, 16, 117, defaultCfg(), nil)
	res := pc.Insert(0, pc.Card(0), "s.bin", make([]byte, 128), 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	pc.Lookup(9, res.FileID)
	primaries, served := 0, 0
	for _, pn := range pc.PASTNodes() {
		st := pn.Stats()
		primaries += st.PrimaryStores
		served += st.LookupsServed
	}
	if primaries != 3 {
		t.Fatalf("PrimaryStores total = %d, want 3", primaries)
	}
	if served == 0 {
		t.Fatal("no lookups recorded")
	}
}

func TestVariableReplicationFactors(t *testing.T) {
	// Section 2: "The replication factor k depends on the availability
	// and persistence requirements of the file and may vary between
	// files."
	pc := buildPAST(t, 24, 118, defaultCfg(), nil)
	for _, k := range []int{1, 2, 5} {
		res := pc.Insert(0, pc.Card(0), fmt.Sprintf("k%d.bin", k), make([]byte, 512), k)
		if res.Err != nil {
			t.Fatalf("k=%d insert: %v", k, res.Err)
		}
		if len(res.Receipts) != k {
			t.Fatalf("k=%d: got %d receipts", k, len(res.Receipts))
		}
		stored := 0
		for _, pn := range pc.PASTNodes() {
			if pn.Store().Has(res.FileID) {
				stored++
			}
		}
		if stored != k {
			t.Fatalf("k=%d: %d replicas stored", k, stored)
		}
	}
}

func TestZeroCapacityClientNode(t *testing.T) {
	// Per section 1, nodes only "optionally" contribute storage. A
	// zero-capacity node must participate in routing and client
	// operations without ever storing replicas.
	cfg := defaultCfg()
	pc := buildPAST(t, 16, 119, cfg, nil)
	// Add a 17th node with zero capacity.
	card, err := pc.Broker.IssueCard(1<<30, 0, 0, seccrypt.DetRand(777))
	if err != nil {
		t.Fatal(err)
	}
	pc.Topo.Place()
	ep := pc.Net.NewEndpoint()
	zeroCfg := cfg
	zeroCfg.Capacity = 0
	nd := pastry.New(pc.Opts.Pastry, card.NodeID(), ep, pc.Net.Clock(), nil)
	client := past.NewNode(zeroCfg, nd, card, pc.Broker.PublicKey())
	done := false
	nd.Join([]string{simnet.Addr(0)}, func(error) { done = true })
	pc.Net.RunUntil(func() bool { return done }, 50_000_000)
	pc.Net.RunUntilIdle()

	// Insert through the client node.
	var res *past.InsertResult
	client.Insert(card, "from-client", []byte("client data"), 3, func(r past.InsertResult) { res = &r })
	pc.Net.RunUntil(func() bool { return res != nil }, 50_000_000)
	if res == nil || res.Err != nil {
		t.Fatalf("client insert failed: %+v", res)
	}
	if client.Store().Len() != 0 {
		t.Fatal("zero-capacity node stored a replica")
	}
	// And retrieve through it.
	var lr *past.LookupResult
	client.Lookup(res.FileID, func(r past.LookupResult) { lr = &r })
	pc.Net.RunUntil(func() bool { return lr != nil }, 50_000_000)
	if lr == nil || lr.Err != nil {
		t.Fatalf("client lookup failed: %+v", lr)
	}
	if string(lr.Data) != "client data" {
		t.Fatal("wrong data")
	}
}

// TestTwoDivertingPrimariesInOneReplicaSet pins replica diversion when two
// ring-adjacent members of a file's k-set both have no space: their leaf
// sets nearly coincide, so both divert to the same neighbour first. That
// neighbour must refuse the second copy (it cannot count as a second
// replica) so that primary moves on; answering with its existing receipt
// left the client one distinct receipt short until RequestTimeout.
func TestTwoDivertingPrimariesInOneReplicaSet(t *testing.T) {
	const n, seed, k = 16, 131, 3
	// Identities are a function of the seed alone: find two ring-adjacent
	// nodes before building, so they can be given zero capacity.
	broker, err := seccrypt.NewBroker(seccrypt.DetRand(cluster.BrokerSeed(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]id.Node, n)
	for i := range ids {
		card, err := broker.IssueCard(0, 0, 0, seccrypt.DetRand(cluster.CardSeed(seed, i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = card.NodeID()
	}
	a, b := 0, -1
	for i := 1; i < n; i++ {
		if ids[a].Less(ids[i]) && (b < 0 || ids[i].Less(ids[b])) {
			b = i // the successor of node 0 on the ring
		}
	}
	if b < 0 {
		t.Skip("node 0 has the largest id at this seed")
	}
	cfg := defaultCfg()
	cfg.FileDiversion = false // a stalled attempt must fail, not be retried under a new fileId
	opts := cluster.Options{N: n, Pastry: pastry.DefaultConfig(), Seed: seed}
	pc, err := cluster.BuildPAST(opts, cfg, func(i int) int64 {
		if i == a || i == b {
			return 0
		}
		return cfg.Capacity
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	both := 0
	for i := 0; i < 60; i++ {
		res := pc.Insert(5, nil, fmt.Sprintf("pair-%d", i), make([]byte, 512), k)
		if res.Err != nil {
			t.Fatalf("insert %d: %v", i, res.Err)
		}
		holders := map[id.Node]bool{}
		for _, r := range res.Receipts {
			holders[r.StoredBy.ID] = true
		}
		if len(holders) != k {
			t.Fatalf("insert %d: %d distinct holders in %d receipts, want %d", i, len(holders), len(res.Receipts), k)
		}
		inSet := 0
		for _, r := range pc.KClosest(res.FileID.Key(), k) {
			if r.ID == ids[a] || r.ID == ids[b] {
				inSet++
			}
		}
		if inSet == 2 {
			both++
			if res.Diverted != 2 {
				t.Fatalf("insert %d: %d diverted receipts, want 2", i, res.Diverted)
			}
		}
	}
	if both == 0 {
		t.Fatal("no fileId had both zero-capacity nodes in its replica set")
	}
}
