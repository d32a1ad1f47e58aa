package past_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"past"
	"past/internal/id"
	"past/internal/seccrypt"
	"past/internal/storage"
	"past/internal/telemetry"
)

func newNet(t testing.TB, n int, seed int64) *past.Network {
	t.Helper()
	cfg := past.DefaultStorageConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{N: n, Seed: seed, Storage: cfg})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return nw
}

func TestNetworkInsertLookupReclaim(t *testing.T) {
	nw := newNet(t, 20, 1)
	data := []byte("facade end to end")
	msgs := nw.Messages()
	ins, err := nw.Insert(0, nil, "facade.txt", data, 3)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if len(ins.Receipts) != 3 {
		t.Fatalf("receipts = %d", len(ins.Receipts))
	}
	// The three replicas are all the network stores, and placing them
	// took traffic (the two figures bench/'s simulator workload reads).
	if want := float64(3*len(data)) / float64(nw.Len()<<20); nw.Utilization() != want {
		t.Fatalf("utilization = %g, want %g", nw.Utilization(), want)
	}
	if nw.Messages() <= msgs {
		t.Fatalf("insert delivered no messages (%d before, %d after)", msgs, nw.Messages())
	}
	got, err := nw.Lookup(13, ins.FileID)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("data mismatch")
	}
	if len(nw.ReplicaHolders(ins.FileID)) != 3 {
		t.Fatal("holder count wrong")
	}
	rec, err := nw.Reclaim(0, nil, ins.FileID)
	if err != nil {
		t.Fatalf("Reclaim: %v", err)
	}
	if rec.Freed == 0 {
		t.Fatal("nothing freed")
	}
	// Reclaim frees all replicas, but per section 1 it "does not
	// guarantee that the file is no longer available": cached copies may
	// still answer lookups. Assert exactly what the paper promises.
	if holders := nw.ReplicaHolders(ins.FileID); len(holders) != 0 {
		t.Fatalf("replicas survive reclaim: %v", holders)
	}
	if lr, err := nw.Lookup(13, ins.FileID); err == nil && !lr.Cached {
		t.Fatal("post-reclaim lookup served from a replica, not a cache")
	} else if err != nil && !errors.Is(err, past.ErrNotFound) {
		t.Fatalf("unexpected lookup error: %v", err)
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := past.NewNetwork(past.NetworkConfig{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestNetworkCrashAndRecovery(t *testing.T) {
	cfg := past.DefaultStorageConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{
		N: 24, Seed: 2, Storage: cfg,
		KeepAlive:   500 * time.Millisecond,
		FailTimeout: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := nw.Insert(0, nil, "precious", []byte("replicate me"), 3)
	if err != nil {
		t.Fatal(err)
	}
	holders := nw.ReplicaHolders(ins.FileID)
	nw.Crash(holders[0])
	if _, err := nw.Lookup(7, ins.FileID); err != nil {
		t.Fatalf("lookup after crash: %v", err)
	}
	nw.RunFor(20 * time.Second)
	if live := len(nw.ReplicaHolders(ins.FileID)); live < 3 {
		t.Fatalf("re-replication incomplete: %d holders", live)
	}
}

func TestNetworkQuota(t *testing.T) {
	cfg := past.DefaultStorageConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{N: 8, Seed: 3, Storage: cfg, UserQuota: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Insert(0, nil, "big", make([]byte, 400), 3); !errors.Is(err, past.ErrQuotaExceeded) {
		t.Fatalf("want quota error, got %v", err)
	}
	if _, err := nw.Insert(0, nil, "ok", make([]byte, 300), 3); err != nil {
		t.Fatalf("within quota failed: %v", err)
	}
}

func TestNetworkAudit(t *testing.T) {
	nw := newNet(t, 16, 4)
	ins, err := nw.Insert(0, nil, "audited", []byte("content"), 3)
	if err != nil {
		t.Fatal(err)
	}
	holders := nw.ReplicaHolders(ins.FileID)
	if len(holders) < 2 {
		t.Fatal("need two holders")
	}
	ok, err := nw.AuditPeer(holders[0], nw.NodeRef(holders[1]), ins.FileID)
	if err != nil || !ok {
		t.Fatalf("audit: ok=%v err=%v", ok, err)
	}
}

func TestParseFileID(t *testing.T) {
	nw := newNet(t, 8, 5)
	ins, err := nw.Insert(0, nil, "x", []byte("y"), 1)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := past.ParseFileID(ins.FileID.String())
	if err != nil || parsed != ins.FileID {
		t.Fatalf("round trip failed: %v", err)
	}
	if _, err := past.ParseFileID("zz"); err == nil {
		t.Fatal("bad hex accepted")
	}
}

// admit joins p to the network of members (members[0] is the seed) and
// waits until every member, p included, holds all the others in its leaf
// set. Peers are admitted one at a time because Join returns before its
// announce traffic has propagated: a join routed through a peer that has
// not heard the previous announce yet leaves the two newcomers unaware of
// each other until a keep-alive round (seconds), and an operation racing
// such a partial view is routed, or replicated, against a stale leaf set.
func admit(members []*past.Peer, p *past.Peer) error {
	if err := p.Join(members[0].Addr()); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	all := append(append([]*past.Peer(nil), members...), p)
	converged := func() bool {
		for _, m := range all {
			if m.KnownPeers() < len(all)-1 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !converged(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("membership did not converge after peer %d joined", len(members))
		}
	}
	return nil
}

// TestAdmittedPeersDialOnce admits TCP peers one at a time, with the
// keep-alive and leaf-sync settings bench's cluster uses: each peer dials
// every other exactly once, and keeps those connections through keep-alive
// rounds. Proximity measures a peer by the connection the node keeps, so
// it adds no dial of its own.
func TestAdmittedPeersDialOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 8
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.Capacity = 1 << 20
	var peers []*past.Peer
	for i := 0; i < n; i++ {
		card, err := broker.IssueCard(1<<30, scfg.Capacity, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := past.ListenPeer(past.PeerConfig{Card: card, BrokerPub: broker.PublicKey(), Storage: scfg, KeepAlive: time.Second, LeafSync: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers = append(peers, p)
	}
	peers[0].Bootstrap()
	for i := 1; i < n; i++ {
		if err := admit(peers[:i], peers[i]); err != nil {
			t.Fatal(err)
		}
	}
	dialled := func() bool {
		for _, p := range peers {
			if p.TransportStats().Dials < n-1 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !dialled() && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(1500 * time.Millisecond) // a keep-alive round and more: no dial may follow
	for i, p := range peers {
		if s := p.TransportStats(); s.Dials != n-1 || s.DialFailures != 0 {
			t.Errorf("peer %d: %d dials, %d failed; want %d, none failed", i, s.Dials, s.DialFailures, n-1)
		}
	}
}

// TestDefaultPeersRouteAroundClosedHolder closes a replica holder in a
// cluster of peers with default PeerConfigs. The client's sends to it, a
// lookup's and then the keep-alive's, fail their dials; the third opens
// its address, and every lookup of a file it served then succeeds inside
// a short deadline. The files are those the holder is not numerically
// closest to: the client's routing drops an open peer from its leaf set,
// so its view of a file's replica set gains a node that holds no replica,
// and a lookup sent there is forwarded to the file's root, which must be
// alive (the other peers may not have given up on the holder yet).
func TestDefaultPeersRouteAroundClosedHolder(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 6
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.Capacity = 1 << 20
	scfg.Caching = false // every lookup below goes to a replica holder
	var peers []*past.Peer
	for range n {
		card, err := broker.IssueCard(1<<30, scfg.Capacity, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := past.ListenPeer(past.PeerConfig{Card: card, BrokerPub: broker.PublicKey(), Storage: scfg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
	}
	peers[0].Bootstrap()
	for i := 1; i < n; i++ {
		if err := admit(peers[:i], peers[i]); err != nil {
			t.Fatal(err)
		}
	}
	client := peers[0]
	lookup := func(f past.FileID, d time.Duration) (past.LookupResult, error) {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		return client.LookupCtx(ctx, f)
	}
	// served[p] lists the files whose lookups from the client p answered
	// and that p is not numerically closest to. Which holder answers
	// depends on measured RTTs, so files are inserted until some peer
	// other than the client has answered for want of them.
	const want, maxFiles = 3, 240
	served := map[past.NodeID][]past.FileID{}
	var holder *past.Peer
	for i := 0; holder == nil; i++ {
		if i == maxFiles {
			t.Fatalf("after %d files no peer but the client served %d it does not root", maxFiles, want)
		}
		ins, err := client.Insert(nil, fmt.Sprintf("f%d", i), []byte{byte(i)}, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lookup(ins.FileID, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		root := peers[0].Ref().ID
		for _, p := range peers[1:] {
			if id.Closer(ins.FileID.Key(), p.Ref().ID, root) {
				root = p.Ref().ID
			}
		}
		if got.From.ID != root {
			served[got.From.ID] = append(served[got.From.ID], ins.FileID)
		}
		for _, p := range peers[1:] {
			if len(served[p.Ref().ID]) == want {
				holder = p
			}
		}
	}
	held := served[holder.Ref().ID]
	closed := time.Now()
	holder.Close()
	for client.TransportStats().BreakerOpens == 0 {
		if time.Since(closed) > 12*time.Second {
			t.Fatalf("12 s after the holder closed its address is not open: %+v", client.TransportStats())
		}
		lookup(held[0], 200*time.Millisecond) //nolint:errcheck // only the sends it makes matter here
	}
	for _, f := range held {
		if _, err := lookup(f, time.Second); err != nil {
			t.Errorf("lookup of %s after the holder closed: %v", f, err)
		}
	}
}

// TestTCPPeersEndToEnd runs a real five-node TCP cluster on loopback and
// pushes a file through it.
func TestTCPPeersEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = 3
	scfg.Capacity = 1 << 20
	var peers []*past.Peer
	for i := 0; i < 5; i++ {
		card, err := broker.IssueCard(1<<30, scfg.Capacity, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := past.ListenPeer(past.PeerConfig{
			Card:      card,
			BrokerPub: broker.PublicKey(),
			Storage:   scfg,
			OpTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers = append(peers, p)
	}
	peers[0].Bootstrap()
	for i := 1; i < 5; i++ {
		if err := admit(peers[:i], peers[i]); err != nil {
			t.Fatal(err)
		}
	}
	data := []byte("over real TCP")
	ins, err := peers[1].Insert(nil, "tcp.txt", data, 3)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	got, err := peers[4].Lookup(ins.FileID)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("data mismatch over TCP")
	}
	total := 0
	for _, p := range peers {
		total += p.StoredFiles()
	}
	if total != 3 {
		t.Fatalf("replicas stored = %d, want 3", total)
	}
	// Over sockets every frame has its own buffer, so the one a reader
	// gets back is shared with nothing but that peer's cache: writing to
	// it (forbidden) must surface as an error on the next lookup through
	// the same peer, which its own cache answers.
	for _, p := range peers {
		if p.StoredFiles() != 0 {
			continue
		}
		first, err := p.Lookup(ins.FileID)
		if err != nil {
			t.Fatalf("lookup via a peer without a replica: %v", err)
		}
		first.Data[0] ^= 0xff
		again, err := p.Lookup(ins.FileID)
		if err == nil {
			t.Fatalf("rewritten reply buffer served as %q without error", again.Data)
		}
		if !again.Cached || again.Hops != 0 {
			t.Fatalf("second lookup: cached %v after %d hops (%v); the peer's own cache should have answered", again.Cached, again.Hops, err)
		}
		break
	}
}

func TestNetworkRestartRecovers(t *testing.T) {
	cfg := past.DefaultStorageConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{
		N: 20, Seed: 9, Storage: cfg,
		KeepAlive:   500 * time.Millisecond,
		FailTimeout: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := nw.Insert(0, nil, "durable", []byte("comes back"), 3)
	if err != nil {
		t.Fatal(err)
	}
	victim := nw.ReplicaHolders(ins.FileID)[0]
	nw.Crash(victim)
	nw.RunFor(10 * time.Second) // failure detected, re-replication done
	nw.Restart(victim)
	nw.RunFor(10 * time.Second)
	if nw.Down(victim) {
		t.Fatal("victim still marked down")
	}
	// The recovered node participates again: lookups through it work.
	if _, err := nw.Lookup(victim, ins.FileID); err != nil {
		t.Fatalf("lookup via recovered node: %v", err)
	}
	// And the file is still at (or above) full replication.
	if got := len(nw.ReplicaHolders(ins.FileID)); got < 3 {
		t.Fatalf("replication fell to %d", got)
	}
}

// TestNetworkTelemetryTicks attaches a recorder to a facade Network: the
// simulator ticks it at window barriers, so RunFor closes one window per
// virtual second and the series see the crash and the repair traffic.
func TestNetworkTelemetryTicks(t *testing.T) {
	nw, err := past.NewNetwork(past.NetworkConfig{
		N: 16, Seed: 11,
		KeepAlive:   500 * time.Millisecond,
		FailTimeout: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := nw.Insert(0, nil, "watched", make([]byte, 512), 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.Config{Window: time.Second})
	nw.RegisterTelemetry(rec)
	nw.RunFor(3 * time.Second)
	nw.Crash(nw.ReplicaHolders(ins.FileID)[0])
	nw.RunFor(5 * time.Second)

	live := rec.Points("live_nodes")
	if len(live) < 7 {
		t.Fatalf("%d windows closed over 8 virtual seconds", len(live))
	}
	if first, last := live[0].Vals[0], live[len(live)-1].Vals[0]; first != 16 || last != 15 {
		t.Fatalf("live_nodes went %v -> %v, want 16 -> 15", first, last)
	}
	events, replications := seriesSums(t, rec, "net_events")["value"], seriesSums(t, rec, "past")["replications"]
	if events == 0 || replications == 0 {
		t.Fatalf("series saw %v deliveries and %v re-replications", events, replications)
	}
}

// seriesSums adds up each field of the named series over the windows rec
// retains, read back through the line protocol an operator scrapes.
func seriesSums(t *testing.T, rec *telemetry.Recorder, name string) map[string]float64 {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteLP(&b); err != nil {
		t.Fatal(err)
	}
	pts, err := telemetry.ParseLP(&b)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]float64{}
	for _, p := range pts {
		if p.Name == name {
			for f, v := range p.Fields {
				sums[f] += v
			}
		}
	}
	return sums
}

// TestNetworkStatsAndCacheStats reads a facade Network's storage counters
// through its "past" series: three primary stores for one k=3 insert, and
// cache serves for repeated lookups.
func TestNetworkStatsAndCacheStats(t *testing.T) {
	nw := newNet(t, 16, 10)
	rec := telemetry.New(telemetry.Config{Window: time.Second})
	nw.RegisterTelemetry(rec)
	ins, err := nw.Insert(0, nil, "s", make([]byte, 256), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		nw.Lookup(9, ins.FileID)
	}
	nw.RunFor(2 * time.Second) // close the windows the operations ran in
	sums := seriesSums(t, rec, "past")
	if sums["primary_stores"] != 3 {
		t.Fatalf("primary_stores = %v", sums["primary_stores"])
	}
	if sums["cache_serves"] == 0 {
		t.Fatal("repeated lookups never hit a cache")
	}
}

// TestPeerTransportSeriesExact pins a real peer's transport series to
// the counters it exports: over the run, the summed per-window dials
// equal TransportStats().Dials, on both sides of a loopback pair.
func TestPeerTransportSeriesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = 2
	scfg.Capacity = 1 << 20
	var peers []*past.Peer
	var recs []*telemetry.Recorder
	for i := 0; i < 2; i++ {
		card, err := broker.IssueCard(1<<30, scfg.Capacity, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := past.ListenPeer(past.PeerConfig{Card: card, BrokerPub: broker.PublicKey(), Storage: scfg, OpTimeout: 3 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.New(telemetry.Config{Window: time.Second})
		p.RegisterTelemetry(rec)
		rec.Tick(0)
		peers, recs = append(peers, p), append(recs, rec)
	}
	peers[0].Bootstrap()
	if err := admit(peers[:1], peers[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := peers[1].Insert(nil, "counted", []byte("x"), 2); err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		p.Close() //nolint:errcheck // no dial after this
		recs[i].Flush(1500 * time.Millisecond)
		want := p.TransportStats().Dials
		if got := seriesSums(t, recs[i], "transport"); got["dials"] != float64(want) || want == 0 {
			t.Fatalf("peer %d: transport series %v, TransportStats().Dials = %d", i, got, want)
		}
	}
}

func TestListenPeerValidation(t *testing.T) {
	if _, err := past.ListenPeer(past.PeerConfig{}); err == nil {
		t.Fatal("missing card accepted")
	}
}

// TestPeerJoinPassesDeadSeeds joins through two dead seeds and a live
// one: the pass gives each dead seed JoinTimeout, so the wait must allow
// for every seed in the list, not one.
func TestPeerJoinPassesDeadSeeds(t *testing.T) {
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	var peers []*past.Peer
	for range 2 {
		card, err := broker.IssueCard(1<<30, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := past.ListenPeer(past.PeerConfig{Card: card, BrokerPub: broker.PublicKey(), JoinTimeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers = append(peers, p)
	}
	peers[0].Bootstrap()
	if err := peers[1].Join("127.0.0.1:1", "127.0.0.1:2", peers[0].Addr()); err != nil {
		t.Fatalf("join through two dead seeds and a live one: %v", err)
	}
	if err := peers[1].Join(); err == nil {
		t.Fatal("a join with no seeds succeeded")
	}
}

func TestPeerLookupMissAndReclaimByNonOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = 2
	scfg.Capacity = 1 << 20
	scfg.RequestTimeout = 2 * time.Second
	mk := func() *past.Peer {
		card, err := broker.IssueCard(1<<30, scfg.Capacity, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := past.ListenPeer(past.PeerConfig{
			Card: card, BrokerPub: broker.PublicKey(), Storage: scfg,
			OpTimeout: 3 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b, c := mk(), mk(), mk()
	a.Bootstrap()
	if err := admit([]*past.Peer{a}, b); err != nil {
		t.Fatal(err)
	}
	if err := admit([]*past.Peer{a, b}, c); err != nil {
		t.Fatal(err)
	}
	// Lookup of a nonexistent file over TCP returns not-found.
	var missing past.FileID
	copy(missing[:], bytes.Repeat([]byte{0x42}, len(missing)))
	if _, err := b.Lookup(missing); !errors.Is(err, past.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	// Reclaim with the wrong owner's card yields no receipts.
	ins, err := a.Insert(nil, "owned", []byte("mine"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reclaim(nil, ins.FileID); err == nil {
		t.Fatal("non-owner reclaim over TCP returned receipts")
	}
	// The file survives.
	if _, err := b.Lookup(ins.FileID); err != nil {
		t.Fatalf("file should survive: %v", err)
	}
}

// TestDiskPeerReclaim: disk-backed peers hold a replica's certificate
// only in its log record, and judge a reclaim against the certificate
// read back from it: another card's reclaim is refused and the replicas
// stay; the owner's frees them, and no log replays to the file.
func TestDiskPeerReclaim(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = 2
	scfg.Capacity = 1 << 20
	scfg.RequestTimeout = time.Second
	var peers []*past.Peer
	var dirs []string
	for range 3 {
		card, err := broker.IssueCard(1<<30, scfg.Capacity, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		p, err := past.ListenPeer(past.PeerConfig{
			Card: card, BrokerPub: broker.PublicKey(), Storage: scfg, DataDir: dir, OpTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers, dirs = append(peers, p), append(dirs, dir)
	}
	peers[0].Bootstrap()
	for i := 1; i < len(peers); i++ {
		if err := admit(peers[:i], peers[i]); err != nil {
			t.Fatal(err)
		}
	}
	stored := func() (n int) {
		for _, p := range peers {
			n += p.StoredFiles()
		}
		return n
	}
	ins, err := peers[0].Insert(nil, "owned", bytes.Repeat([]byte("mine"), 1024), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := stored(); got != 2 {
		t.Fatalf("%d replicas stored, want 2", got)
	}
	if _, err := peers[2].Reclaim(nil, ins.FileID); err == nil || stored() != 2 {
		t.Fatalf("another card's reclaim: %v, %d replicas left", err, stored())
	}
	rec, err := peers[0].Reclaim(nil, ins.FileID)
	if err != nil || len(rec.Receipts) != 2 || stored() != 0 {
		t.Fatalf("the owner's reclaim: %d receipts, %v, %d replicas left", len(rec.Receipts), err, stored())
	}
	for _, dir := range dirs {
		if live, _, err := storage.LiveFiles(dir); err != nil || len(live) != 0 {
			t.Fatalf("%s replays to %v (%v)", dir, live, err)
		}
	}
}

// TestPeerRefusesExpiredCard pins a real peer's certificate clock to the
// wall clock: a card that expired an hour ago cannot insert, one that
// expires in an hour can, and the certificate it issues is stamped now.
func TestPeerRefusesExpiredCard(t *testing.T) {
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	issue := func(expiresUnix int64) *past.Smartcard {
		card, err := broker.IssueCard(1<<30, 1<<20, expiresUnix, nil)
		if err != nil {
			t.Fatal(err)
		}
		return card
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = 1
	scfg.Capacity = 1 << 20
	p, err := past.ListenPeer(past.PeerConfig{Card: issue(0), BrokerPub: broker.PublicKey(), Storage: scfg, OpTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Bootstrap()
	now := time.Now().Unix()
	if _, err := p.Insert(issue(now-3600), "late", []byte("x"), 1); !errors.Is(err, seccrypt.ErrExpired) {
		t.Fatalf("insert with a card that expired an hour ago: err=%v, want ErrExpired", err)
	}
	ins, err := p.Insert(issue(now+3600), "in time", []byte("x"), 1)
	if err != nil {
		t.Fatalf("insert with a card that expires in an hour: %v", err)
	}
	got, err := p.Lookup(ins.FileID)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Cert.Issued - time.Now().Unix(); d < -1 || d > 1 {
		t.Fatalf("certificate issued at %d, %d s off the wall clock", got.Cert.Issued, d)
	}
}

// ---------------------------------------------------------------------------
// Runnable godoc examples for the facade's three paper operations.

// ExampleNetwork walks the paper's full lifecycle — insert, lookup,
// reclaim — on a small simulated network. Everything is deterministic for
// a fixed seed, which is what makes the expected output checkable.
func ExampleNetwork() {
	cfg := past.DefaultStorageConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{N: 16, Seed: 42, Storage: cfg})
	if err != nil {
		panic(err)
	}

	// Insert: node 0's smartcard issues a signed file certificate and the
	// content is replicated on the 3 nodes closest to the fileId.
	ins, err := nw.Insert(0, nil, "greeting.txt", []byte("hello, PAST"), 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("replicas stored:", len(ins.Receipts))

	// Lookup: any node can retrieve the file; the reply carries the
	// certificate, which the client verifies before accepting the data.
	got, err := nw.Lookup(9, ins.FileID)
	if err != nil {
		panic(err)
	}
	fmt.Printf("retrieved: %s\n", got.Data)

	// Reclaim: the owner's card issues a reclaim certificate; each holder
	// verifies it against the stored file certificate and frees the space.
	rec, err := nw.Reclaim(0, nil, ins.FileID)
	if err != nil {
		panic(err)
	}
	fmt.Println("bytes freed:", rec.Freed)
	// Output:
	// replicas stored: 3
	// retrieved: hello, PAST
	// bytes freed: 33
}

// ExampleNetwork_Insert shows quota accounting: the smartcard debits
// size x k when it issues the certificate (section 2.1 of the paper).
func ExampleNetwork_Insert() {
	cfg := past.DefaultStorageConfig()
	cfg.K = 2
	cfg.Capacity = 1 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{
		N: 8, Seed: 7, Storage: cfg, UserQuota: 10_000,
	})
	if err != nil {
		panic(err)
	}
	if _, err := nw.Insert(0, nil, "a.bin", make([]byte, 1000), 2); err != nil {
		panic(err)
	}
	fmt.Println("remaining quota:", nw.Card(0).RemainingQuota())
	// Output:
	// remaining quota: 8000
}

// ExampleNetwork_Lookup shows the routing telemetry a lookup returns.
func ExampleNetwork_Lookup() {
	cfg := past.DefaultStorageConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{N: 16, Seed: 3, Storage: cfg})
	if err != nil {
		panic(err)
	}
	ins, err := nw.Insert(0, nil, "doc.txt", []byte("telemetry"), 3)
	if err != nil {
		panic(err)
	}
	got, err := nw.Lookup(11, ins.FileID)
	if err != nil {
		panic(err)
	}
	fmt.Println("bytes:", len(got.Data), "cached:", got.Cached)
	// Output:
	// bytes: 9 cached: false
}

// ExampleNetwork_Reclaim shows that reclaim refuses a non-owner: only
// the card that issued the file certificate can free the storage.
func ExampleNetwork_Reclaim() {
	cfg := past.DefaultStorageConfig()
	cfg.K = 2
	cfg.Capacity = 1 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{N: 8, Seed: 5, Storage: cfg})
	if err != nil {
		panic(err)
	}
	ins, err := nw.Insert(0, nil, "mine.txt", []byte("owned"), 2)
	if err != nil {
		panic(err)
	}
	if _, err := nw.Reclaim(3, nw.Card(3), ins.FileID); err != nil {
		fmt.Println("non-owner reclaim: refused")
	}
	rec, err := nw.Reclaim(0, nil, ins.FileID)
	if err != nil {
		panic(err)
	}
	fmt.Println("owner reclaim freed:", rec.Freed)
	// Output:
	// non-owner reclaim: refused
	// owner reclaim freed: 10
}

// ExampleListenPeer runs five PAST nodes over real TCP sockets on
// loopback, the code path a wide-area deployment uses (binary frames,
// measured RTT as the proximity metric, the real clock, keep-alive failure
// detection), and pushes a file through them.
func ExampleListenPeer() {
	broker, err := past.NewBroker()
	if err != nil {
		panic(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = 3
	scfg.Capacity = 1 << 20
	var peers []*past.Peer
	for i := 0; i < 5; i++ {
		card, err := broker.IssueCard(1<<30, scfg.Capacity, 0, nil)
		if err != nil {
			panic(err)
		}
		p, err := past.ListenPeer(past.PeerConfig{Card: card, BrokerPub: broker.PublicKey(), Storage: scfg})
		if err != nil {
			panic(err)
		}
		defer p.Close()
		// The first peer starts the network. Each later one joins through
		// it (admit calls p.Join(peers[0].Addr()) and waits until every
		// member knows every other).
		if i == 0 {
			p.Bootstrap()
		} else if err := admit(peers, p); err != nil {
			panic(err)
		}
		peers = append(peers, p)
	}

	ins, err := peers[1].Insert(nil, "wire.txt", []byte("sent across real TCP connections"), 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("receipts:", len(ins.Receipts))
	got, err := peers[4].Lookup(ins.FileID)
	if err != nil {
		panic(err)
	}
	fmt.Printf("retrieved: %s\n", got.Data)
	stored := 0
	for _, p := range peers {
		stored += p.StoredFiles()
	}
	fmt.Println("replicas in the network:", stored)
	// Output:
	// receipts: 3
	// retrieved: sent across real TCP connections
	// replicas in the network: 3
}

// TestPeerWholeFileOverOneFrame drives the frame cliff on real sockets: a
// file plus its certificate travel in one frame, so the workload's largest
// file (8 MiB) cannot be inserted over TCP. The insert is refused with
// ErrTooLarge at once, before the card signs or debits anything and
// before any frame is built; a file that leaves room for the certificate
// is stored. Whole files of any size, in bounded chunk frames (ROADMAP,
// "whole files of any size"), are meant to turn the first case into a
// success.
func TestPeerWholeFileOverOneFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = 2
	scfg.Capacity = 1 << 30
	var peers []*past.Peer
	var card *past.Smartcard
	for i := 0; i < 2; i++ {
		card, err = broker.IssueCard(1<<40, scfg.Capacity, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := past.ListenPeer(past.PeerConfig{Card: card, BrokerPub: broker.PublicKey(), Storage: scfg, OpTimeout: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
	}
	peers[0].Bootstrap()
	if err := admit(peers[:1], peers[1]); err != nil {
		t.Fatal(err)
	}
	quota := card.RemainingQuota()
	start := time.Now()
	if _, err := peers[1].Insert(nil, "8MiB", make([]byte, 8<<20), 2); !errors.Is(err, past.ErrTooLarge) {
		t.Fatalf("8 MiB insert: %v, want ErrTooLarge", err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("the refusal took %v, want under 100ms", took)
	}
	if sender, receiver := peers[1].TransportStats().Oversize, peers[0].TransportStats().Oversize; sender != 0 || receiver != 0 {
		t.Fatalf("Oversize: sender %d, receiver %d; want 0 and 0", sender, receiver)
	}
	if q := card.RemainingQuota(); q != quota {
		t.Fatalf("the refused insert moved the card's quota %d → %d", quota, q)
	}
	if _, err := peers[1].Insert(nil, "8MiB-4KiB", make([]byte, 8<<20-4<<10), 2); err != nil {
		t.Fatalf("8 MiB - 4 KiB insert: %v", err)
	}
}

// TestPeerQuarantinesRottedReplica flips a byte of a replica in a disk-
// backed peer's log while the peer runs: no lookup ever returns the
// flipped byte, the peer's first read of the record quarantines it out of
// its index, and anti-entropy brings the replica back from the others.
func TestPeerQuarantinesRottedReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	broker, err := past.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = 3
	scfg.Capacity = 1 << 20
	scfg.LookupRetries = 3
	scfg.RequestTimeout = time.Second
	scfg.AntiEntropyEvery = 200 * time.Millisecond
	var peers []*past.Peer
	var dirs []string
	for range 5 {
		card, err := broker.IssueCard(1<<30, scfg.Capacity, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		p, err := past.ListenPeer(past.PeerConfig{
			Card: card, BrokerPub: broker.PublicKey(), Storage: scfg, DataDir: dir,
			KeepAlive: 100 * time.Millisecond, FailTimeout: 10 * time.Second, OpTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers, dirs = append(peers, p), append(dirs, dir)
	}
	peers[0].Bootstrap()
	for i := 1; i < len(peers); i++ {
		if err := admit(peers[:i], peers[i]); err != nil {
			t.Fatal(err)
		}
	}
	data := bytes.Repeat([]byte("rot "), 1024)
	ins, err := peers[0].Insert(nil, "rot.bin", data, 3)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	holder := -1
	for i, p := range peers {
		if p.StoredFiles() == 1 && holder < 0 {
			holder = i
		}
	}
	if holder < 0 {
		t.Fatal("no peer holds the file")
	}
	log := filepath.Join(dirs[holder], "replicas.log")
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, data) + len(data)/2
	rotted := bytes.Clone(data)
	rotted[len(data)/2] ^= 0x01
	f, err := os.OpenFile(log, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(rotted[len(data)/2:len(data)/2+1], int64(at)); err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck // written

	lookup := func(p *past.Peer) {
		t.Helper()
		got, err := p.Lookup(ins.FileID)
		if err == nil && !bytes.Equal(got.Data, data) {
			t.Fatal("a lookup returned content that is not what was inserted")
		}
	}
	for i, p := range peers {
		if i != holder {
			lookup(p)
		}
	}
	lookup(peers[holder]) // served by the holder itself: reads the rotted record
	q, err := os.ReadFile(filepath.Join(dirs[holder], "quarantine.corrupt"))
	if err != nil || !bytes.Contains(q, rotted) {
		t.Fatalf("the rotted record is not in quarantine (%d bytes, %v)", len(q), err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		total := 0
		for _, p := range peers {
			total += p.StoredFiles()
		}
		if total == 3 && peers[holder].StoredFiles() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never restored: the holder stores %d files, the cluster %d", peers[holder].StoredFiles(), total)
		}
	}
	got, err := peers[holder].Lookup(ins.FileID)
	if err != nil || !bytes.Equal(got.Data, data) {
		t.Fatalf("the restored replica: %v", err)
	}
}
