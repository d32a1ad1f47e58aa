package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"past"
	"past/internal/chaos"
	"past/internal/telemetry"
)

// dumpDirLogs prints every node log under dir when a scenario that
// manages its own cluster fails.
func dumpDirLogs(t *testing.T, dir string) {
	t.Helper()
	logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		t.Logf("---- %s ----\n%s", path, data)
	}
}

// TestChaosPartitionHeal is the flagship chaos scenario (CI's chaos-smoke
// job runs exactly this under -race): a 7-node real cluster dialing
// through the fault proxy is split 4/3 for 10 seconds while inserting;
// the majority side must keep serving, and after heal the self-healing
// daemons must converge every file back to >= k disk replicas with zero
// quarantined entries and a known_peers telemetry series showing the dip
// and the recovery — all without operator action.
func TestChaosPartitionHeal(t *testing.T) {
	dir := clusterDir(t)
	rep, err := RunPartitionHeal(pastnodeBin, dir, t.Logf)
	if err != nil {
		dumpDirLogs(t, dir)
		t.Fatal(err)
	}
	if rep.MajorityServed < 1 {
		t.Fatalf("majority side served %d reads, want >= 1", rep.MajorityServed)
	}
	if rep.HealToInvariant > 30*time.Second {
		t.Fatalf("k-replica invariant took %v to recover after heal", rep.HealToInvariant)
	}
	t.Logf("partition+heal: %d files, %d majority reads, invariant back %v after heal",
		rep.Files, rep.MajorityServed, rep.HealToInvariant.Round(100*time.Millisecond))
}

// TestChaosLoss20 runs insert/lookup round trips through a proxy dropping
// 20% of all frames on every link. The client-side retransmissions
// (insert re-sends, lookup retries) must hold the success ratio at or
// above 0.95, and the proxy's fault log must replay byte-identically from
// the schedule seed and the per-link frame counts alone.
func TestChaosLoss20(t *testing.T) {
	spec := NewSpec(45, 5, 3, 20)
	sched := chaos.Schedule{Seed: 9, Default: chaos.LinkRule{Drop: 0.2}}
	proxy, err := chaos.New(sched)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	dir := clusterDir(t)
	rc, err := StartRealClusterOpts(pastnodeBin, dir, spec, ClusterOptions{
		KeepAlive: 500 * time.Millisecond,
		// Failure detection at 8 keep-alive intervals: under 20% loss the
		// chance of eight consecutive keep-alives vanishing is ~3e-6, so
		// live peers stay admitted while a genuinely dead one still gets
		// evicted in 4s.
		ExtraArgs: chaosExtraArgs(proxy.Addr(), 4*time.Second),
	})
	if err != nil {
		dumpDirLogs(t, dir)
		t.Fatalf("StartRealClusterOpts: %v", err)
	}
	t.Cleanup(func() {
		rc.StopAll()
		if t.Failed() {
			t.Logf("node logs:\n%s", rc.CollectLogs())
		}
	})
	client, card, err := rc.NewClientOpts(12*time.Second, func(pc *past.PeerConfig) {
		pc.DialVia = proxy.Addr()
		pc.JoinTimeout = 2 * time.Second
		pc.FailTimeout = 4 * time.Second
		// Many short attempts beat few long ones against random loss: each
		// lookup gets 7 tries of 2.5s (route diversity per retry), each
		// insert 7 same-certificate transmissions, all inside the 24s
		// blocking-call bound.
		pc.Storage.RequestTimeout = 2500 * time.Millisecond
		pc.Storage.LookupRetries = 6
		pc.Storage.RetryBackoff = 150 * time.Millisecond
		pc.Storage.InsertResends = 6
	})
	if err != nil {
		t.Fatalf("NewClientOpts: %v", err)
	}
	defer client.Close()

	ops, successes := 0, 0
	var inserted []int
	fileIDs := make([]past.FileID, len(spec.Items))
	for i, it := range spec.Items {
		ops++
		res, err := client.InsertSalted(card, it.Name, it.Data, spec.K, it.Salt)
		if err != nil {
			t.Logf("insert %d failed under loss: %v", i, err)
			continue
		}
		successes++
		fileIDs[i] = res.FileID
		inserted = append(inserted, i)
	}
	for _, i := range inserted {
		ops++
		res, err := client.Lookup(fileIDs[i])
		if err != nil {
			t.Logf("lookup %d failed under loss: %v", i, err)
			continue
		}
		if string(res.Data) != string(spec.Items[i].Data) {
			t.Fatalf("lookup %d returned wrong bytes", i)
		}
		successes++
	}
	ratio := float64(successes) / float64(ops)
	t.Logf("20%% loss: %d/%d round trips succeeded (%.3f)", successes, ops, ratio)
	if ratio < 0.95 {
		t.Fatalf("success ratio %.3f under 20%% loss, want >= 0.95", ratio)
	}

	// Quiesce before reading the fault log: stop the daemons and the
	// client so no frame is mid-flight, then wait for the per-link
	// counters to stabilize.
	client.Close()
	rc.StopAll()
	stable := proxy.Stats()
	for i := 0; i < 50; i++ {
		time.Sleep(100 * time.Millisecond)
		next := proxy.Stats()
		if statsEqual(stable, next) {
			break
		}
		stable = next
	}

	var frames, dropped uint64
	counts := make(map[chaos.Link]uint64, len(stable))
	for l, st := range stable {
		counts[l] = st.Frames
		frames += st.Frames
		dropped += st.Dropped
	}
	if frames == 0 || dropped == 0 {
		t.Fatalf("proxy saw %d frames / %d drops; fault injection inert", frames, dropped)
	}
	rate := float64(dropped) / float64(frames)
	if rate < 0.12 || rate > 0.28 {
		t.Fatalf("observed drop rate %.3f, want ~0.2", rate)
	}
	// Byte-identical replay: the live log must equal the offline
	// recomputation from (seed, per-link frame counts) alone.
	want := chaos.ExpectedLog(sched, counts)
	if got := proxy.FaultLog(); got != want {
		t.Fatalf("fault log does not replay byte-identically:\ngot:\n%s\nwant:\n%s", got, want)
	}
	t.Logf("fault log replayed byte-identically: %d frames, %d drops (%.3f) over %d links",
		frames, dropped, rate, len(counts))
}

func statsEqual(a, b map[chaos.Link]chaos.LinkStats) bool {
	if len(a) != len(b) {
		return false
	}
	for l, s := range a {
		if b[l] != s {
			return false
		}
	}
	return true
}

// TestChaosGrayFailure drives a cluster where one node is slow but alive:
// every link touching it carries 120ms latency plus jitter. The gray node
// must stay a member (no false eviction, no breaker trip — slowness is
// not death), operations must still complete, and a context deadline must
// bound a client call regardless of how slow the network is.
func TestChaosGrayFailure(t *testing.T) {
	const nodes = 5
	addrs, err := ReserveAddrs(nodes + 1) // +1 for the client
	if err != nil {
		t.Fatal(err)
	}
	slow, clientAddr := addrs[nodes-1], addrs[nodes]
	links := make(map[chaos.Link]chaos.LinkRule)
	grayRule := chaos.LinkRule{Latency: 120 * time.Millisecond, Jitter: 60 * time.Millisecond}
	for _, a := range addrs {
		if a == slow {
			continue
		}
		links[chaos.Link{From: slow, To: a}] = grayRule
		links[chaos.Link{From: a, To: slow}] = grayRule
	}
	sched := chaos.Schedule{Seed: 11, Links: links}
	proxy, err := chaos.New(sched)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	spec := NewSpec(47, nodes, 3, 6)
	dir := clusterDir(t)
	rc, err := StartRealClusterOpts(pastnodeBin, dir, spec, ClusterOptions{
		KeepAlive:   500 * time.Millisecond,
		ExtraArgs:   chaosExtraArgs(proxy.Addr(), 2*time.Second),
		ListenAddrs: addrs[:nodes],
	})
	if err != nil {
		dumpDirLogs(t, dir)
		t.Fatalf("StartRealClusterOpts: %v", err)
	}
	t.Cleanup(func() {
		rc.StopAll()
		if t.Failed() {
			t.Logf("node logs:\n%s", rc.CollectLogs())
		}
	})
	client, card, err := rc.NewClientOpts(8*time.Second, func(pc *past.PeerConfig) {
		pc.Listen = clientAddr
		pc.DialVia = proxy.Addr()
		pc.JoinTimeout = 2 * time.Second
		pc.FailTimeout = 2 * time.Second
		pc.Storage.LookupRetries = 2
		pc.Storage.RetryBackoff = 150 * time.Millisecond
		pc.Storage.InsertResends = 2
	})
	if err != nil {
		t.Fatalf("NewClientOpts: %v", err)
	}
	defer client.Close()

	fileIDs := make([]past.FileID, len(spec.Items))
	for i, it := range spec.Items {
		res, err := client.InsertSalted(card, it.Name, it.Data, spec.K, it.Salt)
		if err != nil {
			t.Fatalf("insert %d with gray node: %v", i, err)
		}
		fileIDs[i] = res.FileID
	}
	for i := range spec.Items {
		res, err := client.Lookup(fileIDs[i])
		if err != nil {
			t.Fatalf("lookup %d with gray node: %v", i, err)
		}
		if string(res.Data) != string(spec.Items[i].Data) {
			t.Fatalf("lookup %d returned wrong bytes", i)
		}
	}

	// Deadline propagation: the caller stays bounded even though the
	// network is slow.
	if err := ctxLookupProbe(client, fileIDs[0], time.Second); err != nil {
		t.Fatal(err)
	}

	// Gray != dead: the slow node is still a full member everywhere, and
	// the client's breaker never opened on it.
	if err := rc.WaitConverged(nodes, 10*time.Second); err != nil {
		t.Fatalf("slow node was evicted: %v", err)
	}
	if ts := client.TransportStats(); ts.BreakerOpens != 0 {
		t.Fatalf("client breaker opened %d times on a slow-but-alive network", ts.BreakerOpens)
	}
}

// TestChaosCrashStorm rolls a SIGKILL through half the storage nodes, one
// at a time, inserting through each outage; every node restarts on its
// old address and data dir. Afterwards the cluster must hold every file
// (pre-storm and mid-storm) on >= k distinct disks with zero quarantined
// entries and correct bytes.
func TestChaosCrashStorm(t *testing.T) {
	spec := NewSpec(46, 6, 3, 11) // 8 pre-storm + 3 mid-storm files
	dir := clusterDir(t)
	rc, err := StartRealClusterOpts(pastnodeBin, dir, spec, ClusterOptions{
		KeepAlive: 500 * time.Millisecond,
		ExtraArgs: []string{
			"-failtimeout", "1500ms",
			"-join-timeout", "2s",
		},
	})
	if err != nil {
		dumpDirLogs(t, dir)
		t.Fatalf("StartRealClusterOpts: %v", err)
	}
	t.Cleanup(func() {
		rc.StopAll()
		if t.Failed() {
			t.Logf("node logs:\n%s", rc.CollectLogs())
		}
	})
	client, card, err := rc.NewClientOpts(8*time.Second, func(pc *past.PeerConfig) {
		pc.JoinTimeout = 2 * time.Second
		pc.FailTimeout = 1500 * time.Millisecond
		pc.Storage.LookupRetries = 4
		pc.Storage.RetryBackoff = 150 * time.Millisecond
		pc.Storage.InsertResends = 3
	})
	if err != nil {
		t.Fatalf("NewClientOpts: %v", err)
	}
	defer client.Close()

	fileIDs := make([]past.FileID, len(spec.Items))
	insert := func(i int) {
		t.Helper()
		it := spec.Items[i]
		res, err := client.InsertSalted(card, it.Name, it.Data, spec.K, it.Salt)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		fileIDs[i] = res.FileID
	}
	for i := 0; i < 8; i++ {
		insert(i)
	}

	// Rolling storm: victims 1..3, one at a time. Each outage overlaps an
	// insert (exercising eviction + re-routing), then the victim comes
	// back on the same port and data dir and must re-verify its files.
	for round, victim := range []int{1, 2, 3} {
		if err := rc.Nodes[victim].Kill(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(700 * time.Millisecond)
		insert(8 + round)
		if err := rc.Nodes[victim].Restart(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rc.Nodes[victim].WaitRecovered(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Nodes[victim].WaitLine("joined network", 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Recovery invariants: every file on >= k distinct disks, nothing
	// quarantined, every byte readable.
	deadline := time.Now().Add(45 * time.Second)
	for {
		holders, err := DiskHolders(rc.DataDirs())
		if err != nil {
			t.Fatal(err)
		}
		under := 0
		for i := range spec.Items {
			distinct := make(map[string]bool)
			for _, h := range holders[fileIDs[i].String()] {
				distinct[h] = true
			}
			if len(distinct) < spec.K {
				under++
			}
		}
		if under == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d files under-replicated after crash storm:\n%v", under, holders)
		}
		time.Sleep(200 * time.Millisecond)
	}
	corrupt, err := CorruptEntries(rc.DataDirs())
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) > 0 {
		t.Fatalf("quarantined entries after crash storm: %v", corrupt)
	}
	for i := range spec.Items {
		res, err := client.Lookup(fileIDs[i])
		if err != nil {
			t.Fatalf("post-storm lookup %d: %v", i, err)
		}
		if string(res.Data) != string(spec.Items[i].Data) {
			t.Fatalf("post-storm lookup %d returned wrong bytes", i)
		}
	}
}

// TestRebootstrapAfterOutage starts a daemon whose entire seed list is
// unreachable: it must cycle the list with capped backoff forever instead
// of dying, join as soon as a seed finally appears, and on SIGTERM flush
// its telemetry rings in a final operator snapshot.
func TestRebootstrapAfterOutage(t *testing.T) {
	addrs, err := ReserveAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	deadSeed, lateSeed := addrs[0], addrs[1]
	dir := clusterDir(t)
	common := []string{
		"-broker-seed", "det:77",
		"-capacity", "1048576",
		"-k", "2",
		"-keepalive", "500ms",
		"-join-timeout", "1s",
		"-status", "300ms",
	}
	node, err := StartProc(pastnodeBin, append([]string{
		"-listen", "127.0.0.1:0",
		"-id-seed", "101",
		"-join", deadSeed + "," + lateSeed,
		"-telemetry", "127.0.0.1:0",
		"-telemetry-window", "500ms",
	}, common...), filepath.Join(dir, "orphan.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Stop(5 * time.Second) //nolint:errcheck // teardown
		if t.Failed() {
			dumpDirLogs(t, dir)
		}
	})
	if err := node.WaitListening(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Let it burn through several full seed-list cycles with nothing
	// listening — the daemon must stay alive and keep retrying.
	time.Sleep(3 * time.Second)
	if _, err := node.WaitLine("joined network", time.Millisecond); err == nil {
		t.Fatal("node claims to have joined while every seed was down")
	}

	seed, err := StartProc(pastnodeBin, append([]string{
		"-listen", lateSeed,
		"-id-seed", "102",
		"-bootstrap",
	}, common...), filepath.Join(dir, "seed.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seed.Stop(5 * time.Second) }) //nolint:errcheck // teardown
	if _, err := seed.WaitLine("bootstrapped", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The join loop's passes rotate through the list and reach the late
	// seed within its capped backoff (15s ceiling).
	if _, err := node.WaitLine("joined network", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// A few windows with nothing left to retry.
	time.Sleep(2 * time.Second)

	// Graceful SIGTERM flushes the telemetry rings and prints the final
	// operator snapshot: disk, then every series in line protocol.
	if err := node.Stop(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := node.WaitLine("final telemetry snapshot", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(node.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := string(log)[strings.LastIndex(string(log), "final telemetry snapshot"):]
	var dump strings.Builder
	for _, line := range strings.Split(snapshot, "\n")[1:] {
		if !strings.HasPrefix(line, "pastnode: ") {
			dump.WriteString(line + "\n")
		}
	}
	points, err := telemetry.ParseLP(strings.NewReader(dump.String()))
	if err != nil {
		t.Fatalf("final snapshot is not line protocol: %v", err)
	}
	// The daemon exports what it counts: the transport counters are a
	// series, not a hand-formatted line.
	var transport []telemetry.LPPoint
	known := map[int64]float64{}
	for _, p := range points {
		switch p.Name {
		case "transport":
			transport = append(transport, p)
		case "known_peers":
			known[p.TS] = p.Fields["value"]
		}
	}
	if len(transport) < 4 || len(known) == 0 {
		t.Fatalf("final snapshot lacks series: %d transport, %d known_peers points\n%s", len(transport), len(known), dump.String())
	}
	for _, f := range []string{"dials", "dial_failures", "suppressed", "breaker_opens", "queue_drops", "decode_errors", "oversize"} {
		if _, ok := transport[0].Fields[f]; !ok {
			t.Fatalf("transport point %v lacks %s", transport[0].Fields, f)
		}
	}
	// transport counts per window: dial_failures climbs while the orphan
	// burns its dead seeds and falls back to zero once it has joined. A
	// cumulative series would never fall.
	sort.Slice(transport, func(i, j int) bool { return transport[i].TS < transport[j].TS })
	var before, after float64
	joinedWindows := 0
	for _, p := range transport {
		failures := p.Fields["dial_failures"]
		if known[p.TS] == 0 {
			before += failures
			continue
		}
		// The window the join lands in may still hold the last pass's
		// dial to the dead seed.
		if joinedWindows++; joinedWindows > 1 {
			after += failures
		}
	}
	if before == 0 || joinedWindows < 3 || after != 0 {
		var series []string
		for _, p := range transport {
			series = append(series, fmt.Sprintf("%v/%v", p.Fields["dial_failures"], known[p.TS]))
		}
		t.Fatalf("dial_failures/known_peers per window %v: want failures before the join and none in the windows after it", series)
	}
}
