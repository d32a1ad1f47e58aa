package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"past"
	"past/internal/id"
	"past/internal/seccrypt"
	"past/internal/storage"
)

// pastnodeBin and pastctlBin are built once for the whole package
// (TestMain) and shared by every multi-process test.
var pastnodeBin, pastctlBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pastnode-bin-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	if pastnodeBin, err = BuildCmd(dir, "pastnode"); err == nil {
		pastctlBin, err = BuildCmd(dir, "pastctl")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// clusterDir picks where a test cluster's logs and data dirs live. With
// HARNESS_LOG_DIR set (CI does this) they land under it, outliving the
// test so a failed run can upload them as an artifact; otherwise a
// per-test temp dir that vanishes with the test.
func clusterDir(t *testing.T) string {
	t.Helper()
	if base := os.Getenv("HARNESS_LOG_DIR"); base != "" {
		dir := filepath.Join(base, t.Name())
		if err := os.MkdirAll(dir, 0o755); err == nil {
			return dir
		}
	}
	return t.TempDir()
}

// startCluster boots a real cluster for spec and registers teardown plus
// log dumping on failure.
func startCluster(t *testing.T, spec *Spec) *RealCluster {
	t.Helper()
	rc, err := StartRealCluster(pastnodeBin, clusterDir(t), spec, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("StartRealCluster: %v", err)
	}
	t.Cleanup(func() {
		rc.StopAll()
		if t.Failed() {
			t.Logf("node logs:\n%s", rc.CollectLogs())
		}
	})
	return rc
}

// TestSimDeterministic pins the simulator side of the conformance
// comparison: two runs of the same spec must agree bit-for-bit, deliver
// everything, and hold the k-replica invariant.
func TestSimDeterministic(t *testing.T) {
	spec := NewSpec(42, 5, 3, 10)
	out1, holders1, err := RunSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	out2, holders2, err := RunSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Delivered != len(spec.Items) {
		t.Fatalf("delivered %d/%d", out1.Delivered, len(spec.Items))
	}
	if out1.Lookups != len(spec.Items) {
		t.Fatalf("lookups %d/%d", out1.Lookups, len(spec.Items))
	}
	if !reflect.DeepEqual(out1, out2) || !reflect.DeepEqual(holders1, holders2) {
		t.Fatal("simulator not deterministic across identical runs")
	}
	if err := CheckKReplica(holders1, spec.K); err != nil {
		t.Fatal(err)
	}
	// Receipts and stores must agree with each other inside the sim too.
	if !reflect.DeepEqual(out1.Placement, holders1) {
		t.Fatalf("receipt placement %v != store holders %v", out1.Placement, holders1)
	}
}

// hopTolerance is the stated tolerance on mean lookup hops between the
// simulator and the real cluster. Placement is proximity-independent and
// must match exactly, but the hop a lookup takes depends on the
// proximity metric (topology distance in sim, measured RTT on loopback),
// which legitimately differs — so hops get a tolerance while everything
// else is compared exactly.
const hopTolerance = 1.5

// TestConformance is the tentpole assertion: a 5-node real-socket
// cluster under seed 42 runs the E1-equivalent deterministic workload
// and must match the simulator on delivery count, per-fileId replica
// placement, lookup count, and the k-replica invariant, with mean hops
// within hopTolerance.
func TestConformance(t *testing.T) {
	spec := NewSpec(42, 5, 3, 12)
	sim, simHolders, err := RunSim(spec)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if sim.Delivered != len(spec.Items) {
		t.Fatalf("simulator delivered %d/%d; spec is not a clean baseline", sim.Delivered, len(spec.Items))
	}
	if err := CheckKReplica(simHolders, spec.K); err != nil {
		t.Fatalf("sim: %v", err)
	}

	rc := startCluster(t, spec)
	real, err := RunReal(rc)
	if err != nil {
		t.Fatalf("RunReal: %v", err)
	}
	if err := Compare(sim, real, hopTolerance); err != nil {
		t.Fatal(err)
	}
	// The real cluster's disks are the ground truth for the k-replica
	// invariant: every file sits on exactly k distinct nodes, and the
	// on-disk holders are exactly the receipt-attested ones.
	diskHolders, err := DiskHolders(rc.DataDirs())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckKReplica(diskHolders, spec.K); err != nil {
		t.Fatalf("real: %v", err)
	}
	if !reflect.DeepEqual(real.Placement, diskHolders) {
		t.Fatalf("receipts vs disks disagree:\nreceipts: %v\ndisks:    %v", real.Placement, diskHolders)
	}
	t.Logf("conformance: %d files, sim hops %.2f vs real hops %.2f", len(spec.Items), sim.MeanHops(), real.MeanHops())
}

// TestCrashRecovery SIGKILLs a replica holder mid-insert-stream,
// restarts it on the same port and data dir, and asserts (a) it
// re-verifies and serves its on-disk files ("recovered N files", zero
// quarantined), and (b) the k-replica invariant recovers across the
// cluster for every file inserted before and during the outage.
func TestCrashRecovery(t *testing.T) {
	spec := NewSpec(43, 5, 3, 10)
	rc := startCluster(t, spec)
	// Short op timeout: a mid-outage insert waits one RequestTimeout on
	// the dead replica holder before its file-diversion retry, and by
	// then failure detection (failtimeout 1.5s) has evicted it.
	client, card, err := rc.NewClient(6 * time.Second)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()

	insert := func(i int) (past.FileID, bool) {
		it := spec.Items[i]
		res, err := client.InsertSalted(card, it.Name, it.Data, spec.K, it.Salt)
		if err != nil {
			return past.FileID{}, false
		}
		return res.FileID, true
	}

	var files []past.FileID
	for i := 0; i < 5; i++ {
		f, ok := insert(i)
		if !ok {
			t.Fatalf("pre-crash insert %d failed", i)
		}
		files = append(files, f)
	}

	// Kill the node holding the most replicas, mid-stream.
	dirs := rc.DataDirs()
	victim, preCrash := 0, -1
	for i, p := range rc.Nodes {
		if n := len(liveFiles(t, dirs[p.NodeID()])); n > preCrash {
			victim, preCrash = i, n
		}
	}
	if preCrash == 0 {
		t.Fatal("victim holds nothing; workload too small")
	}
	if err := rc.Nodes[victim].Kill(); err != nil {
		t.Fatal(err)
	}

	// Keep inserting through the outage: these exercise timeout, failure
	// detection, and re-routing, and must still reach k receipts once the
	// dead node is evicted.
	for i := 5; i < 10; i++ {
		f, ok := insert(i)
		if !ok {
			t.Fatalf("mid-outage insert %d failed (failure detection should have evicted the dead node)", i)
		}
		files = append(files, f)
	}

	// Restart on the same port and data dir: the daemon must re-verify
	// its files (none corrupt → none quarantined) and rejoin.
	if err := rc.Nodes[victim].Restart(); err != nil {
		t.Fatal(err)
	}
	recovered, quarantined, err := rc.Nodes[victim].WaitRecovered(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != preCrash || quarantined != 0 {
		t.Fatalf("recovered %d files (%d quarantined), want %d (0)", recovered, quarantined, preCrash)
	}
	if _, err := rc.Nodes[victim].WaitLine("joined network", 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// The invariant recovers: every file ends up on >= k distinct disks
	// (re-replication during the outage plus the restarted node's
	// recovered copies can transiently leave more than k).
	deadline := time.Now().Add(60 * time.Second)
	for {
		holders, err := DiskHolders(rc.DataDirs())
		if err != nil {
			t.Fatal(err)
		}
		under := 0
		for _, f := range files {
			if len(holders[f.String()]) < spec.K {
				under++
			}
		}
		if under == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d files still under-replicated after recovery window:\n%v", under, holders)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// liveFiles is what dir's log replays to.
func liveFiles(t *testing.T, dir string) []id.File {
	t.Helper()
	files, _, err := storage.LiveFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestE2ERoundTrip is the client round-trip against a 5-process
// cluster: insert → lookup (content-verified) → reclaim → lookup fails
// and no node's log replays to a record of the file, through the library;
// then insert → get through the pastctl binary. CI runs it under -race
// with a wall-clock timeout.
func TestE2ERoundTrip(t *testing.T) {
	spec := NewSpec(44, 5, 3, 1)
	rc := startCluster(t, spec)
	// Short op timeout: the post-reclaim lookup resolves by timing out.
	client, card, err := rc.NewClient(6 * time.Second)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()

	it := spec.Items[0]
	ins, err := client.InsertSalted(card, it.Name, it.Data, spec.K, it.Salt)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if len(ins.Receipts) != spec.K {
		t.Fatalf("insert got %d receipts, want %d", len(ins.Receipts), spec.K)
	}

	got, err := client.Lookup(ins.FileID)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if string(got.Data) != string(it.Data) {
		t.Fatal("lookup returned different bytes than inserted")
	}

	rec, err := client.Reclaim(card, ins.FileID)
	if err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if rec.Freed == 0 || len(rec.Receipts) == 0 {
		t.Fatalf("reclaim freed %d bytes with %d receipts", rec.Freed, len(rec.Receipts))
	}

	if _, err := client.Lookup(ins.FileID); err == nil {
		t.Fatal("lookup succeeded after reclaim")
	} else if !errors.Is(err, past.ErrNotFound) && !errors.Is(err, past.ErrTimeout) {
		t.Fatalf("post-reclaim lookup: unexpected error %v", err)
	}

	// No node's log may replay to a record of the file (weak reclaim
	// still reaches the whole replica set here; poll for the tombstones
	// to land). The bytes themselves stay in each log until a compaction:
	// PAST's reclaim frees space, it does not promise erasure.
	deadline := time.Now().Add(30 * time.Second)
	for {
		holders, err := DiskHolders(rc.DataDirs())
		if err != nil {
			t.Fatal(err)
		}
		if len(holders[ins.FileID.String()]) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("file still on %d disks after reclaim", len(holders[ins.FileID.String()]))
		}
		time.Sleep(100 * time.Millisecond)
	}

	pastctlRoundTrip(t, rc, it.Data)
}

// pastctlRoundTrip drives the pastctl binary: insert, then get, two
// processes back to back under one card, so the second joins under the
// nodeId the first abandoned a moment ago while every peer still lists
// the first. (Reclaim stays with the library leg: it always waits out the
// whole RequestTimeout.)
func pastctlRoundTrip(t *testing.T, rc *RealCluster, data []byte) {
	dir := t.TempDir()
	src, out, cardPath := filepath.Join(dir, "report.bin"), filepath.Join(dir, "out.bin"), filepath.Join(dir, "me.card")
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pastctl := func(args ...string) (string, error) {
		args = append([]string{"-join", rc.Nodes[0].Addr(), "-broker-seed", rc.BrokerSeed(), "-card", cardPath}, args...)
		start := time.Now()
		b, err := exec.Command(pastctlBin, args...).CombinedOutput()
		if err != nil {
			err = fmt.Errorf("pastctl %v after %v: %w", args, time.Since(start).Round(time.Millisecond), err)
		}
		return string(b), err
	}
	insOut, err := pastctl("insert", src)
	if err != nil {
		t.Fatalf("%v\n%s", err, insOut)
	}
	m := regexp.MustCompile(`fileId: ([0-9a-f]+)`).FindStringSubmatch(insOut)
	if m == nil {
		t.Fatalf("pastctl insert printed no fileId:\n%s", insOut)
	}
	f, err := id.ParseFile(m[1])
	if err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(cardPath)
	if err != nil {
		t.Fatalf("card file after insert: %v", err)
	}
	card, err := seccrypt.ImportCard(saved)
	if err != nil {
		t.Fatalf("card file does not re-import: %v", err)
	}
	if card.RemainingQuota() >= 1<<30 {
		t.Fatalf("saved card carries no debit for the insert: %d bytes left", card.RemainingQuota())
	}

	getOut, err := pastctl("-o", out, "get", m[1])
	if err != nil && rootedAt(t, rc, f, card.NodeID()) && strings.Contains(getOut, past.ErrNotFound.Error()) {
		// A client is an overlay node, and when its nodeId is the closest
		// to the fileId it is the file's root: it diverts its replica and
		// keeps only a pointer. A daemon's pointers are in its data dir's
		// log, but a pastctl client has no data dir, so the pointer dies
		// with the process and the next process's lookup misses at its own
		// root (ROADMAP 6(d)). The join under test still went through — the
		// lookup ran and was answered — so this is that gap, not a failure.
		t.Logf("fileId %s is rooted at the pastctl client itself: %s", m[1], strings.TrimSpace(getOut))
		return
	}
	if err != nil {
		t.Fatalf("%v\n%s", err, getOut)
	}
	if b, err := os.ReadFile(out); err != nil || !bytes.Equal(b, data) {
		t.Fatalf("pastctl get wrote %d bytes (err %v), inserted %d", len(b), err, len(data))
	}
}

// rootedAt reports whether client is numerically closer to f than every
// storage node of rc.
func rootedAt(t *testing.T, rc *RealCluster, f id.File, client id.Node) bool {
	t.Helper()
	for _, p := range rc.Nodes {
		n, err := id.ParseNode(p.NodeID())
		if err != nil {
			t.Fatal(err)
		}
		if id.Closer(f.Key(), n, client) {
			return false
		}
	}
	return true
}
