package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"past"
	"past/internal/chaos"
	"past/internal/storage"
)

// Partition+heal scenario parameters.
const (
	phSeed      = 42
	phNodes     = 7
	phK         = 3
	phPreFiles  = 6
	phMidFiles  = 4
	phPartition = 10 * time.Second
)

// PartitionHealReport is the structured outcome of RunPartitionHeal.
type PartitionHealReport struct {
	// Files is the total number of files inserted (before + during the
	// partition); every one had >= phK distinct disk replicas at the end.
	Files int
	// MajorityServed counts the pre-fault files that stayed readable from
	// the majority side mid-partition (all files with at least one replica
	// on a majority disk must).
	MajorityServed int
	// HealToInvariant is how long after Heal the cluster took to converge
	// every file back to >= k disk replicas with full membership.
	HealToInvariant time.Duration
	// KnownPeers is a majority node's known_peers telemetry series: full
	// membership, the partition dip, and the recovery.
	KnownPeers []float64
}

// chaosExtraArgs are the daemon knobs every chaos scenario switches on:
// route through the proxy, fast failure detection, seed cycling with a
// short join bound, the dial circuit breaker, and a telemetry port to
// scrape. (The replica-repair sweep needs no switch: it rides the
// keep-alive tick at nodeArgs' -anti-entropy period.)
func chaosExtraArgs(proxyAddr string, failTimeout time.Duration) []string {
	return []string{
		"-dial-via", proxyAddr,
		"-failtimeout", failTimeout.String(),
		"-join-timeout", "2s",
		"-breaker-threshold", "3",
		"-breaker-cooldown", "500ms",
		"-breaker-max-cooldown", "2s",
		"-telemetry", "127.0.0.1:0",
		"-telemetry-window", "1s",
	}
}

// CorruptEntries names what is corrupt in pastnode data directories: a
// quarantine file a boot wrote, and a log whose read-only replay finds
// corrupt records mid-log. The post-chaos corruption check expects none.
func CorruptEntries(dirs map[string]string) ([]string, error) {
	var out []string
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".corrupt") {
				out = append(out, filepath.Join(dir, e.Name()))
			}
		}
		_, rep, err := storage.LiveFiles(dir)
		if err != nil {
			return nil, err
		}
		if rep.Quarantined > 0 {
			out = append(out, fmt.Sprintf("%s: %d corrupt records in the log", dir, rep.Quarantined))
		}
	}
	return out, nil
}

// RunPartitionHeal runs the flagship chaos scenario against a real
// 7-process cluster dialing through the fault proxy: split 4/3 for 10
// seconds while inserting, assert the majority side keeps serving, heal,
// and assert the self-healing daemons converge every file back to >= k
// disk replicas with no corruption and no operator action. It returns an
// error naming the first violated invariant. logf receives progress
// lines.
func RunPartitionHeal(bin, dir string, logf func(format string, args ...any)) (*PartitionHealReport, error) {
	t0 := time.Now()
	prog := func(format string, args ...any) {
		logf("[%6.1fs] "+format, append([]any{time.Since(t0).Seconds()}, args...)...)
	}
	spec := NewSpec(phSeed, phNodes, phK, phPreFiles+phMidFiles)
	proxy, err := chaos.New(chaos.Schedule{Seed: phSeed})
	if err != nil {
		return nil, err
	}
	defer proxy.Close()

	rc, err := StartRealClusterOpts(bin, dir, spec, ClusterOptions{
		KeepAlive: 500 * time.Millisecond,
		ExtraArgs: chaosExtraArgs(proxy.Addr(), 1500*time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	defer rc.StopAll()
	client, card, err := rc.NewClientOpts(8*time.Second, func(pc *past.PeerConfig) {
		pc.DialVia = proxy.Addr()
		pc.JoinTimeout = 2 * time.Second
		pc.FailTimeout = 1500 * time.Millisecond
		// The breaker doubles as the client's reachability oracle: without
		// it a diversion pointer to a partitioned holder would black-hole
		// lookup attempts (the fetch is fire-and-forget).
		pc.Breaker = past.BreakerOptions{Threshold: 3, Cooldown: 500 * time.Millisecond, MaxCooldown: 2 * time.Second}
		pc.Storage.LookupRetries = 4
		pc.Storage.RetryBackoff = 150 * time.Millisecond
		pc.Storage.InsertResends = 3
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: client: %w", err)
	}
	defer client.Close()

	rep := &PartitionHealReport{Files: len(spec.Items)}
	fileIDs := make([]past.FileID, len(spec.Items))
	insert := func(i int) error {
		it := spec.Items[i]
		start := time.Now()
		res, err := client.InsertSalted(card, it.Name, it.Data, spec.K, it.Salt)
		prog("insert %d: %v (err=%v)", i, time.Since(start).Round(time.Millisecond), err)
		if err != nil {
			return fmt.Errorf("chaos: insert %d: %w", i, err)
		}
		fileIDs[i] = res.FileID
		return nil
	}
	for i := 0; i < phPreFiles; i++ {
		if err := insert(i); err != nil {
			return nil, err
		}
	}
	prog("chaos: %d pre-fault files inserted", phPreFiles)

	// Ground truth before the split: which files hold at least one replica
	// on a majority disk. Those must stay readable mid-partition; files
	// entirely on minority disks legitimately cannot be served until heal.
	preHolders, err := DiskHolders(rc.DataDirs())
	if err != nil {
		return nil, err
	}
	majorityNodes := make(map[string]bool)
	var majorityAddrs, minorityAddrs []string
	for i, p := range rc.Nodes {
		if i < 4 {
			majorityNodes[p.NodeID()] = true
			majorityAddrs = append(majorityAddrs, p.Addr())
		} else {
			minorityAddrs = append(minorityAddrs, p.Addr())
		}
	}
	majorityAddrs = append(majorityAddrs, client.Addr())
	var majorityFiles []int
	for i := 0; i < phPreFiles; i++ {
		for _, h := range preHolders[fileIDs[i].String()] {
			if majorityNodes[h] {
				majorityFiles = append(majorityFiles, i)
				break
			}
		}
	}
	if len(majorityFiles) == 0 {
		return nil, fmt.Errorf("chaos: no pre-fault file has a majority replica; scenario degenerate")
	}

	proxy.Partition(majorityAddrs, minorityAddrs)
	partitionStart := time.Now()
	prog("chaos: partitioned 4+client / 3 for %v", phPartition)

	// Let failure detection evict the unreachable side, then keep
	// operating from the majority: fresh inserts must still gather k
	// receipts, and every file with a majority replica must still read.
	time.Sleep(3 * time.Second)
	for i := phPreFiles; i < phPreFiles+phMidFiles; i++ {
		if err := insert(i); err != nil {
			return nil, fmt.Errorf("majority-side %w", err)
		}
	}
	for _, i := range majorityFiles {
		start := time.Now()
		res, err := client.Lookup(fileIDs[i])
		prog("lookup %d: %v (err=%v)", i, time.Since(start).Round(time.Millisecond), err)
		if err != nil {
			return nil, fmt.Errorf("chaos: mid-partition lookup of majority file %d: %w", i, err)
		}
		if string(res.Data) != string(spec.Items[i].Data) {
			return nil, fmt.Errorf("chaos: mid-partition lookup of file %d returned wrong bytes", i)
		}
		rep.MajorityServed++
	}
	prog("chaos: majority side served %d inserts and %d reads mid-partition", phMidFiles, rep.MajorityServed)

	if wait := phPartition - time.Since(partitionStart); wait > 0 {
		time.Sleep(wait)
	}
	proxy.Heal()
	healAt := time.Now()
	prog("chaos: healed")

	// Self-healing: the minority re-anchors through its seed (membership
	// high-water trigger), membership reconverges, and the periodic
	// anti-entropy sweep restores every file to >= k disks. No operator
	// action.
	deadline := healAt.Add(45 * time.Second)
	for {
		holders, err := DiskHolders(rc.DataDirs())
		if err != nil {
			return nil, err
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
		if under == 0 && rc.WaitConverged(phNodes, time.Millisecond) == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("chaos: %d files under-replicated %v after heal:\n%v", under, time.Since(healAt), holders)
		}
		time.Sleep(200 * time.Millisecond)
	}
	rep.HealToInvariant = time.Since(healAt)
	prog("chaos: k-replica invariant restored %v after heal", rep.HealToInvariant.Round(100*time.Millisecond))

	// Every file — including those marooned on the minority during the
	// split — reads back correct bytes, and nothing got quarantined.
	for i := range spec.Items {
		res, err := client.Lookup(fileIDs[i])
		if err != nil {
			return nil, fmt.Errorf("chaos: post-heal lookup %d: %w", i, err)
		}
		if string(res.Data) != string(spec.Items[i].Data) {
			return nil, fmt.Errorf("chaos: post-heal lookup %d returned wrong bytes", i)
		}
	}
	corrupt, err := CorruptEntries(rc.DataDirs())
	if err != nil {
		return nil, err
	}
	if len(corrupt) > 0 {
		return nil, fmt.Errorf("chaos: quarantined entries after heal: %v", corrupt)
	}

	// Telemetry: a majority node's known_peers series must show full
	// membership, the dip, and the recovery. The gauge flushes in 1s
	// windows, so poll until the recovery point lands in the ring.
	telAddr, err := rc.Nodes[0].TelemetryAddr(5 * time.Second)
	if err != nil {
		return nil, err
	}
	telDeadline := time.Now().Add(15 * time.Second)
	for {
		points, err := ScrapeTelemetry(telAddr)
		if err != nil {
			return nil, fmt.Errorf("chaos: scrape %s: %w", telAddr, err)
		}
		rep.KnownPeers = GaugeValues(points, "known_peers")
		full, dipped, recoveredAfterDip := false, false, false
		for _, v := range rep.KnownPeers {
			switch {
			case !full:
				full = v >= float64(phNodes)
			case !dipped:
				dipped = v <= 4
			case !recoveredAfterDip:
				recoveredAfterDip = v >= float64(phNodes)
			}
		}
		if full && dipped && recoveredAfterDip {
			break
		}
		if time.Now().After(telDeadline) {
			return nil, fmt.Errorf("chaos: known_peers series lacks full/dip/recovery shape: %v", rep.KnownPeers)
		}
		time.Sleep(500 * time.Millisecond)
	}
	prog("chaos: known_peers series shows full membership, dip, recovery: %v", rep.KnownPeers)
	return rep, nil
}

// ctxLookupProbe asserts deadline propagation end to end: a lookup whose
// context deadline has already passed must return promptly with the
// context's error — the caller is bounded even when the network is not.
// A reply needs at least one socket round trip, so the expired context
// always wins the race.
func ctxLookupProbe(client *past.Peer, f past.FileID, bound time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	start := time.Now()
	_, err := client.LookupCtx(ctx, f)
	if !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("ctx-bounded lookup: err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > bound {
		return fmt.Errorf("ctx-bounded lookup took %v, deadline not propagated", d)
	}
	return nil
}
