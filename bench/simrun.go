package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"syscall"
	"time"

	"past"
	"past/internal/experiments"
)

const (
	// quietNodes is the network the simulated inserts and lookups run on:
	// the historic Insert4KiB / Lookup4KiB shape, no keep-alives, so an op's
	// wall time is the op's own events and crypto.
	quietNodes = 64
	// liveNodes, liveKeepAlive and liveFailTimeout are E15's full-scale
	// network: keep-alive failure detection, leaf-set repair and replica
	// maintenance run whenever virtual time advances.
	liveNodes       = 200
	liveKeepAlive   = 500 * time.Millisecond
	liveFailTimeout = 1500 * time.Millisecond
	liveFiles       = 100
	// churnSlice is the virtual time one timed slice advances the live
	// network: about 250 events, a third of a millisecond of wall time. The
	// sandbox's neighbours preempt a vCPU every few milliseconds; a sample
	// this short is usually not hit, so the median over thousands of slices
	// holds where the total over a window doubles.
	churnSlice = 10 * time.Millisecond
)

// minSimSuccess is the lowest lookup success a row of the E15 table may
// show. Half of E15's departures are silent crashes, so some lookups fail
// by design: over seeds 1-150 the lowest row at small scale is 0.625, over
// seeds 1-12 at full scale 0.857. The gate catches a simulator that loses
// most lookups, not one that loses a few more.
const minSimSuccess = 0.5

// simTarget drives a simulated network through entry nodes drawn from rng.
type simTarget struct {
	nw  *past.Network
	rng *rand.Rand
}

func (t simTarget) insert(name string, data []byte) (past.InsertResult, error) {
	return t.nw.Insert(t.rng.Intn(t.nw.Len()), nil, name, data, replicas)
}

func (t simTarget) lookup(f past.FileID) (past.LookupResult, error) {
	return t.nw.Lookup(t.rng.Intn(t.nw.Len()), f)
}

// runSim drives the simulator workload: inserts and lookups on a quiet
// simulated network, crash/restart churn on a live one, and E15 as the
// reference for determinism and availability. One generator: a simulated
// network is single-threaded.
func runSim(cfg runConfig) (*runResult, error) {
	res := &runResult{layer: map[string]float64{}}
	var quiet, live *loadgen
	var liveNet *past.Network
	var wallS []float64
	for i := 0; i < cfg.setups; i++ {
		// Set-up time is the builds and the first keep-alive rounds plus the
		// preloads at their typical pace, see loadgen.preload. The builds
		// and the rounds are single-threaded and never wait, so what they
		// take undisturbed is their CPU time; their wall time is one sum
		// each and triples when a vCPU is held up.
		t0 := time.Now()
		boot := cfg.speed.open(phBoot)
		qn, err := past.NewNetwork(past.NetworkConfig{N: quietNodes, Seed: identitySeed})
		if err != nil {
			return nil, err
		}
		liveNet, err = past.NewNetwork(past.NetworkConfig{N: liveNodes, Seed: identitySeed, KeepAlive: liveKeepAlive, FailTimeout: liveFailTimeout})
		if err != nil {
			return nil, err
		}
		cfg.speed.close(boot, true)
		build := cfg.speed.blocks[boot].proc.cpu().Seconds() * cfg.speed.blocks[boot].cpuScale()
		quiet = newLoadgen(cfg, []target{simTarget{qn, rand.New(rand.NewSource(cfg.seed*13 + 1))}})
		typical := quiet.preload()
		lcfg := cfg
		lcfg.spec.preload = min(liveFiles, cfg.spec.preload) // fewer under -quick
		live = newLoadgen(lcfg, []target{simTarget{liveNet, rand.New(rand.NewSource(cfg.seed*13 + 2))}})
		typical += live.preload()
		rounds := cfg.speed.open(phBoot)
		liveNet.RunFor(liveFailTimeout) // the first keep-alive rounds
		cfg.speed.close(rounds, true)
		res.setupS = append(res.setupS, build+typical+cfg.speed.blocks[rounds].proc.cpu().Seconds()*cfg.speed.blocks[rounds].cpuScale())
		wallS = append(wallS, time.Since(t0).Seconds())
		if i == cfg.setups-1 {
			_, res.userBytes = quiet.userBytes()
			res.storedBytes = int64(qn.Utilization()*float64(quietNodes)*float64(past.DefaultStorageConfig().Capacity) + 0.5)
		}
	}

	// A fifth of the budget for the ops, the rest for the churn.
	w := quiet.run(cfg, cfg.window/5)
	maxRounds := 0
	if cfg.quick {
		maxRounds = 2
	}
	ch := churn(liveNet, cfg.speed, cfg.seed, cfg.window-cfg.window/5, maxRounds)
	live.drive(phVerify, untimed, liveFiles, live.verifyOp)
	res.windows, res.blocks = w, cfg.speed.blocks
	// On this workload an op of the window is one simulated event.
	res.costOps = float64(ch.events)
	res.costed = sumBlocks(res.blocks, phChurn)
	res.cpuMsPerOp = median(ch.refNsPerEvent) / 1e6
	res.records = quiet.allRecords()
	for _, r := range live.allRecords() {
		res.attempted++
		if !r.ok {
			res.failed++
		}
	}

	t0 := time.Now()
	if err := e15Gate(cfg, res); err != nil {
		return nil, err
	}
	res.layer["facade.setup_wall_s"] = median(wallS)
	res.layer["sim.churn_rounds"] = float64(ch.rounds)
	res.layer["sim.events_s"] = ratio(float64(ch.events), res.costed.wall.Seconds())
	res.layer["sim.events_per_virtual_s"] = ratio(float64(ch.events), ch.virtual.Seconds())
	res.phases = fmt.Sprintf("set-up x%d %.1fs, warm-up %.1fs, ops window %.1fs, traced window %.1fs, verify %.1fs, churn %.1fs (%d rounds, %d slices), E15 %.1fs",
		len(wallS), sumOf(wallS), w.warmupS, w.windowWall.Seconds(), w.tracedWall.Seconds(), w.verifyS, ch.wall.Seconds(), ch.rounds, len(ch.refNsPerEvent), time.Since(t0).Seconds())
	return res, nil
}

// churnStats is what the churn window measured.
type churnStats struct {
	refNsPerEvent []float64 // one per slice: process CPU per event at the reference speed
	events        uint64
	rounds        int
	wall, virtual time.Duration // wall: readings of the speed probe included
}

// churn crashes a seeded node of the live network, lets failure detection,
// leaf-set repair and re-replication run for 2 virtual seconds, restarts
// the node and lets it rejoin for 1, round after round until d has passed
// (or maxRounds rounds, when > 0). Virtual time advances in slices of
// churnSlice, each timed on the process CPU clock, in blocks of blockLen
// of wall time between two readings of the speed probe.
func churn(nw *past.Network, speed *speedometer, seed int64, d time.Duration, maxRounds int) churnStats {
	var st churnStats
	rng := rand.New(rand.NewSource(seed*17 + 3))
	b := speed.open(phChurn)
	var slices []float64 // of the open block: CPU ns per event as timed
	closeBlock := func() {
		speed.close(b, true)
		for _, v := range slices {
			st.refNsPerEvent = append(st.refNsPerEvent, v*speed.blocks[b].scale())
		}
		slices = slices[:0]
	}
	advance := func(virtual time.Duration) {
		for v := time.Duration(0); v < virtual; v += churnSlice {
			if time.Since(speed.blocks[b].start) >= blockLen {
				closeBlock()
				b = speed.open(phChurn)
			}
			m0, c0 := nw.Messages(), cpuNow()
			nw.RunFor(churnSlice)
			c, ev := cpuNow()-c0, nw.Messages()-m0
			if ev > 0 {
				slices = append(slices, float64(c)/float64(ev))
			}
			st.events += ev
			st.virtual += churnSlice
		}
	}
	t0 := time.Now()
	for time.Since(t0) < d && (maxRounds <= 0 || st.rounds < maxRounds) {
		victim := rng.Intn(nw.Len())
		nw.Crash(victim)
		advance(2 * time.Second)
		nw.Restart(victim)
		advance(time.Second)
		st.rounds++
	}
	closeBlock()
	st.wall = time.Since(t0)
	return st
}

// cpuNow is the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e15Gate runs experiments.Run("E15") at small scale twice on the run's
// seed, at one shard and at the default shard count: the simulator is
// deterministic, so both must deliver the same events and print the same
// table, and every row must keep lookup success >= minSimSuccess. A traced
// run adds one run at full scale for the per-layer figures. E15's own times
// are not gated: each is one CPU-bound sample of 0.4 to 10 s, and on this
// sandbox such a sample moves by half with the neighbours' load.
func e15Gate(cfg runConfig, res *runResult) error {
	defaultShards := experiments.Shards
	defer func() { experiments.Shards = defaultShards }()
	var first experiments.Result
	for i, shards := range []int{1, defaultShards} {
		experiments.Shards = shards
		t0 := time.Now()
		r, err := experiments.Run("E15", experiments.Small, cfg.seed)
		if err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		if i == 0 {
			first = r
			res.layer["sim.e15_wall_s.shards1"] = wall
			res.layer["sim.e15_events"] = float64(r.Events)
			continue
		}
		res.layer["sim.e15_wall_s.default_shards"] = wall
		if r.Events != first.Events || r.Table.String() != first.Table.String() {
			res.problem("E15 seed %d delivered %d events at 1 shard and %d at %d, or another table: the simulator is not deterministic", cfg.seed, first.Events, r.Events, shards)
		}
	}
	// Table columns: arrivals/min, arrived, departed, live at end, lookups,
	// success, avg hops.
	lookups, failed := 0, 0
	for _, row := range first.Table.Rows {
		n, err1 := strconv.Atoi(row[4])
		success, err2 := strconv.ParseFloat(row[5], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("E15 table row %v: unexpected shape", row)
		}
		res.attempted++
		lookups += n
		failed += n - int(success*float64(n)+0.5)
		if success < minSimSuccess {
			res.failed++
			res.problem("E15 seed %d: lookup success %.3f below %.2f at %s arrivals/min", cfg.seed, success, minSimSuccess, row[0])
		}
	}
	res.layer["sim.e15_failed_lookup_frac"] = ratio(float64(failed), float64(lookups))
	if cfg.traced && !cfg.quick {
		experiments.Shards = 1
		t0 := time.Now()
		r, err := experiments.Run("E15", experiments.Full, cfg.seed)
		if err != nil {
			return err
		}
		res.layer["sim.e15_full_wall_s"] = time.Since(t0).Seconds()
		res.layer["sim.e15_full_events_s"] = ratio(float64(r.Events), time.Since(t0).Seconds())
	}
	return nil
}
