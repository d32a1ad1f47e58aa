package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"past"
)

// runConfig sizes one run of one workload.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	dir     string        // parent of the data dirs
	window  time.Duration // the --seconds budget
	traced  bool          // split the window: first half plain, second half traced
	maxOps  int           // when > 0, caps each phase per generator (-quick)
	setups  int           // how many times set-up runs; the median is setup_s
	storage int           // disk-backed storage peers of the cluster
	clients int           // client peers, one load generator each
	reopens int           // at most this many restarts of every storage peer
	quick   bool
	epoch   time.Time
	speed   *speedometer // one per run: every loadgen of the run adds its blocks to it
	tracer  *tracer
	tamper  func(o op, want []byte) // tests only, see loadgen
}

// peerTarget drives a client peer of the loopback cluster.
type peerTarget struct{ p *past.Peer }

func (t peerTarget) insert(name string, data []byte) (past.InsertResult, error) {
	return t.p.Insert(nil, name, data, replicas)
}

func (t peerTarget) lookup(f past.FileID) (past.LookupResult, error) { return t.p.Lookup(f) }

// runCluster boots the loopback cluster and drives one workload on it. The
// cluster is closed and its data dirs removed on every path.
func runCluster(cfg runConfig) (*runResult, error) {
	res := &runResult{layer: map[string]float64{}}
	var c *cluster
	var lg *loadgen
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	var bootS, joinMs, preloadS, wallS []float64
	var earlier []opRecord // the set-up inserts of all but the last set-up
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			c.close()
			earlier = append(earlier, lg.allRecords()...)
			runtime.GC() // the closed cluster's heap: peak_rss_mib should not depend on when the collector gets to it
		}
		t0 := time.Now()
		boot := cfg.speed.open(phBoot)
		var err error
		c, err = bootCluster(clusterSpec{storage: cfg.storage, clients: cfg.clients, dir: filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))})
		if err != nil {
			return nil, err
		}
		bootS = append(bootS, time.Since(t0).Seconds())
		cfg.speed.close(boot, true)
		joinMs = append(joinMs, c.joinMs...)
		var targets []target
		for _, p := range c.clients {
			targets = append(targets, peerTarget{p})
		}
		lg = newLoadgen(cfg, targets)
		typical := lg.preload()
		preloadS = append(preloadS, typical)
		wallS = append(wallS, time.Since(t0).Seconds())
		// Boot and preload at their typical pace and the reference speed,
		// see typicalBootS and loadgen.preload; the wall time is
		// facade.setup_wall_s.
		res.setupS = append(res.setupS, c.typicalBootS(cfg.speed.blocks[boot].scale())+typical)
		if i == 0 {
			// On the first cluster, which holds the preload only: a peer that
			// joins a loaded cluster is sent replicas by its new neighbours,
			// and after a mixed_rw window that burst has overflowed a peer
			// queue and timed the reclaim client's own insert out.
			if err := reclaimCheck(c, cfg.seed); err != nil {
				res.problem("reclaim: %v", err)
			}
		}
	}

	w := lg.run(cfg, cfg.window)
	res.windows, res.blocks = w, cfg.speed.blocks

	// The post-window correctness checks that need the cluster: replica
	// count, bytes on disk, and recovery after restart.
	t0 := time.Now()
	files, userBytes := lg.userBytes()
	res.userBytes = userBytes
	if stored := c.storedFiles(); stored != replicas*files {
		res.problem("storage peers hold %d replicas, want k x %d inserted = %d", stored, files, replicas*files)
	}
	var err error
	if res.storedBytes, err = c.diskBytes(); err != nil {
		res.problem("walk data dirs: %v", err)
	}
	rates := restartCheck(c, cfg.reopens, res)
	gateS := time.Since(t0).Seconds()

	res.records = append(earlier, lg.allRecords()...)
	for _, r := range res.records {
		if r.phase == phWindow && r.ok {
			res.costOps++
		}
	}
	res.costed = sumBlocks(res.blocks, phWindow)
	res.cpuMsPerOp = ratio(res.costed.cpuRefMs, res.costOps)
	res.layer["facade.setup_wall_s"] = median(wallS)
	res.layer["facade.boot_s"] = median(bootS)
	res.layer["facade.join_p50_ms"] = median(joinMs)
	res.layer["facade.converge_s"] = c.convergeS
	res.layer["facade.preload_s"] = median(preloadS)
	res.layer["facade.recover_files_s"] = percentile(sortedCopy(rates), 90)
	res.layer["seccrypt.memo_hit_ratio"] = ratio(float64(w.memoHits), float64(w.memoHits+w.memoMisses))
	res.layer["proc.goroutines"] = float64(w.goroutines)
	res.phases = fmt.Sprintf("set-up x%d %.1fs, warm-up %.1fs, window %.1fs, traced window %.1fs, verify %.1fs, restart %.1fs",
		len(wallS), sumOf(wallS), w.warmupS, w.windowWall.Seconds(), w.tracedWall.Seconds(), w.verifyS, gateS)
	return res, nil
}

// reclaimCheck joins a third client whose RequestTimeout is short —
// Reclaim answers only when that window closes, which is why it is in no
// timed loop — inserts one file, reclaims it and expects k x size freed and
// the file no longer found. An insert or a reclaim whose receipts miss the
// window because the machine stalled is tried again on a new file.
func reclaimCheck(c *cluster, seed int64) error {
	idx := len(c.cards)
	if err := c.addClientCard(); err != nil {
		return err
	}
	pcfg := c.peerConfig(idx)
	pcfg.Storage.RequestTimeout = 300 * time.Millisecond
	p, err := past.ListenPeer(pcfg)
	if err != nil {
		return err
	}
	defer p.Close() //nolint:errcheck // done with the peer either way
	if err := p.Join(c.storage[0].Addr()); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.KnownPeers() < idx {
		if time.Now().After(deadline) {
			return fmt.Errorf("reclaim client sees %d of %d peers", p.KnownPeers(), idx)
		}
		time.Sleep(2 * time.Millisecond)
	}
	const want = int64(replicas * smallFile)
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		data := make([]byte, smallFile)
		fillContent(data, seed, idx, attempt)
		ir, err := p.Insert(nil, fileName(seed, idx, attempt), data, replicas)
		if err != nil {
			last = fmt.Errorf("insert: %w", err)
			continue
		}
		rr, err := p.Reclaim(nil, ir.FileID)
		if err != nil && !errors.Is(err, past.ErrTimeout) {
			return err
		}
		if rr.Freed != want {
			last = fmt.Errorf("freed %d bytes, want %d", rr.Freed, want)
			continue
		}
		if _, err := p.Lookup(ir.FileID); !errors.Is(err, past.ErrNotFound) {
			return fmt.Errorf("lookup after reclaim: got %v, want ErrNotFound", err)
		}
		return nil
	}
	return last
}

// restartCheck closes every storage peer and reopens it on its DataDir:
// each must recover exactly what it stored and quarantine nothing. A short
// reopen repeats (up to 1.5 s in all); it returns one recovery rate per
// peer and round. Interference only ever slows a reopen, so the fast end
// of sixteen or more short samples is the undisturbed rate.
func restartCheck(c *cluster, reopens int, res *runResult) []float64 {
	var rates []float64
	var spent time.Duration
	for round := 0; round < reopens && spent < 1500*time.Millisecond; round++ {
		rep, err := c.restartStorage()
		if err != nil {
			res.problem("restart: %v", err)
			return rates
		}
		if rep.recovered != rep.stored || rep.quarantined != 0 {
			res.problem("restart recovered %d and quarantined %d replicas, want %d and 0", rep.recovered, rep.quarantined, rep.stored)
		}
		rates = append(rates, rep.peerRates...)
		spent += rep.wall
	}
	return rates
}
