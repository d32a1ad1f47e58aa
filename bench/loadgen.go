package main

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"past"
	"past/internal/seccrypt"
)

// replicas is the replication factor k of every insert.
const replicas = 3

// phase tags an operation with the part of the run that issued it.
type phase uint8

const (
	phPreload phase = iota
	phWarmup
	phWindow // the untraced timed window: every end-to-end latency comes from here
	phTraced // the traced half of a -trace 1 run
	phVerify
	phChurn // the simulator's churn window: no ops, only blocks
	phBoot  // booting the cluster or building the simulated networks: likewise
	phSide  // inserts made between the blocks of a window that issues none
)

// opRecord is one finished operation.
type opRecord struct {
	op
	issuer     int // the generator whose loop ran the op (a lookup's op.client names the file's owner)
	phase      phase
	block      int           // index into the run's blocks: where the machine's speed around the op is
	start, end time.Duration // since the run's epoch
	cycle      time.Duration // from the generator's previous completion (or the block's start) to this one
	ok         bool
	hops       int
	cached     bool
	diverted   int
	retries    int
}

func (r opRecord) latencyMs() float64 { return ms(r.end - r.start) }

// fileEntry is what a generator remembers of an inserted file.
type fileEntry struct {
	id   past.FileID
	size int
	ok   bool
}

// target is what a load generator drives: a client peer of the loopback
// cluster, or the entry nodes of a simulated network.
type target interface {
	insert(name string, data []byte) (past.InsertResult, error)
	lookup(f past.FileID) (past.LookupResult, error)
}

// generator is one closed loop: a target, its op stream and the files it
// has inserted.
type generator struct {
	target  target
	stream  *opStream
	files   []fileEntry
	records []opRecord
	scratch []byte
	queue   []op       // the set-up inserts still to issue
	verify  *rand.Rand // draws the verification lookups
}

// loadgen drives one generator per target, each on its own goroutine: the
// next op is issued only after the previous one has returned.
type loadgen struct {
	seed   int64
	epoch  time.Time
	speed  *speedometer
	tracer *tracer // receives a root span per op of the traced window
	// tamper, when set (tests only), may alter the content a lookup's
	// reply is compared with, which is how a wrong reply looks from here.
	tamper func(o op, want []byte)
	gens   []*generator
	shared [][]fileEntry // per generator: its preloaded files, immutable after preload
	// side, on a workload whose window issues one kind of op only, makes
	// each generator issue a few ops of the other kind after every block
	// of the window, outside its timing: verification lookups (phVerify)
	// where the window only inserts, inserts (phSide) where it only looks
	// up. They are that workload's latency samples of the other kind;
	// taken in one burst at the end or the start of the run they stand or
	// fall with the machine's state in that third of a second.
	side struct {
		ops   int
		phase phase
		draw  func(g *generator) op
	}
	rssAfter int           // sample VmHWM when this many timed ops are done
	timed    atomic.Int64  // ops finished in timed windows, across generators
	rssMiB   atomic.Uint64 // math.Float64bits of VmHWM at rssAfter
}

func newLoadgen(cfg runConfig, targets []target) *loadgen {
	lg := &loadgen{seed: cfg.seed, epoch: cfg.epoch, speed: cfg.speed, tracer: cfg.tracer, tamper: cfg.tamper, rssAfter: cfg.spec.rssAfter}
	switch cfg.spec.insertFrac {
	case 1:
		lg.side.ops, lg.side.phase, lg.side.draw = 25, phVerify, lg.verifyOp
	case 0:
		lg.side.ops, lg.side.phase, lg.side.draw = 10, phSide, func(g *generator) op { return g.stream.nextInsert() }
	}
	for i, t := range targets {
		lg.gens = append(lg.gens, &generator{
			target:  t,
			stream:  newOpStream(cfg.spec, cfg.seed, i, len(targets)),
			records: make([]opRecord, 0, 1<<16),
			verify:  rand.New(rand.NewSource(cfg.seed*77 + int64(i))),
		})
	}
	return lg
}

// exec runs one op through the generator's target and checks its outcome:
// an insert must return k receipts signed by k distinct nodes, a lookup
// the file's seeded bytes.
func (lg *loadgen) exec(g *generator, o op, ph phase) opRecord {
	rec := opRecord{op: o, issuer: g.stream.client, phase: ph}
	if o.insert {
		data := make([]byte, o.size) // fresh per insert: content is immutable after Insert
		fillContent(data, lg.seed, o.client, o.serial)
		rec.start = time.Since(lg.epoch)
		ir, err := g.target.insert(fileName(lg.seed, o.client, o.serial), data)
		rec.end = time.Since(lg.epoch)
		rec.ok = err == nil && distinctReceipts(ir) == replicas
		rec.diverted, rec.retries = ir.Diverted, ir.Retries
		for len(g.files) <= o.serial {
			g.files = append(g.files, fileEntry{})
		}
		g.files[o.serial] = fileEntry{id: ir.FileID, size: o.size, ok: rec.ok}
		return rec
	}
	var e fileEntry
	if o.client == g.stream.client {
		e = g.files[o.serial]
	} else {
		e = lg.shared[o.client][o.serial]
	}
	rec.size = e.size
	if !e.ok {
		// The insert this lookup depends on failed; it already counted.
		rec.start = time.Since(lg.epoch)
		rec.end = rec.start
		return rec
	}
	if cap(g.scratch) < e.size {
		g.scratch = make([]byte, e.size)
	}
	want := g.scratch[:e.size]
	fillContent(want, lg.seed, o.client, o.serial)
	if lg.tamper != nil {
		lg.tamper(o, want)
	}
	rec.start = time.Since(lg.epoch)
	lr, err := g.target.lookup(e.id)
	rec.end = time.Since(lg.epoch)
	rec.ok = err == nil && bytes.Equal(lr.Data, want)
	rec.hops, rec.cached = lr.Hops, lr.Cached
	return rec
}

// distinctReceipts counts the distinct nodeIds that signed ir's receipts,
// or returns 0 when one signed twice.
func distinctReceipts(ir past.InsertResult) int {
	seen := make(map[past.NodeID]bool, len(ir.Receipts))
	for _, rc := range ir.Receipts {
		seen[rc.StoredBy.ID] = true
	}
	if len(seen) != len(ir.Receipts) {
		return 0
	}
	return len(seen)
}

// each runs fn once per generator, one goroutine each, and waits for all.
func (lg *loadgen) each(fn func(g *generator)) {
	var wg sync.WaitGroup
	for _, g := range lg.gens {
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
}

// runBlock opens a block of phase ph and runs every generator's closed loop
// until the time is up or the generator's quota (ops it may still issue;
// nil for no limit) is spent. The caller closes the block.
func (lg *loadgen) runBlock(ph phase, until time.Time, quota []int, draw func(g *generator) op) int {
	b := lg.speed.open(ph)
	lg.each(func(g *generator) {
		i := g.stream.client
		prev := time.Since(lg.epoch)
		for time.Now().Before(until) && (quota == nil || quota[i] > 0) {
			rec := lg.exec(g, draw(g), ph)
			rec.block, rec.cycle = b, rec.end-prev
			prev = rec.end
			g.records = append(g.records, rec)
			if quota != nil {
				quota[i]--
			}
			if ph == phTraced {
				lg.tracer.root(rec)
			}
			if ph == phWindow || ph == phTraced {
				if lg.timed.Add(1) == int64(lg.rssAfter) {
					lg.rssMiB.Store(math.Float64bits(peakRSSMiB()))
				}
			}
		}
	})
	return b
}

// drive runs a phase block by block, the speed probe read between the
// blocks, until d has passed or every generator has issued limit ops (0 for
// no limit). It returns the wall time, readings included.
func (lg *loadgen) drive(ph phase, d time.Duration, limit int, draw func(g *generator) op) time.Duration {
	t0 := time.Now()
	quota := lg.quota(limit)
	spent := func() bool {
		for _, q := range quota {
			if q > 0 {
				return false
			}
		}
		return quota != nil
	}
	for end := t0.Add(d); time.Now().Before(end) && !spent(); {
		until := time.Now().Add(blockLen)
		if until.After(end) {
			until = end
		}
		lg.speed.close(lg.runBlock(ph, until, quota, draw), true)
		if lg.side.ops > 0 && (ph == phWindow || ph == phTraced) {
			lg.speed.close(lg.runBlock(lg.side.phase, end, lg.quota(lg.side.ops), lg.side.draw), false)
		}
	}
	return time.Since(t0)
}

// quota gives every generator n ops to issue, or no limit when n is 0.
func (lg *loadgen) quota(n int) []int {
	if n <= 0 {
		return nil
	}
	q := make([]int, len(lg.gens))
	for i := range q {
		q[i] = n
	}
	return q
}

// untimed is the duration given to a phase that only its op count ends.
const untimed = time.Hour

// preload issues every generator's set-up inserts and returns the time
// they take at their typical pace and the reference speed: inserts per
// generator times the median scaled cycle. The plain wall time is a sum
// over a thousand ops, and a neighbour's burst of load doubles it; the
// median cycle holds.
func (lg *loadgen) preload() (typicalS float64) {
	for _, g := range lg.gens {
		g.queue = g.stream.preloadOps()
	}
	first := len(lg.speed.blocks)
	lg.drive(phPreload, untimed, lg.gens[0].stream.preloadPer, func(g *generator) op {
		o := g.queue[0]
		g.queue = g.queue[1:]
		return o
	})
	var cycles []float64
	for _, g := range lg.gens {
		n := len(g.files)
		lg.shared = append(lg.shared, g.files[:n:n])
		for _, rec := range g.records {
			if rec.block >= first {
				cycles = append(cycles, rec.cycle.Seconds()*lg.speed.blocks[rec.block].scale())
			}
		}
	}
	return float64(lg.gens[0].stream.preloadPer) * median(cycles)
}

// verifyOp draws a generator's next verification lookup: a seeded live
// file, byte-compared like every lookup.
func (lg *loadgen) verifyOp(g *generator) op { return g.stream.lookupOp(g.verify) }

// windows is what the timed part of a run measured, whatever the target.
type windows struct {
	warmupS, verifyS       float64
	windowWall, tracedWall time.Duration // readings of the speed probe included
	memoHits, memoMisses   uint64        // seccrypt memo, untraced window
	goroutines             int
	rssMiB                 float64
}

// run executes warm-up, the timed window (with cfg.traced: half of it
// plain, half traced) and the verification lookups.
func (lg *loadgen) run(cfg runConfig, window time.Duration) windows {
	var w windows
	warmOps := 1000 / len(lg.gens) // 1,000 ops or 3 s, whichever comes first
	verifyOps := 2000 / len(lg.gens)
	if cfg.maxOps > 0 {
		warmOps, verifyOps = cfg.maxOps, cfg.maxOps
	}
	timed := func(g *generator) op { return g.stream.next() }
	w.warmupS = lg.drive(phWarmup, 3*time.Second, warmOps, timed).Seconds()
	if cfg.traced {
		window /= 2
	}
	runtime.GC() // start every window from a collected heap
	h0, m0 := seccrypt.MemoStats()
	w.windowWall = lg.drive(phWindow, window, cfg.maxOps, timed)
	w.goroutines = runtime.NumGoroutine()
	h1, m1 := seccrypt.MemoStats()
	w.memoHits, w.memoMisses = h1-h0, m1-m0
	if cfg.traced {
		w.tracedWall = lg.drive(phTraced, window, cfg.maxOps, timed)
	}
	if v := lg.rssMiB.Load(); v != 0 {
		w.rssMiB = math.Float64frombits(v)
	}
	runtime.GC() // as before the window: the verification lookups are a latency sample too
	t0 := time.Now()
	lg.drive(phVerify, untimed, verifyOps, lg.verifyOp)
	w.verifyS = time.Since(t0).Seconds()
	return w
}

// userBytes sums the sizes of the files inserted successfully, and counts
// them.
func (lg *loadgen) userBytes() (files int, bytes int64) {
	for _, g := range lg.gens {
		for _, e := range g.files {
			if e.ok {
				files++
				bytes += int64(e.size)
			}
		}
	}
	return files, bytes
}

// allRecords merges the generators' records, ordered by completion.
func (lg *loadgen) allRecords() []opRecord {
	var all []opRecord
	for _, g := range lg.gens {
		all = append(all, g.records...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].end < all[j].end })
	return all
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
