package main

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/gob"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe. The sandbox runs the same instructions up to half again
// slower for minutes at a time (its neighbours share the caches and the
// memory bus: user CPU per op rises by a third while allocations and
// syscalls per op stay put), and no statistic of one run's own timings
// removes that. So every timed phase is cut into blocks of blockLen, a fixed
// piece of standard-library work — none of it this repository's code — is
// timed between the blocks on the threads that generate the load, and every
// gated time is reported at the reference speed: multiplied by probeRefUs
// and divided by the probe's time around the block it was measured in. A
// change to the program cannot move the probe, so the ratio between two
// builds is kept; what goes is the machine's share. The raw figures and the
// probe's own time stay in the per-layer set.
const (
	// probeRefUs is what one probe iteration takes on this class of machine
	// when it is quiet, so scaled times read as times on a quiet machine.
	probeRefUs = 100.0
	// probeIters iterations make one reading: 15-25 ms per half second, 4%
	// of a phase.
	probeIters = 150
	blockLen   = 500 * time.Millisecond
)

// probeMsg is shaped like a protocol message: names, a payload, a
// signature, a few ids.
type probeMsg struct {
	Name string
	Data []byte
	Sig  []byte
	Hops int
	IDs  [][20]byte
}

// probe is one thread's probe state.
type probe struct {
	priv  ed25519.PrivateKey
	pub   ed25519.PublicKey
	data  []byte
	arena []byte // larger than the private caches, touched at scattered places
	pos   int
}

func newProbe() *probe {
	pub, priv, err := ed25519.GenerateKey(bytes.NewReader(make([]byte, ed25519.SeedSize)))
	if err != nil {
		panic(err) // a reader of zeros cannot fail
	}
	return &probe{priv: priv, pub: pub, data: make([]byte, smallFile), arena: make([]byte, 8<<20)}
}

// once is one iteration: what a peer does to a small message, with the
// standard library's own types — hash, sign, encode, decode, verify — and
// 64 cache lines of a large array.
func (p *probe) once() {
	h := sha256.Sum256(p.data)
	sig := ed25519.Sign(p.priv, h[:])
	var b bytes.Buffer
	in := probeMsg{Name: "probe", Data: p.data, Sig: sig, Hops: 3, IDs: make([][20]byte, 8)}
	var out probeMsg
	if gob.NewEncoder(&b).Encode(&in) != nil || gob.NewDecoder(&b).Decode(&out) != nil || !ed25519.Verify(p.pub, h[:], out.Sig) {
		panic("bench: the speed probe's round trip failed") // fixed valid input: a bug
	}
	for i := 0; i < 64; i++ {
		p.pos = (p.pos*1103515245 + 12345) & (len(p.arena) - 1)
		p.arena[p.pos]++
	}
}

// block is one stretch of a timed phase between two readings of the probe.
type block struct {
	phase         phase
	before, after reading       // the probe's readings at its edges
	wall          time.Duration // from open to close, the closing reading excluded
	proc          procSnapshot  // what the process used over it (while open: the snapshot at its start)
	start         time.Time
}

// reading is one reading of the probe, in µs per iteration. A time that is
// a quantile of short samples is scaled by the median iteration, which a
// vCPU held up for a few milliseconds leaves alone, as it leaves the
// quantile. A CPU time summed over a block is scaled by the probe's own sum,
// the CPU time its threads are charged for the whole reading over their
// iterations: with a fifth of the machine stolen the process is charged a
// third more CPU for the same work (the clock runs on while a vCPU is held,
// and the caches are cold when it returns), and the probe's threads are
// charged the same way. (The process's CPU over the reading was tried: the
// collector and the peers' keep-alives are in it, and it wandered by 12%
// against the median iteration on a machine nobody stole from.)
type reading struct {
	wall float64 // the median iteration, on the wall clock
	cpu  float64 // CPU time of the probe's threads / iterations
}

// scale takes a time measured inside the block to the reference speed.
func (b block) scale() float64 { return 2 * probeRefUs / (b.before.wall + b.after.wall) }

// cpuScale takes the process CPU summed over the block to the reference
// speed.
func (b block) cpuScale() float64 { return 2 * probeRefUs / (b.before.cpu + b.after.cpu) }

// speedometer reads the machine's speed on as many threads as generate
// load, all at once, as the load itself runs, and keeps the run's blocks.
type speedometer struct {
	probes []*probe
	last   reading // the latest reading
	blocks []block
}

// open starts a block at the latest reading and returns its index.
func (s *speedometer) open(ph phase) int {
	s.blocks = append(s.blocks, block{phase: ph, before: s.last, proc: takeProcSnapshot(), start: time.Now()})
	return len(s.blocks) - 1
}

// close ends block b, with a new reading or (reread false, for a block of a
// few milliseconds that follows a reading) the latest one.
func (s *speedometer) close(b int, reread bool) {
	blk := &s.blocks[b]
	blk.wall = time.Since(blk.start)
	blk.proc = takeProcSnapshot().minus(blk.proc)
	if reread {
		s.read()
	}
	blk.after = s.last
}

func newSpeedometer(threads int) *speedometer {
	s := &speedometer{}
	for i := 0; i < threads; i++ {
		s.probes = append(s.probes, newProbe())
	}
	s.read() // the first reading also warms the probe's own code and data
	s.read()
	return s
}

// read times probeIters iterations on every thread at once and keeps the
// outcome as last.
func (s *speedometer) read() {
	all := make([]float64, 0, probeIters*len(s.probes))
	var cpu time.Duration
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range s.probes {
		wg.Add(1)
		go func(p *probe) {
			defer wg.Done()
			runtime.LockOSThread() // so that the thread's CPU clock is the probe's
			defer runtime.UnlockOSThread()
			own := make([]float64, probeIters)
			c0 := threadCPU()
			for i := range own {
				t0 := time.Now()
				p.once()
				own[i] = us(time.Since(t0))
			}
			c := threadCPU() - c0
			mu.Lock()
			all = append(all, own...)
			cpu += c
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	s.last = reading{wall: median(all), cpu: us(cpu) / float64(len(all))}
}

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
