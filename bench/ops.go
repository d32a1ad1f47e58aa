package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"past/internal/workload"
)

const (
	smallFile = 4 << 10
	// maxFile caps sizes drawn for mixed_rw, the cap the conformance
	// harness uses: larger files turn the window into a handful of ops.
	maxFile = 256 << 10
)

// workloadSpec is one row of the workload table.
type workloadSpec struct {
	name string
	why  string
	// sim runs the workload on the simulator (past.NewNetwork: no sockets,
	// no disk) instead of the loopback cluster.
	sim bool
	// preload is the number of files inserted in set-up, split evenly
	// between the load generators.
	preload int
	// mixedSizes draws file sizes from workload.DefaultSizes capped at
	// maxFile; otherwise every file is smallFile bytes.
	mixedSizes bool
	// insertFrac is the share of timed ops that insert a new file; the rest
	// look up a live file chosen uniformly.
	insertFrac float64
	// rssAfter is the number of timed ops after which peak_rss_mib is
	// sampled: memory at a fixed amount of work, so that a build which
	// completes more ops in the window is not charged for storing more.
	// Sized at roughly a third of what the window completes at the commit
	// that added the benchmark; 0 samples at the end of the run.
	rssAfter int
}

var workloads = []workloadSpec{
	{
		name:       "insert_4k",
		why:        "distinct 4 KiB inserts at k=3: per-message cost, signing and k disk puts per op dominate; lookups are bypassed",
		preload:    1000,
		insertFrac: 1,
		rssAfter:   5000,
	},
	{
		name:     "lookup_4k",
		why:      "uniform lookups over 2,000 preloaded 4 KiB files: transport and codec do nearly all the work; crypto (memoised) and disk are bypassed",
		preload:  2000,
		rssAfter: 40000,
	},
	{
		name:       "mixed_rw",
		why:        "85% lookups / 15% inserts with sizes up to 256 KiB: bytes dominate instead of messages, and reads queue behind writes on the read loop",
		preload:    1000,
		mixedSizes: true,
		insertFrac: 0.15,
		rssAfter:   3000,
	},
	{
		name:       "sim_churn",
		why:        "the simulator only: inserts and lookups on a simulated network, then crash/restart churn under keep-alives; sockets, codec and disk are bypassed",
		sim:        true,
		preload:    500,
		insertFrac: 0.15,
		rssAfter:   15000,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// op is one client operation. For an insert (client, serial) names the new
// file; for a lookup it names the target.
type op struct {
	insert bool
	client int
	serial int
	size   int // insert only
}

// opStream yields one load generator's operations: a pure function of
// (workload, seed, client, number of clients). Serials below the per-client
// preload count are the set-up inserts; next continues from there.
type opStream struct {
	spec       workloadSpec
	client     int
	nclients   int
	preloadPer int
	rng        *rand.Rand
	sizes      *workload.SizeDist
	inserted   int // files this client has been told to insert so far
}

func newOpStream(spec workloadSpec, seed int64, client, nclients int) *opStream {
	s := &opStream{
		spec:       spec,
		client:     client,
		nclients:   nclients,
		preloadPer: spec.preload / nclients,
		rng:        rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1)),
	}
	if spec.mixedSizes {
		s.sizes = workload.DefaultSizes(seed*31 + int64(client) + 1)
	}
	return s
}

func (s *opStream) nextInsert() op {
	size := smallFile
	if s.sizes != nil {
		size = int(min(s.sizes.Draw(), maxFile))
	}
	o := op{insert: true, client: s.client, serial: s.inserted, size: size}
	s.inserted++
	return o
}

// preloadOps returns this client's set-up inserts. Call it before next.
func (s *opStream) preloadOps() []op {
	ops := make([]op, s.preloadPer)
	for i := range ops {
		ops[i] = s.nextInsert()
	}
	return ops
}

// next returns the client's next timed operation. Lookups choose
// uniformly among every client's preloaded files and this client's own
// later inserts — the files this client knows to be live without
// synchronising with the other generator.
func (s *opStream) next() op {
	if s.rng.Float64() < s.spec.insertFrac {
		return s.nextInsert()
	}
	return s.lookupOp(s.rng)
}

// lookupOp draws a lookup of a live file from rng.
func (s *opStream) lookupOp(rng *rand.Rand) op {
	shared := s.preloadPer * s.nclients
	r := rng.Intn(shared + s.inserted - s.preloadPer)
	if r < shared {
		return op{client: r % s.nclients, serial: r / s.nclients}
	}
	return op{client: s.client, serial: s.preloadPer + r - shared}
}

// fileName is the name a file is inserted under.
func fileName(seed int64, client, serial int) string {
	return fmt.Sprintf("bench/%d/%d/%d", seed, client, serial)
}

// fillContent writes file (client, serial)'s content into buf: a
// splitmix64 stream keyed by the file's identity, so a lookup can be
// byte-compared without keeping every inserted file around.
func fillContent(buf []byte, seed int64, client, serial int) {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(client)<<40 + uint64(serial) + 1
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for len(buf) >= 8 {
		binary.LittleEndian.PutUint64(buf, next())
		buf = buf[8:]
	}
	if len(buf) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], next())
		copy(buf, tail[:])
	}
}
