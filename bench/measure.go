package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// runResult is what one run measured, on the cluster or on the simulator.
type runResult struct {
	setupS  []float64  // one per repetition of set-up, at the reference speed
	records []opRecord // every op of every phase, by completion
	blocks  []block    // the run's blocks: opRecord.block indexes it
	windows
	// costOps is the number of ops cpu_ms_per_op and the proc.* metrics
	// divide by: the successful ops of the untraced window on the cluster,
	// the events of the churn window on the simulator. costed is what the
	// blocks of that window add up to.
	costOps    float64
	costed     blockSum
	cpuMsPerOp float64 // at the reference speed

	storedBytes, userBytes int64
	attempted, failed      int                // beyond the records
	problems               []string           // correctness-gate violations; empty means correct
	layer                  map[string]float64 // the runner's own per-layer metrics
	phases                 string             // wall time of each phase, for the header
}

func (r *runResult) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// blockSum adds up the blocks of one phase.
type blockSum struct {
	wall                time.Duration
	proc                procSnapshot
	cpuRefMs            float64   // process CPU, each block's share taken to the reference speed
	probeUs, probeCPUUs []float64 // the probe's readings at the blocks' edges
}

func sumBlocks(blocks []block, ph phase) blockSum {
	var s blockSum
	for _, b := range blocks {
		if b.phase != ph {
			continue
		}
		s.wall += b.wall
		s.proc = s.proc.plus(b.proc)
		s.cpuRefMs += ms(b.proc.cpu()) * b.cpuScale()
		s.probeUs = append(s.probeUs, b.before.wall, b.after.wall)
		s.probeCPUUs = append(s.probeCPUUs, b.before.cpu, b.after.cpu)
	}
	return s
}

// measurement turns a run's records into named metrics.
type measurement struct {
	res                    *runResult
	inserts, lookups       []float64 // sorted latency samples in ms, as timed
	insertsRef, lookupsRef []float64 // the same samples at the reference speed, sorted
	insertFrom, lookupFrom phase     // where they come from
	windowOps              int       // successful ops of the untraced window
	windowBytes            int64     // their payload
	attempted, failed      int
	hops, lookupsOK        int
	cached                 int
	diverted               int
	retries                int
	insertsOK              int
}

// measure derives the samples and counts. Latency samples come from the
// untraced window when the workload issues ops of that kind there; a
// workload without timed inserts reports the inserts made between its
// blocks, one without timed lookups the verification lookups, most of which
// are made between its blocks too (see loadgen.side).
func measure(res *runResult, spec workloadSpec) *measurement {
	m := &measurement{res: res, insertFrom: phWindow, lookupFrom: phWindow, attempted: res.attempted, failed: res.failed}
	if spec.insertFrac == 0 {
		m.insertFrom = phSide
	}
	if spec.insertFrac == 1 {
		m.lookupFrom = phVerify
	}
	for _, r := range res.records {
		m.attempted++
		if !r.ok {
			m.failed++
			continue
		}
		if r.phase == phWindow {
			m.windowOps++
			m.windowBytes += int64(r.size)
		}
		if r.insert {
			m.insertsOK++
			m.diverted += r.diverted
			m.retries += r.retries
			if r.phase == m.insertFrom {
				m.inserts = append(m.inserts, r.latencyMs())
				m.insertsRef = append(m.insertsRef, r.latencyMs()*res.blocks[r.block].scale())
			}
		} else {
			m.lookupsOK++
			m.hops += r.hops
			if r.cached {
				m.cached++
			}
			if r.phase == m.lookupFrom {
				m.lookups = append(m.lookups, r.latencyMs())
				m.lookupsRef = append(m.lookupsRef, r.latencyMs()*res.blocks[r.block].scale())
			}
		}
	}
	for _, v := range [][]float64{m.inserts, m.lookups, m.insertsRef, m.lookupsRef} {
		sort.Float64s(v)
	}
	if m.failed > 0 {
		res.problem("%d of %d operations failed or returned wrong content", m.failed, m.attempted)
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a phase that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianCycle is the median time from one completion to the next on the
// same generator (latency plus the generator's own work) over a phase, at
// the reference speed.
func (m *measurement) medianCycle(ph phase) float64 {
	var cycles []float64
	for _, rec := range m.res.records {
		if rec.phase == ph && rec.ok {
			cycles = append(cycles, rec.cycle.Seconds()*m.res.blocks[rec.block].scale())
		}
	}
	return median(cycles)
}

func (m *measurement) endToEnd() []metric {
	r := m.res
	rss := r.rssMiB
	if rss == 0 {
		rss = peakRSSMiB()
	}
	return []metric{
		{"setup_s", "s", median(r.setupS)},
		{"insert_p25_ms", "ms", percentile(m.insertsRef, 25)},
		{"lookup_p25_ms", "ms", percentile(m.lookupsRef, 25)},
		{"cpu_ms_per_op", "ms", r.cpuMsPerOp},
		{"stored_bytes_per_user_byte", "ratio", ratio(float64(r.storedBytes), float64(r.userBytes))},
		{"peak_rss_mib", "MiB", rss},
	}
}

// runnerLayer names the per-layer metrics a runner may set in
// runResult.layer; one it does not measure (a cluster figure on the
// simulator, or the reverse) reads 0.
var runnerLayer = []metric{
	{"facade.setup_wall_s", "s", 0},
	{"facade.boot_s", "s", 0},
	{"facade.join_p50_ms", "ms", 0},
	{"facade.converge_s", "s", 0},
	{"facade.preload_s", "s", 0},
	{"facade.recover_files_s", "1/s", 0},
	{"seccrypt.memo_hit_ratio", "ratio", 0},
	{"proc.goroutines", "count", 0},
	{"sim.churn_rounds", "count", 0},
	{"sim.events_s", "1/s", 0},
	{"sim.events_per_virtual_s", "1/s", 0},
	{"sim.e15_wall_s.shards1", "s", 0},
	{"sim.e15_wall_s.default_shards", "s", 0},
	{"sim.e15_events", "count", 0},
	{"sim.e15_failed_lookup_frac", "ratio", 0},
	{"sim.e15_full_wall_s", "s", 0},
	{"sim.e15_full_events_s", "1/s", 0},
}

// perLayer lists the per-layer metrics every run yields; the traced run
// appends the microbenchmarks, the ladder and the tracing overhead.
func (m *measurement) perLayer() []metric {
	r := m.res
	ops := r.costOps
	p := r.costed.proc
	user, sys := ms(p.user), ms(p.sys)
	wall := sumBlocks(r.blocks, phWindow).wall.Seconds() // the ops' own time: no readings of the probe
	out := []metric{
		{"facade.ops_s", "1/s", ratio(float64(m.windowOps), wall)},
		{"facade.goodput_mib_s", "MiB/s", ratio(float64(m.windowBytes)/(1<<20), wall)},
		{"facade.cycle_p50_ms", "ms", m.medianCycle(phWindow) * 1000},
		{"facade.insert_p50_ms", "ms", percentile(m.inserts, 50)},
		{"facade.lookup_p50_ms", "ms", percentile(m.lookups, 50)},
		{"facade.insert_p90_ms", "ms", percentile(m.inserts, 90)},
		{"facade.insert_p99_ms", "ms", percentile(m.inserts, 99)},
		{"facade.insert_max_ms", "ms", percentile(m.inserts, 100)},
		{"facade.lookup_p90_ms", "ms", percentile(m.lookups, 90)},
		{"facade.lookup_p99_ms", "ms", percentile(m.lookups, 99)},
		{"facade.lookup_max_ms", "ms", percentile(m.lookups, 100)},
		{"facade.samples", "count", float64(len(m.inserts) + len(m.lookups))},
		{"facade.failed_frac", "ratio", ratio(float64(m.failed), float64(m.attempted))},
		{"pastry.hops_per_lookup", "count", ratio(float64(m.hops), float64(m.lookupsOK))},
		{"past.insert_retries_per_op", "count", ratio(float64(m.retries), float64(m.insertsOK))},
		{"past.diverted_frac", "ratio", ratio(float64(m.diverted), float64(replicas*m.insertsOK))},
		{"past.cache_serves_frac", "ratio", ratio(float64(m.cached), float64(m.lookupsOK))},
		{"proc.allocs_per_op", "count", ratio(float64(p.mallocs), ops)},
		{"proc.alloc_kib_per_op", "KiB", ratio(float64(p.allocBytes)/1024, ops)},
		{"proc.gc_cpu_frac", "ratio", ratio(p.gcCPU*1000, user+sys)},
		{"proc.read_syscalls_per_op", "count", ratio(float64(p.readSyscalls), ops)},
		{"proc.write_syscalls_per_op", "count", ratio(float64(p.writeSyscall), ops)},
		{"proc.user_cpu_ms_per_op", "ms", ratio(user, ops)},
		{"proc.sys_cpu_ms_per_op", "ms", ratio(sys, ops)},
		{"proc.steal_frac", "ratio", ratio(float64(p.stolen), float64(p.busy))},
		{"proc.speed_probe_us", "us", median(r.costed.probeUs)},
		{"proc.speed_probe_cpu_us", "us", median(r.costed.probeCPUUs)},
	}
	for _, l := range runnerLayer {
		out = append(out, metric{l.name, l.unit, r.layer[l.name]})
	}
	return out
}

// printTails prints, per op kind, the sample count and the highest
// percentile that still has ten samples beyond it, as timed. Tails are not
// gated: on this sandbox a neighbour's load moves them by integer factors.
func (m *measurement) printTails(out io.Writer) {
	fmt.Fprintf(out, "# speed probe: %.1f us per iteration (median over the window; reference %.0f us): the gated times below are at the reference speed, the latencies on the next lines as timed\n",
		median(m.res.costed.probeUs), probeRefUs)
	for _, k := range []struct {
		name string
		v    []float64
		from phase
	}{{"insert", m.inserts, m.insertFrom}, {"lookup", m.lookups, m.lookupFrom}} {
		p := tailPercentile(len(k.v))
		fmt.Fprintf(out, "# %s latency: n=%d (%s) p50=%.3f ms p%g=%.3f ms max=%.3f ms\n",
			k.name, len(k.v), phaseName(k.from), percentile(k.v, 50), p, percentile(k.v, p), percentile(k.v, 100))
	}
}

func phaseName(p phase) string {
	return map[phase]string{phWindow: "timed window", phVerify: "verification lookups", phSide: "inserts between the window's blocks"}[p]
}
