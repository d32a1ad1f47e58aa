// Command bench is this repository's benchmark: four named workloads over
// an in-process 18-peer loopback PAST cluster and the simulator, a gated
// set of end-to-end metrics and an ungated per-layer ladder. See
// README.md in this directory for the glossary and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// options are the command line.
type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	traceOut   string
	repeat     int
	quick      bool
	dataDir    string
	cpuProfile string
	memProfile string
	tamper     func(o op, want []byte) // tests only, see loadgen
}

// runReport is one run's outcome.
type runReport struct {
	endToEnd  []metric
	perLayer  []metric
	attempted int
	failed    int
	problems  []string // correctness-gate violations; empty means correct
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "insert_4k, lookup_4k, mixed_rw, sim_churn, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for file names, content, sizes, op order, entry nodes and churn victims")
	flag.IntVar(&o.seconds, "seconds", 18, "length of the timed window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 makes the traced run: spans, ladder replay and every per-layer metric")
	flag.StringVar(&o.traceOut, "traceout", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.IntVar(&o.repeat, "repeat", 1, "run each workload N times back to back on the same seed and print medians, quartiles and spreads")
	flag.BoolVar(&o.quick, "quick", false, "smoke sizing: 8 storage peers, 25 ops per generator and phase, two churn rounds")
	flag.StringVar(&o.dataDir, "datadir", "", "parent of the peers' data dirs (default /dev/shm/past-bench when /dev/shm is a writable tmpfs with 2 GiB free, else .bench_build/data)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile covering all in-process peers to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	os.Exit(run(o, os.Stdout))
}

// run executes the command line and returns the exit code.
func run(o options, out io.Writer) int {
	if flag.NArg() > 0 || o.seconds < 1 || o.repeat < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	specs := workloads
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		specs = []workloadSpec{w}
	}
	if o.dataDir == "" {
		o.dataDir = defaultDataDir()
	}
	removeStaleRuns(o.dataDir)
	defer os.Remove(o.dataDir) //nolint:errcheck // succeeds only when empty: nothing of ours is left behind
	// A run interrupted from outside must not leave its data dirs behind.
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case <-sig:
			os.RemoveAll(runDir(o.dataDir)) //nolint:errcheck // exiting anyway
			os.Remove(o.dataDir)            //nolint:errcheck // only when empty
			os.Exit(130)
		case <-done:
		}
	}()
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	code := 0
	var last runReport
	for _, spec := range specs {
		var reports []runReport
		for i := 0; i < o.repeat; i++ {
			rep, err := runWorkload(spec, o, out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
				return 1
			}
			for _, p := range rep.problems {
				fmt.Fprintf(out, "INCORRECT %s: %s\n", spec.name, p)
				code = 1
			}
			reports = append(reports, rep)
		}
		last = reports[len(reports)-1]
		if o.repeat > 1 {
			last = summarize(spec.name, reports, out)
		}
	}
	if o.memProfile != "" {
		if err := writeHeapProfile(o.memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	printResult(last, o.trace == 1, out)
	return code
}

// defaultDataDir puts the peers' data dirs on a tmpfs when /dev/shm is one,
// can be written and has room for a run (a window's replicas come to a
// quarter of a GiB). The sandbox's disk is rate-limited: back-to-back runs
// that create and delete ~100,000 small files on it slow each other down
// fourfold, CPU per op included, so on ext4 no insert figure repeats. The
// device's cost is measured where it belongs, in storage.ondisk_put_us.4k.
func defaultDataDir() string {
	const shm = "/dev/shm/past-bench"
	var st syscall.Statfs_t
	if fsType("/dev/shm") == "tmpfs" && syscall.Statfs("/dev/shm", &st) == nil &&
		st.Bavail*uint64(st.Bsize) >= 2<<30 && os.MkdirAll(shm, 0o755) == nil {
		return shm
	}
	return filepath.Join(".bench_build", "data")
}

// runDir is this process's directory under the data dir.
func runDir(dataDir string) string {
	return filepath.Join(dataDir, fmt.Sprintf("run-%d", os.Getpid()))
}

// removeStaleRuns deletes the run dirs of benchmark processes that no
// longer exist (killed before they could clean up).
func removeStaleRuns(dataDir string) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		pid, ok := strings.CutPrefix(e.Name(), "run-")
		if !ok {
			continue
		}
		if _, err := os.Stat(filepath.Join("/proc", pid)); os.IsNotExist(err) {
			os.RemoveAll(filepath.Join(dataDir, e.Name())) //nolint:errcheck // best effort
		}
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close() //nolint:errcheck // reporting the write error
		return err
	}
	return f.Close()
}

// printHeader records the conditions of the run.
func printHeader(spec workloadSpec, o options, dir string, out io.Writer) {
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%d trace=%d quick=%v\n", spec.name, o.seed, o.seconds, o.trace, o.quick)
	fmt.Fprintf(out, "# why: %s\n", spec.why)
	fmt.Fprintf(out, "# go=%s nproc=%d gomaxprocs=%d loadavg1=%.2f\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), loadAvg1())
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	fmt.Fprintf(out, "# datadir=%s datadir_fs=%s flush_policy=none (atomicWrite does not fsync)\n", dir, fsType(abs))
}

// runWorkload makes one run of one workload: set-up, warm-up, the timed
// window, verification and the correctness gate, on the loopback cluster or
// on the simulator.
func runWorkload(spec workloadSpec, o options, out io.Writer) (runReport, error) {
	var rep runReport
	dir := runDir(o.dataDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch data
	printHeader(spec, o, dir, out)

	cfg := runConfig{
		spec: spec, seed: o.seed, dir: dir, window: time.Duration(o.seconds) * time.Second,
		traced: o.trace == 1, setups: 3, storage: 16, clients: 2, reopens: 2,
		quick: o.quick, epoch: time.Now(), tracer: &tracer{}, tamper: o.tamper,
	}
	if o.quick {
		cfg.spec.preload = 20
		cfg.setups, cfg.storage, cfg.maxOps, cfg.reopens = 2, 8, 25, 2
	}
	run := runCluster
	if spec.sim {
		run = runSim
		cfg.clients = 1 // one generator: a simulated network is single-threaded
	}
	cfg.speed = newSpeedometer(cfg.clients)
	res, err := run(cfg)
	if err != nil {
		return rep, err
	}
	m := measure(res, cfg.spec)
	rep.attempted, rep.failed, rep.problems = m.attempted, m.failed, res.problems
	rep.endToEnd = m.endToEnd()
	rep.perLayer = m.perLayer()
	var layersS float64
	if o.trace == 1 {
		path := o.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", spec.name, o.seed))
		}
		t0 := time.Now()
		tr, err := traceRun(cfg, m, dir, filepath.Dir(path))
		layersS = time.Since(t0).Seconds()
		if err != nil {
			return rep, err
		}
		rep.perLayer = append(rep.perLayer, tr.metrics...)
		if err := tr.write(path); err != nil {
			return rep, err
		}
		fmt.Fprintf(out, "# spans=%d written to %s\n", len(tr.spans), path)
		for _, n := range tr.notes {
			fmt.Fprintln(out, "#", n)
		}
	}
	fmt.Fprintf(out, "# phases: %s, ladder+layers %.1fs\n", res.phases, layersS)
	m.printTails(out)
	for _, e := range rep.endToEnd {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", e.name, e.value, e.unit)
	}
	for _, e := range rep.perLayer {
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", e.name, e.value, e.unit)
	}
	return rep, nil
}

// summarize prints, for each metric of repeated runs, the median, the
// quartiles, the interquartile spread and (max-min)/median, and returns a
// report holding the medians.
func summarize(name string, reports []runReport, out io.Writer) runReport {
	sum := runReport{}
	fmt.Fprintf(out, "## %s: %d runs\n", name, len(reports))
	fmt.Fprintf(out, "%-34s %12s %12s %12s %8s %8s  %s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "unit")
	row := func(get func(runReport) []metric, indent string) []metric {
		var meds []metric
		for i, m0 := range get(reports[0]) {
			var vals []float64
			for _, r := range reports {
				vals = append(vals, get(r)[i].value)
			}
			s := sortedCopy(vals)
			med := median(vals)
			q1, q3 := quartiles(vals)
			rng := 0.0
			if med != 0 {
				rng = (s[len(s)-1] - s[0]) / med
			}
			fmt.Fprintf(out, "%s%-34s %12.6g %12.6g %12.6g %8.3f %8.3f  %s\n", indent, m0.name, med, q1, q3, spread(vals), rng, m0.unit)
			meds = append(meds, metric{m0.name, m0.unit, med})
		}
		return meds
	}
	sum.endToEnd = row(func(r runReport) []metric { return r.endToEnd }, "")
	sum.perLayer = row(func(r runReport) []metric { return r.perLayer }, "  ")
	for _, r := range reports {
		sum.attempted += r.attempted
		sum.failed += r.failed
		sum.problems = append(sum.problems, r.problems...)
	}
	return sum
}

// printResult writes the machine-readable last line: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printResult(rep runReport, traced bool, out io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := rep.endToEnd
	if traced {
		ms = rep.perLayer
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // finite floats and strings only: cannot fail
	}
	fmt.Fprintln(out, string(b))
}
