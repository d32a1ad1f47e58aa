// Command pastbench runs the core PAST microbenchmarks and experiment
// wall-clock probes, then writes the results as JSON so successive PRs
// can track the performance trajectory:
//
//	go run ./cmd/pastbench -out BENCH_1.json
//
// The microbenchmarks mirror the hot-path benchmarks in bench_test.go
// (insert, lookup, insert+reclaim, network build) but run against the
// public API via testing.Benchmark, so they need no test harness. The
// experiment probes time experiments.Run at Small scale — the same
// invocations the BenchmarkE* suite makes — and record the wall-clock
// plus a key metric cell per experiment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"past"
	"past/internal/cluster"
	"past/internal/experiments"
	"past/internal/harness"
	"past/internal/pastry"
	"past/internal/seccrypt"
)

// BenchResult is one microbenchmark measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// ExpResult is one experiment wall-clock probe. Nodes/Events/EventsPerSec
// and PeakRSSMB are filled when the experiment reports its simulation
// scale (E1/E4/E15 do) and the platform exposes a resettable peak-RSS
// watermark (Linux), so memory and throughput regress like wall clocks.
type ExpResult struct {
	ID           string  `json:"id"`
	Scale        string  `json:"scale"`
	Seed         int64   `json:"seed"`
	WallMs       float64 `json:"wall_ms"`
	Nodes        int     `json:"nodes,omitempty"`
	Events       uint64  `json:"events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	PeakRSSMB    float64 `json:"peak_rss_mb,omitempty"`
}

// MemProbe is one bulk-construction memory measurement: build an
// analytic network of the given size and record heap bytes per node and
// build wall clock — the two quantities the 100k tier lives or dies by.
type MemProbe struct {
	Name         string  `json:"name"`
	Nodes        int     `json:"nodes"`
	BytesPerNode float64 `json:"bytes_per_node"`
	BuildMs      float64 `json:"build_ms"`
	PeakRSSMB    float64 `json:"peak_rss_mb,omitempty"`
}

// Report is the BENCH_<n>.json schema.
type Report struct {
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	NumCPU      int           `json:"num_cpu"`
	Shards      int           `json:"shards"`
	UnixTime    int64         `json:"unix_time"`
	Benchmarks  []BenchResult `json:"benchmarks"`
	Experiments []ExpResult   `json:"experiments"`
	MemProbes   []MemProbe    `json:"mem_probes,omitempty"`
	MemoHits    uint64        `json:"verify_memo_hits"`
	MemoMisses  uint64        `json:"verify_memo_misses"`
}

func benchNetwork(n int) *past.Network {
	cfg := past.DefaultStorageConfig()
	cfg.K = 3
	cfg.Capacity = 64 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{N: n, Seed: 7, Storage: cfg})
	if err != nil {
		panic(err)
	}
	return nw
}

func record(name string, f func(b *testing.B)) BenchResult {
	r := testing.Benchmark(f)
	return BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func main() {
	out := flag.String("out", "BENCH_1.json", "output JSON path")
	expIDs := flag.String("experiments", "E1,E4,E10,E15,E16,E17,E18,E19,E20,E21", "comma-separated experiment ids to time (empty disables)")
	shards := flag.Int("shards", experiments.Shards,
		"simulation shards for the experiments (byte-identical results; parallelism only)")
	tierExps := flag.String("tier-exps", "E1@large,E4@large,E15@large,E1@huge",
		"comma-separated id@scale probes for the bulk-built tiers (empty disables)")
	memProbes := flag.String("mem-probes", "20000,100000",
		"comma-separated analytic-build sizes for the bytes-per-node probe (empty disables)")
	seriesPath := flag.String("series", "",
		"write the experiment probes' per-window telemetry series (line protocol) to this file")
	micro := flag.Bool("micro", true,
		"run the in-process microbenchmarks (Insert4KiB, Lookup4KiB, InsertReclaimCycle, NetworkBuild64)")
	chaosProbe := flag.Bool("chaos", false,
		"run the partition+heal chaos scenario against a real 7-process cluster and record its wall clock as experiment CHAOS-PH@real")
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "pastbench: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	experiments.Shards = *shards

	// Validate experiment ids before spending minutes on benchmarks.
	ids := splitComma(*expIDs)
	known := make(map[string]bool)
	for _, k := range experiments.IDs() {
		known[k] = true
	}
	for _, idStr := range ids {
		if !known[idStr] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %v)\n", idStr, experiments.IDs())
			os.Exit(1)
		}
	}
	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Shards:     experiments.Shards,
		UnixTime:   time.Now().Unix(),
	}

	// The microbenchmarks always run in CI (benchguard compares them); the
	// chaos-smoke job turns them off to time only its scenario probe.
	if *micro {
		rep.Benchmarks = append(rep.Benchmarks, record("Insert4KiB", func(b *testing.B) {
			nw := benchNetwork(64)
			data := make([]byte, 4096)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Insert(i%64, nil, fmt.Sprintf("bench-%d", i), data, 3); err != nil {
					b.Fatal(err)
				}
			}
		}))
		fmt.Fprintf(os.Stderr, "Insert4KiB done\n")

		rep.Benchmarks = append(rep.Benchmarks, record("Lookup4KiB", func(b *testing.B) {
			nw := benchNetwork(64)
			ins, err := nw.Insert(0, nil, "bench-lookup", make([]byte, 4096), 3)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Lookup(i%64, ins.FileID); err != nil {
					b.Fatal(err)
				}
			}
		}))
		fmt.Fprintf(os.Stderr, "Lookup4KiB done\n")

		rep.Benchmarks = append(rep.Benchmarks, record("InsertReclaimCycle", func(b *testing.B) {
			nw := benchNetwork(32)
			data := make([]byte, 1024)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ins, err := nw.Insert(i%32, nil, fmt.Sprintf("cycle-%d", i), data, 3)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := nw.Reclaim(i%32, nil, ins.FileID); err != nil {
					b.Fatal(err)
				}
			}
		}))
		fmt.Fprintf(os.Stderr, "InsertReclaimCycle done\n")

		rep.Benchmarks = append(rep.Benchmarks, record("NetworkBuild64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := past.DefaultStorageConfig()
				cfg.Capacity = 1 << 20
				if _, err := past.NewNetwork(past.NetworkConfig{N: 64, Seed: int64(i), Storage: cfg}); err != nil {
					b.Fatal(err)
				}
			}
		}))
		fmt.Fprintf(os.Stderr, "NetworkBuild64 done\n")
	}

	var seriesOut *os.File
	if *seriesPath != "" {
		experiments.CollectSeries = true
		f, err := os.Create(*seriesPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pastbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		seriesOut = f
	}
	runProbe := func(idStr string, scale experiments.Scale, scaleName string) {
		resetPeakRSS()
		start := time.Now()
		res, err := experiments.Run(idStr, scale, 42)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s@%s: %v\n", idStr, scaleName, err)
			os.Exit(1)
		}
		if seriesOut != nil && res.SeriesLP != "" {
			if _, err := seriesOut.WriteString(res.SeriesLP); err != nil {
				fmt.Fprintf(os.Stderr, "pastbench: write %s: %v\n", *seriesPath, err)
				os.Exit(1)
			}
		}
		wall := time.Since(start)
		er := ExpResult{
			ID: idStr, Scale: scaleName, Seed: 42,
			WallMs:    float64(wall.Microseconds()) / 1000,
			Nodes:     res.Nodes,
			Events:    res.Events,
			PeakRSSMB: peakRSSMB(),
		}
		if res.Events > 0 && wall > 0 {
			er.EventsPerSec = float64(res.Events) / wall.Seconds()
		}
		rep.Experiments = append(rep.Experiments, er)
		fmt.Fprintf(os.Stderr, "%s@%s done\n", idStr, scaleName)
	}
	for _, idStr := range ids {
		runProbe(idStr, experiments.Small, "Small")
	}
	for _, spec := range splitComma(*tierExps) {
		idStr, scaleName, ok := strings.Cut(spec, "@")
		if !ok {
			fmt.Fprintf(os.Stderr, "bad -tier-exps entry %q (want id@scale)\n", spec)
			os.Exit(2)
		}
		scale, err := experiments.ParseScale(scaleName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -tier-exps entry %q: %v\n", spec, err)
			os.Exit(2)
		}
		if !known[idStr] {
			fmt.Fprintf(os.Stderr, "unknown tier experiment %q\n", idStr)
			os.Exit(1)
		}
		runProbe(idStr, scale, scaleName)
	}

	for _, part := range splitComma(*memProbes) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "bad -mem-probes entry %q\n", part)
			os.Exit(2)
		}
		rep.MemProbes = append(rep.MemProbes, memProbe(n))
		fmt.Fprintf(os.Stderr, "mem probe %d done\n", n)
	}

	// Chaos wall-clock probe: the partition+heal scenario end to end
	// against a real 7-process cluster. benchguard watches its wall clock
	// (exp:CHAOS-PH@real) so recovery-time regressions fail CI like any
	// throughput regression.
	if *chaosProbe {
		dir, err := os.MkdirTemp("", "pastbench-chaos-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pastbench: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		bin, err := harness.BuildPastnode(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pastbench: build pastnode: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		phRep, err := harness.RunPartitionHeal(bin, dir, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "chaos: "+format+"\n", args...)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pastbench: chaos partition+heal: %v\n", err)
			os.Exit(1)
		}
		rep.Experiments = append(rep.Experiments, ExpResult{
			ID: "CHAOS-PH", Scale: "real", Seed: 42,
			WallMs: float64(time.Since(start).Microseconds()) / 1000,
			Nodes:  7,
			Events: uint64(phRep.Files),
		})
		fmt.Fprintf(os.Stderr, "chaos partition+heal done (invariant back %v after heal)\n",
			phRep.HealToInvariant.Round(100*time.Millisecond))
	}

	rep.MemoHits, rep.MemoMisses = seccrypt.MemoStats()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Memory probes (Linux-specific parts degrade to zero elsewhere)

// resetPeakRSS rewinds the kernel's peak-RSS watermark so the following
// experiment's VmHWM reading is its own peak, not an earlier probe's.
// Writing "5" to /proc/self/clear_refs is the documented reset; failure
// (non-Linux, restricted procfs) is harmless — PeakRSSMB just reports
// the process-lifetime peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 when unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// memProbe builds an n-node network analytically and reports live heap
// bytes per node plus the build wall clock. This is the number the Huge
// tier's 4 GiB budget is engineered against, so benchguard can watch it
// (-watch mem:analytic_build_20000:1.3).
func memProbe(n int) MemProbe {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	resetPeakRSS()
	start := time.Now()
	c, err := cluster.Build(cluster.Options{
		N:        n,
		Pastry:   pastry.DefaultConfig(),
		Seed:     42,
		Analytic: true,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mem probe %d: %v\n", n, err)
		os.Exit(1)
	}
	buildMs := float64(time.Since(start).Microseconds()) / 1000
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	probe := MemProbe{
		Name:         fmt.Sprintf("analytic_build_%d", n),
		Nodes:        n,
		BytesPerNode: float64(after.HeapAlloc-before.HeapAlloc) / float64(n),
		BuildMs:      buildMs,
		PeakRSSMB:    peakRSSMB(),
	}
	runtime.KeepAlive(c)
	return probe
}
