package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 3 {
		t.Errorf("median(9,1,5,3) = %g, want 3 (nearest rank, no interpolation)", got)
	}
}

// The printed tail is the highest of p90/p99/p99.9 with at least ten
// samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1000000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what judges the benchmark's spread.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{3.1, 9.2, 4.4, 7.7, 1.0}, 2.05, 8.45},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5) > 1e-9 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5", got)
	}
}

// A time measured while the probe runs at twice its reference time counts
// half; a block's CPU is scaled by its own readings, not the run's.
func TestBlocksScaleToTheReferenceSpeed(t *testing.T) {
	at := func(wall, cpu float64) reading { return reading{wall: wall * probeRefUs, cpu: cpu * probeRefUs} }
	slow := block{phase: phWindow, before: at(4, 2), after: at(4, 2), wall: time.Second, proc: procSnapshot{user: 30 * time.Millisecond, sys: 10 * time.Millisecond}}
	ref := block{phase: phWindow, before: at(1, 0.5), after: at(1, 1.5), wall: time.Second, proc: procSnapshot{user: 10 * time.Millisecond}}
	other := block{phase: phVerify, before: at(1, 1), after: at(1, 1), wall: time.Second, proc: procSnapshot{user: time.Second}}
	if got, cpu := slow.scale(), slow.cpuScale(); math.Abs(got-0.25) > 1e-12 || math.Abs(cpu-0.5) > 1e-12 {
		t.Errorf("scales at four times the reference iteration and twice its CPU = %g, %g, want 0.25, 0.5", got, cpu)
	}
	sum := sumBlocks([]block{slow, other, ref}, phWindow)
	if math.Abs(sum.cpuRefMs-(40*0.5+10)) > 1e-9 || sum.wall != 2*time.Second || sum.proc.cpu() != 50*time.Millisecond || len(sum.probeUs) != 4 {
		t.Errorf("sumBlocks = %+v, want 30 ms of scaled CPU over 2 s and 50 ms of process CPU", sum)
	}
	if s := newSpeedometer(2); s.last.wall <= 0 || s.last.cpu <= 0 {
		t.Errorf("the speed probe read %+v", s.last)
	}
}

// streamHash generates the first n timed ops of every client of a workload
// and hashes them together with the set-up inserts and a file's content.
func streamHash(spec workloadSpec, seed int64, n int) [32]byte {
	h := sha256.New()
	for client := 0; client < 2; client++ {
		s := newOpStream(spec, seed, client, 2)
		ops := s.preloadOps()
		for i := 0; i < n; i++ {
			ops = append(ops, s.next())
		}
		for _, o := range ops {
			fmt.Fprintf(h, "%v %d %d %d\n", o.insert, o.client, o.serial, o.size)
		}
	}
	buf := make([]byte, 1001)
	fillContent(buf, seed, 1, 7)
	h.Write(buf)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// The op list is a pure function of (workload, seed): both sides of an A/B
// receive the same ops in the same per-client order.
func TestOpStreamIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	seen := map[[32]byte]string{}
	for _, spec := range workloads {
		for _, seed := range []int64{1, 2} {
			a, b := streamHash(spec, seed, 3000), streamHash(spec, seed, 3000)
			if a != b {
				t.Errorf("%s seed %d: two generations differ", spec.name, seed)
			}
			key := fmt.Sprintf("%s/%d", spec.name, seed)
			if prev, dup := seen[a]; dup {
				t.Errorf("%s generates the same ops as %s", key, prev)
			}
			seen[a] = key
		}
	}
}

func TestOpStreamLookupsTargetLiveFiles(t *testing.T) {
	spec, err := findWorkload("mixed_rw")
	if err != nil {
		t.Fatal(err)
	}
	s := newOpStream(spec, 9, 1, 2)
	per := len(s.preloadOps())
	inserted, inserts := per, 0
	for i := 0; i < 5000; i++ {
		o := s.next()
		switch {
		case o.insert:
			if o.client != 1 || o.serial != inserted || o.size < 1 || o.size > maxFile {
				t.Fatalf("op %d: bad insert %+v (next serial %d)", i, o, inserted)
			}
			inserted++
			inserts++
		case o.client == 1 && o.serial >= inserted, o.client != 1 && o.serial >= per:
			t.Fatalf("op %d: lookup of %+v, which is not live yet (own inserts %d, preload %d)", i, o, inserted, per)
		}
	}
	if inserts < 600 || inserts > 900 {
		t.Errorf("%d of 5000 ops are inserts, want about 15%%", inserts)
	}
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// quickOptions sizes a -quick run that writes only under dir.
func quickOptions(dir, workload string, trace int) options {
	return options{workload: workload, seed: 5, seconds: 1, trace: trace, repeat: 1, quick: true,
		dataDir: filepath.Join(dir, "data"), traceOut: filepath.Join(dir, "trace.json")}
}

// runAndDecode runs the command line and decodes the last line it printed.
func runAndDecode(t *testing.T, o options) (code int, res resultLine, output string) {
	t.Helper()
	var out bytes.Buffer
	code = run(o, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", o.workload, err, lines[len(lines)-1])
	}
	return code, res, out.String()
}

// quickRun makes one -quick run, which must pass the correctness gate.
func quickRun(t *testing.T, workload string, trace int) (res resultLine, dir, output string) {
	t.Helper()
	dir = t.TempDir()
	var code int
	code, res, output = runAndDecode(t, quickOptions(dir, workload, trace))
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%d: exit code %d correct=%v attempted=%d failed=%d\n%s", workload, trace, code, res.Correct, res.Attempted, res.Failed, output)
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "data")); len(left) != 0 {
		t.Errorf("%s: %d entries left under the data dir", workload, len(left))
	}
	return res, dir, output
}

// A lookup whose reply differs from the seeded content by one byte must fail
// the run: non-zero exit, "correct": false, and the op counted as failed.
func TestWrongLookupReplyFailsTheRun(t *testing.T) {
	o := quickOptions(t.TempDir(), "lookup_4k", 0)
	var tampered atomic.Bool
	o.tamper = func(_ op, want []byte) {
		if tampered.CompareAndSwap(false, true) { // the run's first lookup
			want[len(want)/2] ^= 1
		}
	}
	code, res, output := runAndDecode(t, o)
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Errorf("exit code %d correct=%v failed=%d after one wrong reply, want non-zero, false, 1\n%s", code, res.Correct, res.Failed, output)
	}
	if !strings.Contains(output, "INCORRECT lookup_4k") {
		t.Errorf("no INCORRECT line printed\n%s", output)
	}
	// An untraced run's result line holds the end-to-end metrics.
	if printed, _ := printedEndToEnd(t, output); strings.Join(names(res), ",") != strings.Join(printed, ",") {
		t.Errorf("the result line holds\n%v\nthe end-to-end metrics printed are\n%v", names(res), printed)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func names(res resultLine) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// printedEndToEnd extracts "name unit" and the value of each end-to-end
// metric from a run's printed lines (the unindented "name value unit" ones).
func printedEndToEnd(t *testing.T, output string) (names []string, values map[string]float64) {
	t.Helper()
	values = map[string]float64{}
	for _, line := range strings.Split(output, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || line[0] == ' ' || line[0] == '#' {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		names = append(names, f[0]+" "+f[2])
		values[f[0]] = v
	}
	sort.Strings(names)
	return names, values
}

// Every workload boots, runs every phase and passes the correctness gate at
// smoke size — traced, which adds the split window, the ladder and the
// microbenchmarks to the code paths run — and prints exactly the metrics
// BENCHMARK.json declares, every end-to-end one positive.
func TestQuickSmokeMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayer []string
	for _, m := range decl.EndToEnd {
		wantE2E = append(wantE2E, m.Name+" "+m.Unit)
	}
	for _, m := range decl.PerLayer {
		wantLayer = append(wantLayer, m.Name+" "+m.Unit)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	var dir string
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q (%s), the program's is %q (%s)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		var res resultLine
		var output string
		res, dir, output = quickRun(t, w.Name, 1)
		if got := names(res); strings.Join(got, ",") != strings.Join(wantLayer, ",") {
			t.Errorf("%s: the traced run's result line holds\n%v\nBENCHMARK.json declares the per-layer metrics\n%v", w.Name, got, wantLayer)
		}
		got, values := printedEndToEnd(t, output)
		if strings.Join(got, ",") != strings.Join(wantE2E, ",") {
			t.Errorf("%s prints end-to-end metrics\n%v\nBENCHMARK.json declares\n%v", w.Name, got, wantE2E)
		}
		for name, v := range values {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, name, v)
			}
		}
	}
	// The span file of the last workload run.
	var spans struct {
		Spans []span `json:"spans"`
	}
	raw, err = os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	roots, children := 0, 0
	for _, s := range spans.Spans {
		if s.Parent == 0 {
			roots++
		} else if s.Replayed && s.Op == s.Parent {
			children++
		}
	}
	if roots == 0 || children == 0 {
		t.Errorf("span file holds %d root and %d replayed child spans, want both", roots, children)
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var out bytes.Buffer
	if code := run(options{workload: "nope", seconds: 1, repeat: 1}, &out); code == 0 {
		t.Error("unknown workload: exit code 0")
	}
}
