package telemetry

import (
	"bytes"
	"maps"
	"os"
	"strings"
	"testing"
	"time"
)

// TestRingWraparound pins the fixed-capacity retention: with capacity c,
// only the newest c windows survive, oldest first.
func TestRingWraparound(t *testing.T) {
	r := New(Config{Window: time.Second, Capacity: 4})
	var v float64
	r.Gauge("g", []string{"value"}, func(out []float64) { out[0] = v })
	for i := 0; i < 10; i++ {
		v = float64(i)
		// Tick at the *end* of window i so the flush samples this
		// window's value.
		r.Tick(time.Duration(i+1) * time.Second)
	}
	// Windows flushed: tick at (i+1)s closes window [i-? ...]; first tick
	// aligns only. Nine flushes happened (i=1..9), values 1..9; capacity
	// keeps the last four.
	pts := r.Points("g")
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4", len(pts))
	}
	wantVals := []float64{6, 7, 8, 9}
	wantAt := []time.Duration{6 * time.Second, 7 * time.Second, 8 * time.Second, 9 * time.Second}
	for i, p := range pts {
		if p.Vals[0] != wantVals[i] || p.At != wantAt[i] {
			t.Fatalf("point %d = {%v %v}, want {%v %v}", i, p.At, p.Vals[0], wantAt[i], wantVals[i])
		}
	}
}

// TestCounterWindows pins Counts delta semantics across windows: each
// window emits the growth of the total, a catch-up window emits 0.
func TestCounterWindows(t *testing.T) {
	r := New(Config{Window: 2 * time.Second, Capacity: 16})
	var ops uint64
	r.Counts("ops", []string{"value"}, func(tot []uint64) { tot[0] = ops })
	r.Tick(0) // align
	ops += 10
	r.Tick(2 * time.Second)
	ops += 4
	r.Tick(6 * time.Second) // crosses two boundaries: 4s and 6s
	pts := r.Points("ops")
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if len(pts[0].Vals) != 1 || pts[0].Vals[0] != 10 {
		t.Fatalf("window 0 = %v, want value=10", pts[0].Vals)
	}
	if pts[1].Vals[0] != 4 {
		t.Fatalf("window 1 delta = %v, want 4", pts[1].Vals[0])
	}
	if pts[2].Vals[0] != 0 {
		t.Fatalf("catch-up window delta = %v, want 0", pts[2].Vals[0])
	}
}

// TestDistReset pins that each window's distribution is independent.
func TestDistReset(t *testing.T) {
	r := New(Config{Window: time.Second, Capacity: 8})
	d := r.Dist("lat")
	r.Tick(0)
	d.Observe(1)
	d.Observe(3)
	r.Tick(time.Second)
	d.Observe(7)
	r.Tick(2 * time.Second)
	pts := r.Points("lat")
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Vals[0] != 2 || pts[0].Vals[1] != 2 { // count, mean
		t.Fatalf("window 0 = %v, want count=2 mean=2", pts[0].Vals)
	}
	if pts[1].Vals[0] != 1 || pts[1].Vals[3] != 7 { // count, max
		t.Fatalf("window 1 = %v, want count=1 max=7", pts[1].Vals)
	}
}

// TestFlushPartialWindow pins that Flush emits the trailing partial
// window and that a Flush at an exact boundary does not double-emit.
func TestFlushPartialWindow(t *testing.T) {
	r := New(Config{Window: time.Second, Capacity: 8})
	var ops uint64
	r.Counts("ops", []string{"value"}, func(tot []uint64) { tot[0] = ops })
	r.Tick(0)
	ops += 2
	r.Flush(1500 * time.Millisecond) // full window [0,1s) + partial [1s,1.5s)
	pts := r.Points("ops")
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2 (full + partial)", len(pts))
	}
	if pts[0].Vals[0] != 2 || pts[1].Vals[0] != 0 {
		t.Fatalf("deltas = %v,%v, want 2,0", pts[0].Vals[0], pts[1].Vals[0])
	}

	r2 := New(Config{Window: time.Second, Capacity: 8})
	r2.Counts("ops", []string{"value"}, func(tot []uint64) { tot[0] = ops })
	r2.Tick(0)
	ops += 5
	r2.Flush(time.Second) // exact boundary: one window only
	if got := len(r2.Points("ops")); got != 1 {
		t.Fatalf("boundary flush emitted %d points, want 1", got)
	}
}

// TestLPRoundTrip pins that WriteLP output parses back into the same
// names, tags, fields, and timestamps, and that emission is
// deterministic (two dumps are byte-identical).
func TestLPRoundTrip(t *testing.T) {
	r := New(Config{Window: time.Second, Capacity: 8, EpochNs: 1000})
	r.SetTag("zone", "eu west") // space forces escaping
	r.SetTag("exp", "E15")
	var lookups uint64
	r.Counts("lookups", []string{"value"}, func(tot []uint64) { tot[0] = lookups })
	d := r.Dist("hops")
	r.Gauge("live_nodes", []string{"value"}, func(v []float64) { v[0] = 39.5 })
	r.Tick(0)
	lookups += 3
	d.Observe(2)
	d.Observe(4)
	r.Tick(time.Second)
	r.Tick(2 * time.Second)

	var b1, b2 bytes.Buffer
	if err := r.WriteLP(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteLP(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two WriteLP dumps differ")
	}

	pts, err := ParseLP(&b1)
	if err != nil {
		t.Fatalf("ParseLP: %v", err)
	}
	// 3 series x 2 windows
	if len(pts) != 6 {
		t.Fatalf("parsed %d points, want 6", len(pts))
	}
	for _, p := range pts {
		if p.Tags["exp"] != "E15" || p.Tags["zone"] != "eu west" {
			t.Fatalf("tags lost: %v", p.Tags)
		}
	}
	if pts[0].Name != "lookups" || pts[0].Fields["value"] != 3 || pts[0].TS != 1000 {
		t.Fatalf("first point = %+v, want lookups value=3 ts=1000", pts[0])
	}
	if pts[2].Name != "hops" || pts[2].Fields["p99"] != 4 || pts[2].Fields["count"] != 2 {
		t.Fatalf("hops point = %+v", pts[2])
	}
	// Tags must be sorted by key in the raw text.
	line := strings.SplitN(b2.String(), "\n", 2)[0]
	if !strings.HasPrefix(line, `lookups,exp=E15,zone=eu\ west `) {
		t.Fatalf("tag order/escaping wrong: %q", line)
	}
}

// TestTickFastPath pins that ticks inside a window emit nothing.
func TestTickFastPath(t *testing.T) {
	r := New(Config{Window: time.Second, Capacity: 8})
	r.Gauge("g", []string{"value"}, func(v []float64) { v[0] = 1 })
	r.Tick(0)
	for i := 0; i < 100; i++ {
		r.Tick(time.Duration(i) * time.Millisecond)
	}
	if got := len(r.Points("g")); got != 0 {
		t.Fatalf("mid-window ticks flushed %d points, want 0", got)
	}
}

// TestCountsBaselineAndReset pins the one delta rule: registration reads
// the baseline (what was counted before it is not emitted, what is
// counted after it always is), and a total that falls rebases and emits 0
// for that window.
func TestCountsBaselineAndReset(t *testing.T) {
	r := New(Config{Window: time.Second, Capacity: 8})
	tot := []uint64{5, 9}
	r.Counts("c", []string{"a", "b"}, func(out []uint64) { copy(out, tot) })
	tot[0] += 3 // before the first tick: still counted
	r.Tick(0)
	tot[1] += 1
	r.Tick(time.Second)
	tot[0], tot[1] = 1, 12 // a slot reused: a falls, b grows
	r.Tick(2 * time.Second)
	tot[0] += 2
	r.Tick(3 * time.Second)
	var got [][]float64
	for _, p := range r.Points("c") {
		got = append(got, p.Vals)
	}
	want := [][]float64{{3, 1}, {0, 2}, {2, 0}}
	if len(got) != len(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("windows = %v, want %v", got, want)
		}
	}
}

// FuzzParseLP pins the export format from both sides: WriteLP output for
// any series name and tag parses back to the same point, and no input —
// the seed corpus includes a real pastnode dump — makes ParseLP panic.
func FuzzParseLP(f *testing.F) {
	dump, err := os.ReadFile("testdata/pastnode.lp")
	if err != nil {
		f.Fatal(err)
	}
	f.Add("past", "node", `a\`, dump)
	f.Add(`a\,b`, `x\ y`, "#=\n\r", []byte("x,k=v value=1 0\n"))
	f.Add("#comment", "", "", []byte(`a\ b,c\=d=\\ value=1,x=-2 7`))
	f.Fuzz(func(t *testing.T, name, key, val string, raw []byte) {
		ParseLP(bytes.NewReader(raw)) //nolint:errcheck // only must not panic

		r := New(Config{Window: time.Second, Capacity: 2, EpochNs: 7})
		r.SetTag(key, val)
		r.SetTag("z", "1")
		r.Gauge(name, []string{"value", "x"}, func(v []float64) { v[0], v[1] = 1.5, -2 })
		r.Tick(0)
		r.Tick(time.Second)
		var b bytes.Buffer
		if err := r.WriteLP(&b); err != nil {
			t.Fatal(err)
		}
		text := b.String()
		pts, err := ParseLP(&b)
		if err != nil {
			t.Fatalf("ParseLP(WriteLP) = %v on %q", err, text)
		}
		tags := map[string]string{key: val}
		tags["z"] = "1" // SetTag("z") came second
		if len(pts) != 1 || pts[0].Name != name || !maps.Equal(pts[0].Tags, tags) || pts[0].TS != 7 ||
			pts[0].Fields["value"] != 1.5 || pts[0].Fields["x"] != -2 || len(pts[0].Fields) != 2 {
			t.Fatalf("round trip of %q lost data: %+v", text, pts)
		}
	})
}
