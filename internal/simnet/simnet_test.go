package simnet

import (
	"maps"
	"strconv"
	"strings"
	"testing"
	"time"

	"past/internal/wire"
)

type testMsg struct{ N int }

func (testMsg) Kind() string { return "test" }

func TestAddrRoundTrip(t *testing.T) {
	i, err := Index(Addr(42))
	if err != nil || i != 42 {
		t.Fatalf("Index(Addr(42)) = %d, %v", i, err)
	}
	if _, err := Index("tcp:foo"); err == nil {
		t.Fatal("bad address should error")
	}
}

func TestDeliveryOrderAndLatency(t *testing.T) {
	// Distance a->b is |a-b| ms.
	n := New(Config{Seed: 1}, func(a, b int) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return float64(d)
	})
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	c := n.NewEndpoint()
	var got []int
	var at []time.Duration
	// A handler reads its own endpoint's clock: Net.Now is the last window
	// barrier, which trails the event being delivered.
	sink := func(e *Endpoint) func(string, wire.Msg) {
		return func(from string, m wire.Msg) {
			got = append(got, m.(testMsg).N)
			at = append(at, e.Clock().Now())
		}
	}
	b.SetHandler(sink(b))
	c.SetHandler(sink(c))
	// a->c (2ms) sent first, a->b (1ms) second: b must deliver first.
	if err := a.Send(c.Addr(), testMsg{2}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), testMsg{1}); err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2]", got)
	}
	if at[0] != time.Millisecond || at[1] != 2*time.Millisecond {
		t.Fatalf("delivery times %v", at)
	}
	if n.Messages() != 2 {
		t.Fatalf("Messages = %d", n.Messages())
	}
	if n.MessagesByKind()["test"] != 2 {
		t.Fatalf("by-kind counter wrong: %v", n.MessagesByKind())
	}
}

func TestCrashDropsTraffic(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	delivered := 0
	b.SetHandler(func(string, wire.Msg) { delivered++ })
	b.Crash()
	a.Send(b.Addr(), testMsg{1})
	n.RunUntilIdle()
	if delivered != 0 {
		t.Fatal("crashed node received a message")
	}
	b.Restart()
	a.Send(b.Addr(), testMsg{2})
	n.RunUntilIdle()
	if delivered != 1 {
		t.Fatal("restarted node should receive")
	}
	// A crashed sender's messages vanish without error.
	a.Crash()
	if err := a.Send(b.Addr(), testMsg{3}); err != nil {
		t.Fatalf("crashed sender Send: %v", err)
	}
	n.RunUntilIdle()
	if delivered != 1 {
		t.Fatal("message from crashed sender was delivered")
	}
}

func TestSendFilterModelsMaliciousNode(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	got := 0
	b.SetHandler(func(string, wire.Msg) { got++ })
	a.SetSendFilter(func(to string, m wire.Msg) bool {
		return m.(testMsg).N%2 == 0 // drop even payloads
	})
	for i := 0; i < 10; i++ {
		a.Send(b.Addr(), testMsg{i})
	}
	n.RunUntilIdle()
	if got != 5 {
		t.Fatalf("filter delivered %d, want 5", got)
	}
}

func TestDropProb(t *testing.T) {
	n := New(Config{Seed: 42, DropProb: 0.5}, nil)
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	got := 0
	b.SetHandler(func(string, wire.Msg) { got++ })
	for i := 0; i < 1000; i++ {
		a.Send(b.Addr(), testMsg{i})
	}
	n.RunUntilIdle()
	if got < 400 || got > 600 {
		t.Fatalf("with 50%% loss delivered %d of 1000", got)
	}
}

func TestTimersAndStop(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	clk := n.Clock()
	fired := []string{}
	var lastAt time.Duration
	clk.AfterFunc(3*time.Millisecond, func() { fired = append(fired, "c"); lastAt = clk.Now() })
	clk.AfterFunc(time.Millisecond, func() { fired = append(fired, "a") })
	tm := clk.AfterFunc(2*time.Millisecond, func() { fired = append(fired, "b") })
	if !tm.Stop() {
		t.Fatal("Stop should report pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report not pending")
	}
	n.RunUntilIdle()
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "c" {
		t.Fatalf("fired %v", fired)
	}
	if lastAt != 3*time.Millisecond {
		t.Fatalf("last timer fired at %v", lastAt)
	}
	// Going idle leaves the clock at the end of the last window.
	if clk.Now() != n.Now() || n.Now() < lastAt || n.Now() > lastAt+defaultLookahead {
		t.Fatalf("clock at %v, net at %v", clk.Now(), n.Now())
	}
}

func TestRunFor(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	clk := n.Clock()
	count := 0
	var tick func()
	tick = func() {
		count++
		clk.AfterFunc(10*time.Millisecond, tick)
	}
	clk.AfterFunc(10*time.Millisecond, tick)
	n.RunFor(95 * time.Millisecond)
	if count != 9 {
		t.Fatalf("ticks = %d, want 9", count)
	}
	if n.Now() != 95*time.Millisecond {
		t.Fatalf("RunFor should advance clock to deadline, got %v", n.Now())
	}
}

// pingPong bounces one message between two endpoints forever, one hop
// (one window) per delivery, and returns the delivery counter.
func pingPong(n *Net) *int {
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	got := new(int)
	a.SetHandler(func(string, wire.Msg) { *got++; a.Send(b.Addr(), testMsg{*got}) })
	b.SetHandler(func(string, wire.Msg) { *got++; b.Send(a.Addr(), testMsg{*got}) })
	a.Send(b.Addr(), testMsg{0})
	return got
}

func TestRunUntil(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	got := pingPong(n)
	ok := n.RunUntil(func() bool { return *got >= 3 }, 1000)
	if !ok || *got < 3 {
		t.Fatalf("RunUntil: ok=%v got=%d", ok, *got)
	}
	if *got >= 10 {
		t.Fatal("RunUntil should stop early")
	}
}

// TestTimerReleaseRecycles verifies that released timer handles are
// reused rather than reallocated, and that Release does not cancel a
// pending timer.
func TestTimerReleaseRecycles(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	fired := 0
	tm := n.AfterFunc(time.Millisecond, func() { fired++ })
	tm.Release() // release without Stop: timer must still fire
	tm2 := n.AfterFunc(2*time.Millisecond, func() { fired++ })
	if tm2 != tm {
		t.Fatal("released handle was not recycled")
	}
	n.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (Release must not cancel)", fired)
	}
	tm2.Release()
	tm2.Release() // double Release is a no-op, not a double free
	tm3 := n.AfterFunc(time.Millisecond, func() {})
	tm4 := n.AfterFunc(time.Millisecond, func() {})
	if tm3 == tm4 {
		t.Fatal("double Release handed the same handle out twice")
	}
}

// TestZeroConfig drives a Net built from the zero Config with no distance
// function — default window — through each run loop.
func TestZeroConfig(t *testing.T) {
	n := New(Config{}, nil)
	if n.Step() {
		t.Fatal("Step on an empty net reported work")
	}
	got := pingPong(n)
	if !n.Step() || *got != 1 {
		t.Fatalf("after one Step delivered %d, want 1", *got)
	}
	fired := 0
	n.AfterFunc(5*time.Millisecond, func() { fired++ })
	n.RunFor(10 * time.Millisecond)
	if fired != 1 || *got < 10 {
		t.Fatalf("RunFor(10ms): timer fired %d times, %d deliveries", fired, *got)
	}
	// The workload never goes idle and the condition never holds: the
	// event cap is what returns.
	before := *got
	if n.RunUntil(func() bool { return false }, 50) {
		t.Fatal("RunUntil reported a condition that never held")
	}
	if d := *got - before; d < 50 || d > 60 {
		t.Fatalf("RunUntil with a cap of 50 events processed %d", d)
	}
	ticks := 0
	n.SetBarrierHook(func(time.Duration) { ticks++ })
	n.RunFor(10 * time.Millisecond)
	if ticks < 10 {
		t.Fatalf("barrier hook ran %d times over ten windows", ticks)
	}
}

func TestSendErrors(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	a := n.NewEndpoint()
	if err := a.Send("sim:99", testMsg{}); err == nil {
		t.Fatal("send to unknown endpoint should error")
	}
	if err := a.Send("bogus", testMsg{}); err == nil {
		t.Fatal("send to malformed address should error")
	}
	a.Close()
	if err := a.Send(Addr(0), testMsg{}); err == nil {
		t.Fatal("send on closed endpoint should error")
	}
}

func TestProximity(t *testing.T) {
	n := New(Config{Seed: 1}, func(a, b int) float64 { return float64(a + b) })
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	if got := a.Proximity(b.Addr()); got != 1 {
		t.Fatalf("Proximity = %f", got)
	}
	if got := a.Proximity("bogus"); got < 1e8 {
		t.Fatalf("bad address should be far away, got %f", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		n := New(Config{Seed: 7, DropProb: 0.3, JitterFrac: 0.2}, func(a, b int) float64 { return 5 })
		a := n.NewEndpoint()
		b := n.NewEndpoint()
		var got []int
		b.SetHandler(func(from string, m wire.Msg) { got = append(got, m.(testMsg).N) })
		for i := 0; i < 100; i++ {
			a.Send(b.Addr(), testMsg{i})
		}
		n.RunUntilIdle()
		return got
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestTraceFn(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	b.SetHandler(func(string, wire.Msg) {})
	traces := 0
	n.TraceFn = func(at time.Duration, from, to string, m wire.Msg) { traces++ }
	a.Send(b.Addr(), testMsg{1})
	n.RunUntilIdle()
	if traces != 1 {
		t.Fatalf("traces = %d", traces)
	}
}

// TestResetCounters: a codec type (counted by its tag) and a type the
// codec does not know (counted by Kind) both count, both reset, and both
// count again from zero under their names.
func TestResetCounters(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	b.SetHandler(func(string, wire.Msg) {})
	send := func() {
		a.Send(b.Addr(), testMsg{1})
		a.Send(b.Addr(), wire.Heartbeat{})
		a.Send(b.Addr(), wire.Heartbeat{})
		n.RunUntilIdle()
	}
	want := map[string]uint64{"test": 1, wire.Heartbeat{}.Kind(): 2}
	send()
	if got := n.MessagesByKind(); !maps.Equal(got, want) {
		t.Fatalf("by kind %v, want %v", got, want)
	}
	n.ResetCounters()
	if n.Messages() != 0 || len(n.MessagesByKind()) != 0 {
		t.Fatalf("counters not reset: %d messages, by kind %v", n.Messages(), n.MessagesByKind())
	}
	send()
	if got := n.MessagesByKind(); n.Messages() != 3 || !maps.Equal(got, want) {
		t.Fatalf("after a reset: %d messages, by kind %v, want 3, %v", n.Messages(), got, want)
	}
}

// FuzzIndex: Index never panics and accepts exactly the addresses Addr
// writes, returning the index Addr was given.
func FuzzIndex(f *testing.F) {
	for _, s := range []string{
		"sim:0", "sim:42", "sim:007", "sim:00", "sim:+5", "sim:-1", "sim:", "sim", "", "tcp:1", "sim:1x", "sim: 1",
		"sim:9223372036854775807", "sim:9223372036854775808", "sim:18446744073709551616", "sim:99999999999999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		i, err := Index(s)
		// The reference: a non-negative int whose canonical form is s.
		want, perr := strconv.Atoi(strings.TrimPrefix(s, "sim:"))
		canonical := perr == nil && want >= 0 && Addr(want) == s
		switch {
		case canonical && (err != nil || i != want):
			t.Fatalf("Index(%q) = %d, %v; want %d", s, i, err, want)
		case !canonical && err == nil:
			t.Fatalf("Index(%q) = %d, but %q is not Addr of any index", s, i, s)
		case err == nil && Addr(i) != s:
			t.Fatalf("Addr(Index(%q)) = %q", s, Addr(i))
		}
	})
}

func BenchmarkSendDeliver(b *testing.B) {
	n := New(Config{Seed: 1}, nil)
	src := n.NewEndpoint()
	dst := n.NewEndpoint()
	dst.SetHandler(func(string, wire.Msg) {})
	addr := dst.Addr()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(addr, testMsg{i})
		n.Step()
	}
}
