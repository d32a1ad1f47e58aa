package chaos

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"past/internal/transport"
	"past/internal/wire"
)

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

// counter records delivered nonces on a transport.
func counter(tr *transport.TCP) func() int {
	var mu sync.Mutex
	n := 0
	tr.SetHandler(func(string, wire.Msg) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
}

// TestDecisionDeterminism pins the core contract: fault decisions are a
// pure function of (seed, link, frame index).
func TestDecisionDeterminism(t *testing.T) {
	l := Link{From: "127.0.0.1:1", To: "127.0.0.1:2"}
	rule := LinkRule{Drop: 0.5}
	a := Drops(42, l, rule, 1000)
	b := Drops(42, l, rule, 1000)
	if len(a) != len(b) {
		t.Fatalf("same seed, different drop counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) < 350 || len(a) > 650 {
		t.Fatalf("drop rate wildly off: %d/1000 at p=0.5", len(a))
	}
	// Different seeds and different links draw different streams.
	if s := FormatLinkLog(43, l, rule, 1000); s == FormatLinkLog(42, l, rule, 1000) {
		t.Fatal("seed does not influence the decision stream")
	}
	l2 := Link{From: "127.0.0.1:2", To: "127.0.0.1:1"}
	if FormatLinkLog(42, l2, rule, 1000) == FormatLinkLog(42, l, rule, 1000) {
		t.Fatal("link direction does not influence the decision stream")
	}
	// Prefix stability: the first n decisions never depend on how many
	// more frames follow.
	short := FormatLinkLog(42, l, rule, 10)
	if !strings.Contains(short, "frames=10") {
		t.Fatalf("unexpected log line: %s", short)
	}
	longDrops := Drops(42, l, rule, 1000)
	shortDrops := Drops(42, l, rule, 10)
	for i, d := range shortDrops {
		if longDrops[i] != d {
			t.Fatal("drop stream is not prefix-stable")
		}
	}
}

// TestProxyRelayAndFaultLogReplay sends a fixed number of frames through
// a 30%-drop link and asserts (a) exactly the scheduled frames were
// dropped and (b) the live fault log matches the offline recomputation
// byte-for-byte — the replays-identically-for-a-seed acceptance check.
func TestProxyRelayAndFaultLogReplay(t *testing.T) {
	sched := Schedule{Seed: 7, Default: LinkRule{Drop: 0.3}}
	p, err := New(sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{DialVia: p.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	got := counter(b)

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), wire.Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			time.Sleep(5 * time.Millisecond) // keep the bounded queue from overflowing
		}
	}
	link := Link{From: a.Addr(), To: b.Addr()}
	expectDrops := len(Drops(sched.Seed, link, sched.Default, n))
	waitFor(t, 10*time.Second, func() bool {
		st := p.Stats()[link]
		return st.Frames == n && got() == n-expectDrops
	})
	st := p.Stats()[link]
	if int(st.Dropped) != expectDrops {
		t.Fatalf("dropped %d frames, schedule says %d", st.Dropped, expectDrops)
	}

	// Byte-identical replay: live log == offline recomputation.
	want := formatLog(sched.Seed, map[Link]string{link: FormatLinkLog(sched.Seed, link, sched.Default, n)})
	if log := p.FaultLog(); log != want {
		t.Fatalf("fault log diverges from recomputation:\nlive:\n%s\nwant:\n%s", log, want)
	}
}

// TestProxyPartitionHeal cuts a link mid-traffic and heals it: deliveries
// stall during the cut (established pipes die, new dials are refused) and
// resume after heal.
func TestProxyPartitionHeal(t *testing.T) {
	p, err := New(Schedule{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{DialVia: p.Addr(), DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	got := counter(b)

	waitFor(t, 5*time.Second, func() bool {
		a.Send(b.Addr(), wire.Ping{Nonce: 1})
		return got() >= 1
	})

	p.Partition([]string{a.Addr()}, []string{b.Addr()})
	// Flush the death of the established pipe, then verify nothing flows.
	for i := 0; i < 5; i++ {
		a.Send(b.Addr(), wire.Ping{Nonce: 2})
		time.Sleep(50 * time.Millisecond)
	}
	before := got()
	for i := 0; i < 5; i++ {
		a.Send(b.Addr(), wire.Ping{Nonce: 3})
		time.Sleep(50 * time.Millisecond)
	}
	if after := got(); after != before {
		t.Fatalf("partitioned link delivered %d frames", after-before)
	}

	p.Heal()
	healed := got()
	waitFor(t, 5*time.Second, func() bool {
		a.Send(b.Addr(), wire.Ping{Nonce: 4})
		return got() > healed
	})
}

// TestProxyScheduledWindow exercises a timed partition from the
// schedule: the link is cut for the window's duration and heals by
// itself.
func TestProxyScheduledWindow(t *testing.T) {
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	// Reserve the dialer's address up front so the window can name it
	// before the transport exists (the schedule is fixed at proxy start).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	aAddr := ln.Addr().String()
	ln.Close()
	p, err := New(Schedule{Seed: 1, Windows: []Window{{From: 0, Until: 600 * time.Millisecond, A: []string{aAddr}, B: []string{b.Addr()}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	a, err := transport.ListenTCPOpts(aAddr, transport.TCPOptions{DialVia: p.Addr(), DialTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	got := counter(b)

	a.Send(b.Addr(), wire.Ping{Nonce: 1})
	time.Sleep(150 * time.Millisecond)
	if got() != 0 {
		t.Fatal("frame delivered during scheduled window")
	}
	waitFor(t, 5*time.Second, func() bool {
		a.Send(b.Addr(), wire.Ping{Nonce: 2})
		return got() >= 1
	})
}

// TestProxyLatencyAndReset verifies added latency is observable and that
// ResetEvery tears connections down while traffic still makes progress
// through redials.
func TestProxyLatencyAndReset(t *testing.T) {
	link := func(a, b *transport.TCP) Link { return Link{From: a.Addr(), To: b.Addr()} }
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	p, err := New(Schedule{Seed: 3, Default: LinkRule{Latency: 120 * time.Millisecond, ResetEvery: 5}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	a, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{DialVia: p.Addr(), DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	got := counter(b)

	start := time.Now()
	a.Send(b.Addr(), wire.Ping{Nonce: 0})
	waitFor(t, 5*time.Second, func() bool { return got() >= 1 })
	if d := time.Since(start); d < 120*time.Millisecond {
		t.Fatalf("first delivery took %v, injected latency is 120ms(+connect)", d)
	}

	// Keep sending through resets: progress must continue via redial.
	waitFor(t, 20*time.Second, func() bool {
		a.Send(b.Addr(), wire.Ping{Nonce: 9})
		time.Sleep(20 * time.Millisecond)
		return got() >= 12 && p.Stats()[link(a, b)].Resets >= 1
	})
}

// TestProxyBandwidthCap paces a capped link: two 30 KiB frames at
// 100 KiB/s cannot both land in under ~300ms.
func TestProxyBandwidthCap(t *testing.T) {
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	p, err := New(Schedule{Seed: 3, Default: LinkRule{BytesPerSec: 100 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	a, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{DialVia: p.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	got := counter(b)

	start := time.Now()
	payload := make([]byte, 40<<10)
	a.Send(b.Addr(), wire.ReplicaStore{Data: payload})
	a.Send(b.Addr(), wire.ReplicaStore{Data: payload})
	waitFor(t, 10*time.Second, func() bool { return got() == 2 })
	if d := time.Since(start); d < 350*time.Millisecond {
		t.Fatalf("80 KiB crossed a 100 KiB/s link in %v", d)
	}
}
