package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"past/internal/wire"
)

// TestBreakerStateMachine drives the breaker through its full lifecycle
// with explicit clocks: closed → open at threshold → suppressing while
// open → exactly one half-open probe → reopen with doubled cooldown on
// probe failure → fully reinstated on probe success.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(BreakerOptions{Threshold: 3, Cooldown: time.Second, MaxCooldown: 4 * time.Second})
	t0 := time.Unix(1000, 0)
	// Below threshold: always allowed.
	for i := 0; i < 2; i++ {
		if !b.Allow("x", t0) {
			t.Fatalf("fail %d: breaker open below threshold", i)
		}
		b.Fail("x", t0)
	}
	if !b.Allow("x", t0) {
		t.Fatal("breaker open at 2/3 failures")
	}
	b.Fail("x", t0) // third consecutive failure: opens for 1s
	if got := b.Opens(); got != 1 {
		t.Fatalf("opens = %d, want 1", got)
	}
	if b.Allow("x", t0.Add(500*time.Millisecond)) {
		t.Fatal("allowed while open")
	}
	if !b.Allow("y", t0) {
		t.Fatal("unrelated peer affected")
	}
	// Cooldown expired: exactly one probe.
	t1 := t0.Add(1100 * time.Millisecond)
	if !b.Allow("x", t1) {
		t.Fatal("probe not admitted after cooldown")
	}
	if b.Allow("x", t1) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe fails: reopens immediately with doubled cooldown (2s).
	b.Fail("x", t1)
	if got := b.Opens(); got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}
	if b.Allow("x", t1.Add(1500*time.Millisecond)) {
		t.Fatal("allowed during doubled cooldown")
	}
	t2 := t1.Add(2100 * time.Millisecond)
	if !b.Allow("x", t2) {
		t.Fatal("probe not admitted after doubled cooldown")
	}
	// Probe succeeds: peer fully reinstated, failure history gone.
	b.Success("x")
	for i := 0; i < 2; i++ {
		if !b.Allow("x", t2) {
			t.Fatal("not reinstated after successful probe")
		}
		b.Fail("x", t2)
	}
	if !b.Allow("x", t2) {
		t.Fatal("stale failure count survived Success")
	}
}

// TestBreakerDisabledZeroValue pins the off-by-default contract: the zero
// options never suppress and never count opens.
func TestBreakerDisabledZeroValue(t *testing.T) {
	b := newBreaker(BreakerOptions{})
	now := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		b.Fail("x", now)
		if !b.Allow("x", now) {
			t.Fatal("disabled breaker suppressed a dial")
		}
	}
	if b.Opens() != 0 {
		t.Fatal("disabled breaker counted opens")
	}
}

// TestTCPBreakerSuppressesThenReinstates exercises the breaker through
// the real transport: repeated sends to a dead address open the breaker
// (dials stop), and once the peer comes back a half-open probe reinstates
// it and traffic flows again.
func TestTCPBreakerSuppressesThenReinstates(t *testing.T) {
	a, err := ListenTCPOpts("127.0.0.1:0", TCPOptions{
		DialTimeout: 500 * time.Millisecond,
		Breaker:     BreakerOptions{Threshold: 2, Cooldown: 300 * time.Millisecond, MaxCooldown: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })

	// A port that refuses connections: listen, grab the addr, close.
	probe, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := probe.Addr()
	probe.Close()

	// Sends to the dead peer fail their dials until the breaker opens.
	waitFor(t, func() bool {
		a.Send(dead, wire.Ping{Nonce: 1})
		return a.Stats().BreakerOpens >= 1
	})
	// While open, sends are suppressed without dialing.
	dials := a.Stats().Dials
	a.Send(dead, wire.Ping{Nonce: 2})
	if st := a.Stats(); st.Suppressed == 0 {
		t.Fatalf("no suppressed sends while breaker open: %+v", st)
	} else if st.Dials != dials {
		t.Fatalf("breaker open but dial count moved %d -> %d", dials, st.Dials)
	}

	// Heal: restart the peer on the same address. The next probe dial
	// succeeds, reinstates the peer, and delivers.
	var b *TCP
	waitFor(t, func() bool {
		b, err = ListenTCP(dead)
		return err == nil
	})
	t.Cleanup(func() { b.Close() })
	got := countHandler(b)
	waitFor(t, func() bool {
		a.Send(dead, wire.Ping{Nonce: 3})
		return got() >= 1
	})
}

// TestTCPReachableProbeReinstates pins the active probe path: once the
// breaker opens, Reachable reports false (routing avoids the peer) and no
// user traffic flows — so the transport itself must probe the peer and
// flip Reachable back when the probe dial succeeds, with zero sends from
// the application in between.
func TestTCPReachableProbeReinstates(t *testing.T) {
	a, err := ListenTCPOpts("127.0.0.1:0", TCPOptions{
		DialTimeout: 500 * time.Millisecond,
		Breaker:     BreakerOptions{Threshold: 2, Cooldown: 200 * time.Millisecond, MaxCooldown: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })

	probe, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := probe.Addr()
	probe.Close()
	if !a.Reachable(dead) {
		t.Fatal("peer unreachable before any dial failed")
	}

	waitFor(t, func() bool {
		a.Send(dead, wire.Ping{Nonce: 1})
		return !a.Reachable(dead)
	})

	// Heal the peer. From here on the application sends nothing: only the
	// transport's own probe can reinstate the peer.
	var b *TCP
	waitFor(t, func() bool {
		b, err = ListenTCP(dead)
		return err == nil
	})
	t.Cleanup(func() { b.Close() })
	waitFor(t, func() bool { return a.Reachable(dead) })

	// And reinstatement is real: a send now delivers.
	got := countHandler(b)
	waitFor(t, func() bool {
		a.Send(dead, wire.Ping{Nonce: 2})
		return got() >= 1
	})
}

// TestTCPConcurrentRedial hammers one receiver from many concurrent
// sender goroutines while the receiver restarts on the same address
// mid-stream. Frames may be lost (UDP-like semantics) but must never be
// duplicated, and after closing both transports no goroutines may leak.
// Run under -race this also pins the dial/redial paths free of data
// races between concurrent senders sharing one peer entry.
func TestTCPConcurrentRedial(t *testing.T) {
	baseline := runtime.NumGoroutine()

	a, err := ListenTCPOpts("127.0.0.1:0", TCPOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()

	var mu sync.Mutex
	seen := make(map[uint64]int)
	record := func(tr *TCP) {
		tr.SetHandler(func(_ string, m wire.Msg) {
			if p, ok := m.(wire.Ping); ok {
				mu.Lock()
				seen[p.Nonce]++
				mu.Unlock()
			}
		})
	}
	record(b1)

	const senders, perSender = 8, 150
	var wg sync.WaitGroup
	start := make(chan struct{})
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			for i := 0; i < perSender; i++ {
				nonce := uint64(s)<<32 | uint64(i)
				if err := a.Send(addr, wire.Ping{Nonce: nonce}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				if i%20 == 19 {
					time.Sleep(time.Millisecond) // let the restart interleave
				}
			}
		}(s)
	}
	close(start)

	// Mid-stream, crash the receiver and restart it on the same port —
	// every sender's cached connection dies and must redial concurrently.
	time.Sleep(30 * time.Millisecond)
	b1.Close()
	var b2 *TCP
	waitFor(t, func() bool {
		b2, err = ListenTCP(addr)
		return err == nil
	})
	record(b2)
	wg.Wait()

	// Drain: sends still queued or with a flusher go out or drop; then verify no
	// nonce ever arrived twice.
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	dups := 0
	delivered := len(seen)
	for nonce, n := range seen {
		if n > 1 {
			dups++
			t.Errorf("nonce %#x delivered %d times", nonce, n)
		}
	}
	mu.Unlock()
	if dups > 0 {
		t.Fatalf("%d duplicated frames (of %d delivered)", dups, delivered)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered at all")
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	// All connector, flusher, watcher and reader goroutines must be gone.
	waitFor(t, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestViaPreambleRoundTrip pins the egress-proxy handshake framing: the
// preamble round-trips, never consumes past its newline, and malformed
// lines are rejected.
func TestViaPreambleRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteViaPreamble(&buf, "127.0.0.1:7001", "127.0.0.1:7002"); err != nil {
		t.Fatal(err)
	}
	// A raw frame follows the preamble on the same stream.
	payload := []byte("frame-payload")
	if err := WriteRawFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	from, to, err := ReadViaPreamble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if from != "127.0.0.1:7001" || to != "127.0.0.1:7002" {
		t.Fatalf("preamble = (%q, %q)", from, to)
	}
	got, err := ReadRawFrame(&buf, 1<<20)
	if err != nil {
		t.Fatalf("frame after preamble: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame corrupted by preamble read: %q", got)
	}

	for _, bad := range []string{"NOPE a b\n", "CHAOS1 onlyone\n", "CHAOS1 a b c d\n"} {
		if _, _, err := ReadViaPreamble(bytes.NewBufferString(bad)); err == nil {
			t.Fatalf("malformed preamble %q accepted", bad)
		}
	}
	if err := WriteViaPreamble(&buf, "with space", "x"); err == nil {
		t.Fatal("preamble with spaces accepted")
	}
	if _, _, err := ReadViaPreamble(bytes.NewBufferString(fmt.Sprintf("CHAOS1 %s", string(make([]byte, 1024))))); err == nil {
		t.Fatal("unbounded preamble accepted")
	}
}

// FuzzReadViaPreamble: on any bytes ReadViaPreamble never panics and never
// reads past the first newline (the frame stream behind it belongs to the
// proxy's relay), and a pair it accepts goes back through WriteViaPreamble
// and reads back as the same pair.
func FuzzReadViaPreamble(f *testing.F) {
	var ok bytes.Buffer
	WriteViaPreamble(&ok, "127.0.0.1:7001", "127.0.0.1:7002")
	WriteRawFrame(&ok, []byte("frame-payload"))
	f.Add(ok.Bytes())
	for _, bad := range []string{"NOPE a b\n", "CHAOS1 onlyone\n", "CHAOS1 a b c d\n", "CHAOS1\ta\tb\n", "\n", "CHAOS1 a b"} {
		f.Add([]byte(bad))
	}
	f.Add(fmt.Appendf(nil, "CHAOS1 %s", make([]byte, 1024)))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		from, to, err := ReadViaPreamble(r)
		read := len(in) - r.Len()
		if nl := bytes.IndexByte(in, '\n'); nl >= 0 && read > nl+1 {
			t.Fatalf("read %d bytes of %q, past the newline at %d", read, in, nl)
		}
		if err != nil {
			return
		}
		var back bytes.Buffer
		if err := WriteViaPreamble(&back, from, to); err != nil {
			t.Fatalf("WriteViaPreamble(%q, %q) refuses what ReadViaPreamble accepted: %v", from, to, err)
		}
		from2, to2, err := ReadViaPreamble(&back)
		if err != nil || from2 != from || to2 != to {
			t.Fatalf("(%q, %q) read back as (%q, %q), %v", from, to, from2, to2, err)
		}
	})
}
