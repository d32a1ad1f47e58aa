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

// TestBreakerStateMachine drives one address's record through its
// lifecycle with explicit clocks: closed below 3 failed dials, open for
// 500 ms at the third, one half-open dial admitted after the cooldown and
// none while it runs, reopened at each failed one with the cooldown
// doubled to its 2 s cap, and closed with its history gone by a dial that
// succeeds.
func TestBreakerStateMachine(t *testing.T) {
	var r addrRecord
	t0 := time.Unix(1000, 0)
	for i := range breakerThreshold - 1 {
		if r.failed(t0) {
			t.Fatalf("failure %d opened the address", i+1)
		}
		if !r.admit(t0) {
			t.Fatalf("dial refused after %d failures", i+1)
		}
	}
	if !r.failed(t0) {
		t.Fatal("third consecutive failure did not open the address")
	}
	if r.proximity() != far {
		t.Fatalf("proximity %v after a failed dial, want far", r.proximity())
	}
	now := t0
	for _, cooldown := range []time.Duration{firstCooldown, time.Second, maxCooldown, maxCooldown} {
		if r.admit(now.Add(cooldown - time.Millisecond)) {
			t.Fatalf("dial admitted inside a %v cooldown", cooldown)
		}
		now = now.Add(cooldown)
		if !r.admit(now) {
			t.Fatalf("no half-open dial after a %v cooldown", cooldown)
		}
		if r.admit(now) {
			t.Fatal("a second dial admitted while the half-open one runs")
		}
		if !r.failed(now) {
			t.Fatal("a failed half-open dial did not reopen the address")
		}
	}
	now = now.Add(maxCooldown)
	if !r.admit(now) {
		t.Fatal("no half-open dial after the capped cooldown")
	}
	r.dialled(3 * time.Millisecond)
	if r.openUntil.Load() != 0 || r.proximity() != 3 {
		t.Fatalf("after a successful dial: open until %d, proximity %v", r.openUntil.Load(), r.proximity())
	}
	for range breakerThreshold - 1 {
		if r.failed(now) {
			t.Fatal("failure history survived a successful dial")
		}
	}
}

// deadAddr returns a loopback address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	probe, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()
	return addr
}

// openAddr sends to addr until its third consecutive dial fails, which
// opens it, and returns when that has happened.
func openAddr(t *testing.T, a *TCP, addr string) {
	t.Helper()
	for i := range int64(breakerThreshold) {
		a.Send(addr, wire.Ping{Nonce: uint64(i)})
		waitFor(t, func() bool { return a.Stats().DialFailures == i+1 })
	}
	if s := a.Stats(); s.BreakerOpens != 1 || s.Dials != breakerThreshold {
		t.Fatalf("after %d failed dials: %+v, want one open", breakerThreshold, s)
	}
}

// TestTCPBreakerSuppressesThenReinstates exercises the breaker through
// the real transport: three failed dials open a dead address, sends to it
// are then dropped without a dial, and once the peer is back the first
// send after the cooldown dials it, delivers, and reinstates it.
func TestTCPBreakerSuppressesThenReinstates(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	dead := deadAddr(t)
	openAddr(t, a, dead)
	a.Send(dead, wire.Ping{Nonce: 10})
	if s := a.Stats(); s.Suppressed != 1 || s.Dials != breakerThreshold {
		t.Fatalf("a send to the open address: %+v, want it suppressed without a dial", s)
	}
	if a.Reachable(dead) {
		t.Fatal("open address reported reachable")
	}

	var b *TCP
	waitFor(t, func() bool {
		b, err = ListenTCP(dead)
		return err == nil
	})
	t.Cleanup(func() { b.Close() })
	got := countHandler(b)
	time.Sleep(firstCooldown)
	a.Send(dead, wire.Ping{Nonce: 11})
	waitFor(t, func() bool { return got() == 1 })
	if !a.Reachable(dead) {
		t.Fatal("peer not reinstated by the dial that delivered")
	}
	if s := a.Stats(); s.Dials != breakerThreshold+1 || s.DialFailures != breakerThreshold {
		t.Fatalf("%+v; want one more dial, and it succeeded", s)
	}
}

// TestTCPReachableProbeReinstates pins reinstatement when the application
// sends nothing: routing treats an open address as unreachable, so the
// only use of it is Reachable itself. Its first call after the cooldown
// starts the connection a Send would, and once that dial succeeds
// Reachable reports true again.
func TestTCPReachableProbeReinstates(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	dead := deadAddr(t)
	if !a.Reachable(dead) {
		t.Fatal("peer unreachable before any dial failed")
	}
	openAddr(t, a, dead)
	if a.Reachable(dead) {
		t.Fatal("open address reported reachable")
	}

	var b *TCP
	waitFor(t, func() bool {
		b, err = ListenTCP(dead)
		return err == nil
	})
	t.Cleanup(func() { b.Close() })
	waitFor(t, func() bool { return a.Reachable(dead) })
	if s := a.Stats(); s.Dials != breakerThreshold+1 {
		t.Fatalf("%d dials; want one more, the one Reachable started", s.Dials)
	}

	got := countHandler(b)
	a.Send(dead, wire.Ping{Nonce: 2})
	waitFor(t, func() bool { return got() == 1 })
}

// TestUnusedDeadAddressIsNotRedialled pins that nothing but a use redials
// an open address: 12 s with no use, six times the longest cooldown, add
// no dial, and one Send after the cooldown makes exactly one.
func TestUnusedDeadAddressIsNotRedialled(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	dead := deadAddr(t)
	openAddr(t, a, dead)
	time.Sleep(12 * time.Second)
	if d := a.Stats().Dials; d != breakerThreshold {
		t.Fatalf("%d dials after 12 s unused, want %d", d, breakerThreshold)
	}
	a.Send(dead, wire.Ping{Nonce: 10})
	waitFor(t, func() bool { return a.Stats().DialFailures == breakerThreshold+1 })
	a.Send(dead, wire.Ping{Nonce: 11})
	if s := a.Stats(); s.Dials != breakerThreshold+1 || s.BreakerOpens != 2 || s.Suppressed != 1 {
		t.Fatalf("after one send past the cooldown and one inside the next: %+v; want one dial more, one open more, one suppressed", s)
	}
}

// TestAddressRecordConcurrentUse hammers one dead and one live address
// with Send, Reachable and Proximity from many goroutines while the dead
// one opens and its cooldowns run out: under -race this pins the record's
// lock-free reads against its writes. Each dial to the dead address is
// the one attempt its state admits.
func TestAddressRecordConcurrentUse(t *testing.T) {
	a, b := newPair(t)
	dead := deadAddr(t)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 400 {
				for _, to := range []string{dead, b.Addr()} {
					switch (g + i) % 3 {
					case 0:
						a.Send(to, wire.Ping{Nonce: uint64(i)})
					case 1:
						a.Reachable(to)
					default:
						a.Proximity(to)
					}
				}
				if i%50 == 49 {
					time.Sleep(100 * time.Millisecond) // let cooldowns run out mid-hammer
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { s := a.Stats(); return s.Dials == s.DialFailures+1 })
	s := a.Stats()
	if s.BreakerOpens < 1 || s.Dials > 2*breakerThreshold {
		t.Fatalf("%+v; want the dead address open, and a handful of dials, not one per send", s)
	}
	if a.Reachable(dead) || !a.Reachable(b.Addr()) || a.Proximity(b.Addr()) == far {
		t.Fatal("records disagree with what the dials found")
	}
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
