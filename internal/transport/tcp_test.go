package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"past/internal/id"
	"past/internal/wire"
)

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

func newPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPSendReceive(t *testing.T) {
	a, b := newPair(t)
	var mu sync.Mutex
	var got []wire.Msg
	var fromAddr string
	b.SetHandler(func(from string, m wire.Msg) {
		mu.Lock()
		got = append(got, m)
		fromAddr = from
		mu.Unlock()
	})
	if err := a.Send(b.Addr(), wire.Ping{Nonce: 7}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 })
	mu.Lock()
	defer mu.Unlock()
	if p, ok := got[0].(wire.Ping); !ok || p.Nonce != 7 {
		t.Fatalf("got %#v", got[0])
	}
	if fromAddr != a.Addr() {
		t.Fatalf("from = %q, want %q", fromAddr, a.Addr())
	}
}

func TestTCPRoundTripComplexMessage(t *testing.T) {
	a, b := newPair(t)
	var mu sync.Mutex
	var got *wire.Routed
	b.SetHandler(func(from string, m wire.Msg) {
		mu.Lock()
		if r, ok := m.(wire.Routed); ok {
			got = &r
		}
		mu.Unlock()
	})
	sent := wire.Routed{
		Key:  id.Rand(1),
		Hops: 3,
		Payload: wire.InsertRequest{
			Cert: wire.FileCertificate{
				FileID:   id.RandFile(2),
				Size:     11,
				Replicas: 3,
				Salt:     []byte{1, 2},
				OwnerPub: []byte{3, 4, 5},
			},
			Data:   []byte("hello world"),
			Client: wire.NodeRef{ID: id.Rand(3), Addr: a.Addr()},
			ReqID:  99,
		},
	}
	a.Send(b.Addr(), sent)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return got != nil })
	mu.Lock()
	defer mu.Unlock()
	ir, ok := got.Payload.(wire.InsertRequest)
	if !ok {
		t.Fatalf("payload type %T", got.Payload)
	}
	if string(ir.Data) != "hello world" || ir.ReqID != 99 || got.Key != sent.Key {
		t.Fatal("fields corrupted in transit")
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := newPair(t)
	var mu sync.Mutex
	gotA, gotB := 0, 0
	a.SetHandler(func(from string, m wire.Msg) { mu.Lock(); gotA++; mu.Unlock() })
	b.SetHandler(func(from string, m wire.Msg) {
		mu.Lock()
		gotB++
		mu.Unlock()
		b.Send(from, wire.Pong{Nonce: 1})
	})
	for i := 0; i < 10; i++ {
		a.Send(b.Addr(), wire.Ping{Nonce: uint64(i)})
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return gotA == 10 && gotB == 10 })
}

func TestTCPSendToDeadPeerSilent(t *testing.T) {
	a, _ := newPair(t)
	// Nothing listens on this port (we bind and close to reserve/free it).
	dead, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	if err := a.Send(deadAddr, wire.Ping{}); err != nil {
		t.Fatalf("send to dead peer must be silent loss, got %v", err)
	}
}

// TestTCPProximityCached pins Proximity to the RTT of the connection the
// transport keeps: the first call answers far and dials nothing inline,
// it starts the one connection a Send then shares, whose RTT every later
// call reads; a refused address stays far and is not redialled per call.
func TestTCPProximityCached(t *testing.T) {
	a, b := newPair(t)
	if p := a.Proximity(b.Addr()); p != far {
		t.Fatalf("first call = %v, want far (%v) while the connection is pending", p, far)
	}
	waitFor(t, func() bool { return a.Proximity(b.Addr()) < far })
	p1 := a.Proximity(b.Addr())
	if p1 <= 0 || p1 > 1000 {
		t.Fatalf("loopback RTT %f implausible", p1)
	}
	got := countHandler(b)
	a.Send(b.Addr(), wire.Ping{Nonce: 1})
	waitFor(t, func() bool { return got() == 1 })
	if p2 := a.Proximity(b.Addr()); p2 != p1 {
		t.Fatalf("proximity moved %v -> %v without a new connection", p1, p2)
	}
	if s := a.Stats(); s.Dials != 1 {
		t.Fatalf("%d dials; Proximity and Send must share one connection", s.Dials)
	}

	dead, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	a.Proximity(deadAddr)
	waitFor(t, func() bool { return a.Stats().DialFailures == 1 })
	for range 3 {
		if p := a.Proximity(deadAddr); p != far {
			t.Fatalf("refused address at %v, want far", p)
		}
	}
	if s := a.Stats(); s.Dials != 2 || s.DialFailures != 1 {
		t.Fatalf("dials %d, failures %d; a refused address must not be redialled by Proximity", s.Dials, s.DialFailures)
	}
}

// TestProximityNeverWaitsOnDial routes the dial through a DialVia proxy
// that accepts and never acks, so the connection stays pending for the
// whole DialTimeout: Proximity, which pastry calls under its node lock,
// answers far at once throughout.
func TestProximityNeverWaitsOnDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ListenTCPOpts("127.0.0.1:0", TCPOptions{DialVia: ln.Addr().String(), DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	t.Cleanup(func() { ln.Close() })
	const peer = "127.0.0.1:9"
	check := func() {
		t.Helper()
		start := time.Now()
		p := a.Proximity(peer)
		if d := time.Since(start); d > 10*time.Millisecond || p != far {
			t.Fatalf("Proximity = %v after %v; want far within 10ms", p, d)
		}
	}
	check()
	var held net.Conn
	select {
	case held = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the dial never reached the proxy")
	}
	t.Cleanup(func() { held.Close() }) // fails the pending dial before a.Close waits for it
	for range 10 {
		check()
	}
	if s := a.Stats(); s.Dials != 1 || s.DialFailures != 0 {
		t.Fatalf("dials %d, failures %d; want the one dial, still pending", s.Dials, s.DialFailures)
	}
}

func TestTCPClose(t *testing.T) {
	a, b := newPair(t)
	a.Send(b.Addr(), wire.Ping{})
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Send(b.Addr(), wire.Ping{}); err == nil {
		t.Fatal("send after close should error")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestRealClock(t *testing.T) {
	c := NewRealClock()
	t0 := c.Now()
	fired := make(chan struct{})
	tm := c.AfterFunc(10*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	if c.Now() <= t0 {
		t.Fatal("clock did not advance")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
	tm2 := c.AfterFunc(time.Hour, func() { t.Error("should never fire") })
	if !tm2.Stop() {
		t.Fatal("Stop before fire should report true")
	}
}
