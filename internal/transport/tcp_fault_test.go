package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"past/internal/wire"
)

// countHandler installs a handler on tr that counts delivered messages.
func countHandler(tr *TCP) func() int {
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

// TestTCPTruncatedFrame kills the sending side mid-frame: the receiver
// must drop the connection without delivering the partial message and
// keep serving other peers.
func TestTCPTruncatedFrame(t *testing.T) {
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	got := countHandler(b)

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Announce a 1000-byte frame, send 10 bytes, slam the connection shut.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1000)
	conn.Write(hdr[:])
	conn.Write(make([]byte, 10))
	conn.Close()

	// A healthy peer must still get through afterwards.
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	a.Send(b.Addr(), wire.Ping{Nonce: 1})
	waitFor(t, func() bool { return got() == 1 })
}

// TestTCPOversizedFrameRejected sends a frame whose announced size
// exceeds MaxFrame: the receiver must kill that connection before
// allocating, deliver nothing from it, and keep serving others.
func TestTCPOversizedFrameRejected(t *testing.T) {
	b, err := ListenTCPOpts("127.0.0.1:0", TCPOptions{MaxFrame: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	got := countHandler(b)

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30) // 1 GiB announcement
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The receiver must hang up on us (rather than waiting for a gigabyte).
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after oversized announcement")
	}
	if got() != 0 {
		t.Fatal("oversized frame delivered")
	}

	// Zero-length announcements are rejected the same way.
	conn2, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	binary.BigEndian.PutUint32(hdr[:], 0)
	conn2.Write(hdr[:])
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn2.Read(buf); err == nil {
		t.Fatal("connection still open after zero-length announcement")
	}
}

// TestTCPOversizedSendRefusedLocally verifies the sender side: a message
// that encodes past MaxFrame is refused before any byte is written and
// only that frame is lost — counted in Oversize, the connection still up
// (no redial), a frame queued right behind it delivered.
func TestTCPOversizedSendRefusedLocally(t *testing.T) {
	a, err := ListenTCPOpts("127.0.0.1:0", TCPOptions{MaxFrame: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	var mu sync.Mutex
	var got []wire.Msg
	b.SetHandler(func(_ string, m wire.Msg) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})

	big := wire.ReplicaStore{Data: make([]byte, 1<<20)}
	if err := a.Send(b.Addr(), big); err != nil {
		t.Fatalf("oversized send must be silent local loss, got %v", err)
	}
	a.Send(b.Addr(), wire.Ping{Nonce: 2})
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 })
	mu.Lock()
	defer mu.Unlock()
	if p, ok := got[0].(wire.Ping); !ok || p.Nonce != 2 {
		t.Fatalf("got %#v, want the ping queued behind the oversized frame", got[0])
	}
	if d := a.Stats().Dials; d != 1 {
		t.Fatalf("%d dials: the oversized frame cost the connection", d)
	}
	if n := a.Stats().Oversize; n != 1 {
		t.Fatalf("Oversize = %d, want 1", n)
	}
}

// TestEncodeFrameRefusesBeforeEncoding: an oversize message is refused by
// its size alone, so the sender's pooled buffer comes back untouched and
// the message is never copied.
func TestEncodeFrameRefusesBeforeEncoding(t *testing.T) {
	buf := make([]byte, 0, 64)
	big := wire.ReplicaStore{Data: make([]byte, 1<<20)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := encodeFrame(buf, "a:1", big, 1<<10)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errOversize) {
		t.Fatalf("err = %v, want errOversize", err)
	}
	if len(out) != 0 || cap(out) != 64 {
		t.Fatalf("buffer came back len %d cap %d, want 0 and 64", len(out), cap(out))
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
		t.Fatalf("refusing allocated %d bytes: the message was encoded first", n)
	}
}

// TestTCPPeerCloseNoticedWithoutSend restarts the receiver on the same
// address. Nobody sends in between: the sender's watcher must notice the
// old connection die on its own and forget the peer, so the very first
// Send after the restart redials and is delivered.
func TestTCPPeerCloseNoticedWithoutSend(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	got1 := countHandler(b1)
	a.Send(addr, wire.Ping{Nonce: 1})
	waitFor(t, func() bool { return got1() == 1 })

	b1.Close()
	var b2 *TCP
	waitFor(t, func() bool {
		b2, err = ListenTCP(addr)
		return err == nil
	})
	t.Cleanup(func() { b2.Close() })
	got2 := countHandler(b2)
	waitFor(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.peers[addr] == nil
	})

	a.Send(addr, wire.Ping{Nonce: 2})
	waitFor(t, func() bool { return got2() == 1 })
	if d := a.Stats().Dials; d != 2 {
		t.Fatalf("%d dials, want one per incarnation of the peer", d)
	}
}

// TestTCPQueueDropsCounted fills a peer's send queue while its dial is
// still pending (a via proxy that accepts and never acks): the queue
// holds 256 messages and every send past that is dropped and counted.
func TestTCPQueueDropsCounted(t *testing.T) {
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	a, err := ListenTCPOpts("127.0.0.1:0", TCPOptions{DialVia: stall.Addr().String(), DialTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const sends, queue = 300, 256
	for i := 0; i < sends; i++ {
		a.Send("127.0.0.1:9", wire.Ping{Nonce: uint64(i)})
	}
	if d := a.Stats().QueueDrops; d != sends-queue {
		t.Fatalf("QueueDrops = %d, want %d", d, sends-queue)
	}
	// Hang up on the pending dial so Close need not wait out DialTimeout.
	conn, err := stall.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	a.Close()
}

// TestTCPReconnectAfterRestart restarts the receiving node on the SAME
// address (as a crashed-and-recovered daemon would) and verifies the
// sender's cached connection heals: the first sends after the restart may
// be lost (the cached conn dies, UDP-like), but a later Send redials and
// delivers.
func TestTCPReconnectAfterRestart(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	got1 := countHandler(b1)
	a.Send(addr, wire.Ping{Nonce: 1})
	waitFor(t, func() bool { return got1() == 1 })

	// "Crash" b and restart it on the same port.
	b1.Close()
	var b2 *TCP
	waitFor(t, func() bool {
		b2, err = ListenTCP(addr)
		return err == nil
	})
	t.Cleanup(func() { b2.Close() })
	got2 := countHandler(b2)

	// Keep sending: the first write surfaces the dead conn and drops it;
	// a subsequent Send must redial the restarted node and deliver.
	waitFor(t, func() bool {
		a.Send(addr, wire.Ping{Nonce: 3})
		return got2() >= 1
	})
}

// TestTCPDialTimeoutBounded sends to a blackholed address with a short
// DialTimeout and asserts Send returns within a bound, without error
// (silent loss). 192.0.2.0/24 is TEST-NET-1, guaranteed unroutable;
// sandboxed CI may refuse it instantly, which also satisfies the bound.
func TestTCPDialTimeoutBounded(t *testing.T) {
	a, err := ListenTCPOpts("127.0.0.1:0", TCPOptions{DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	start := time.Now()
	if err := a.Send("192.0.2.1:9", wire.Ping{}); err != nil {
		t.Fatalf("unreachable peer must be silent loss, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Send blocked %v; DialTimeout=200ms not honored", d)
	}
}

// TestTCPGarbagePayloadDropped feeds a well-framed but undecodable
// payload: the connection dies, nothing is delivered, and the transport
// survives.
func TestTCPGarbagePayloadDropped(t *testing.T) {
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	got := countHandler(b)

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("this is not a frame")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	conn.Write(hdr[:])
	conn.Write(payload)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after garbage payload")
	}
	if got() != 0 {
		t.Fatal("garbage delivered to handler")
	}
	if n := b.Stats().DecodeErrors; n != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", n)
	}
}

// FuzzReadRawFrame: on any bytes and frame limit ReadRawFrame never
// panics. A zero or over-limit announcement is refused after the 4-byte
// header, before anything is allocated for it; an accepted frame is
// exactly the announced payload and nothing past it; and WriteRawFrame's
// framing of that payload reads back identical. Seeded from the fault
// suites above.
func FuzzReadRawFrame(f *testing.F) {
	frame := func(announced uint32, body []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, announced), body...)
	}
	f.Add(frame(1000, make([]byte, 10)), uint16(1<<10))            // truncated
	f.Add(frame(1<<30, nil), uint16(1<<10))                        // oversized
	f.Add(frame(0, []byte("x")), uint16(1<<10))                    // zero length
	f.Add(frame(19, []byte("this is not a frame")), uint16(1<<10)) // framed garbage
	f.Add(frame(4, []byte("pingpong")), uint16(4))                 // a frame and what follows
	f.Add(frame(5, []byte("exact")), uint16(5))                    // at the limit
	f.Fuzz(func(t *testing.T, in []byte, limit uint16) {
		maxFrame := int(limit)
		r := bytes.NewReader(in)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, err := ReadRawFrame(r, maxFrame)
		runtime.ReadMemStats(&after)
		read := len(in) - r.Len()
		if len(in) < 4 {
			if err == nil {
				t.Fatalf("accepted %d bytes, shorter than a header", len(in))
			}
			return
		}
		n := binary.BigEndian.Uint32(in)
		if n == 0 || n > uint32(maxFrame) {
			if err == nil {
				t.Fatalf("announced length %d outside (0, %d] accepted", n, maxFrame)
			}
			if read != 4 {
				t.Fatalf("refused announcement %d after reading %d bytes, want the 4-byte header", n, read)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; n >= 1<<16 && grew >= uint64(n) {
				t.Fatalf("refusing announcement %d allocated %d bytes", n, grew)
			}
			return
		}
		if err != nil {
			if len(in) >= 4+int(n) {
				t.Fatalf("complete %d-byte frame refused: %v", n, err)
			}
			return
		}
		if !bytes.Equal(payload, in[4:4+n]) || read != 4+int(n) {
			t.Fatalf("accepted %d-byte frame: payload %q after reading %d bytes", n, payload, read)
		}
		var back bytes.Buffer
		if err := WriteRawFrame(&back, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), in[:4+n]) {
			t.Fatalf("WriteRawFrame framed %q as %x, want %x", payload, back.Bytes(), in[:4+n])
		}
		again, err := ReadRawFrame(&back, maxFrame)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("rewritten frame read back as %q, %v", again, err)
		}
	})
}
