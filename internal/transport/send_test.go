package transport

import (
	"bytes"
	"maps"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"past/internal/wire"
)

// tcpGoroutines counts the goroutines running a *TCP method, by method:
// acceptLoop, readLoop, connect, watch, flush, scheduleProbe (its timer).
func tcpGoroutines() map[string]int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	counts := map[string]int{}
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		for _, line := range bytes.Split(g, []byte("\n")) {
			_, method, ok := bytes.Cut(line, []byte("transport.(*TCP)."))
			if ok && !bytes.HasPrefix(line, []byte("created by")) {
				name, _, _ := bytes.Cut(method, []byte("("))
				counts[string(name)]++
				break
			}
		}
	}
	return counts
}

// tcpGoroutinesReach waits until the *TCP goroutines are exactly want.
func tcpGoroutinesReach(t *testing.T, want map[string]int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for got := tcpGoroutines(); !maps.Equal(got, want); got = tcpGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines by *TCP method: %v, want %v", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// An idle outbound connection costs two goroutines: the sender's watcher
// and the receiver's reader. No writer waits on it.
func TestOutboundConnectionGoroutines(t *testing.T) {
	const conns = 32
	src, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	var got atomic.Int64
	dsts := make([]*TCP, conns)
	for i := range dsts {
		if dsts[i], err = ListenTCP("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		d := dsts[i]
		t.Cleanup(func() { d.Close() })
		d.SetHandler(func(string, wire.Msg) { got.Add(1) })
	}
	for _, d := range dsts {
		src.Send(d.Addr(), wire.Heartbeat{}) //nolint:errcheck // asynchronous; counted below
	}
	waitFor(t, func() bool { return got.Load() == conns })
	tcpGoroutinesReach(t, map[string]int{"acceptLoop": 1 + conns, "watch": conns, "readLoop": conns})
	if s := src.Stats(); s.Dials != conns || s.QueueDrops != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// Several senders mix 100 B frames with 1–4 MiB ones to a receiver whose
// handler holds the first frame until every send is made, and pauses now
// and then after: the socket fills, writes come up short, a flusher takes
// over and the queue fills and overflows. Each sender's frames still
// arrive in the order sent, and the frames that never arrive are exactly
// the ones QueueDrops counts. A Close while a flusher is blocked on a full
// socket returns, and leaves no goroutine behind.
func TestSendOrderAcrossInlineAndFlush(t *testing.T) {
	const senders, perSender = 4, 100
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var mu sync.Mutex
	next := make([]uint64, senders)
	received := 0
	b.SetHandler(func(_ string, m wire.Msg) {
		<-gate
		r, ok := m.(wire.LookupReply)
		if !ok {
			return // the ping that connected
		}
		s, seq := r.ReqID>>32, r.ReqID&(1<<32-1)
		mu.Lock()
		if seq < next[s] {
			t.Errorf("sender %d: frame %d arrived after frame %d", s, seq, next[s]-1)
		}
		next[s] = seq + 1
		received++
		mu.Unlock()
		if seq%16 == 15 {
			time.Sleep(time.Millisecond)
		}
	})
	a.Send(b.Addr(), wire.Ping{}) //nolint:errcheck // connects; then held by the gate
	peer := func(to string) (connected, busy bool, queued int) {
		a.mu.Lock()
		p := a.peers[to]
		a.mu.Unlock()
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.conn != nil, p.busy, len(p.queue)
	}
	waitFor(t, func() bool { connected, busy, _ := peer(b.Addr()); return connected && !busy })
	big := bytes.Repeat([]byte{7}, 4<<20)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perSender {
				data := big[:100]
				if i%10 == 9 {
					data = big[:(1+(s+i)%4)<<20]
				}
				a.Send(b.Addr(), wire.LookupReply{ReqID: uint64(s)<<32 | uint64(i), Data: data}) //nolint:errcheck // counted below
			}
		}()
	}
	wg.Wait()
	if _, busy, queued := peer(b.Addr()); !busy || queued != maxQueue || a.Stats().QueueDrops == 0 {
		t.Fatalf("busy %v, %d queued, %d dropped: the socket never pushed back", busy, queued, a.Stats().QueueDrops)
	}
	close(gate)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return int64(received)+a.Stats().QueueDrops == senders*perSender
	})
	time.Sleep(50 * time.Millisecond) // nothing more may arrive
	mu.Lock()
	if drops := a.Stats().QueueDrops; int64(received)+drops != senders*perSender {
		t.Errorf("%d sent, %d received, %d counted as dropped", senders*perSender, received, drops)
	}
	mu.Unlock()
	if s := a.Stats(); s.Dials != 1 || b.Stats().DecodeErrors != 0 {
		t.Fatalf("stats %+v: a connection broke", s)
	}

	// Close a while its flusher is blocked on a receiver that reads nothing.
	c, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	c.SetHandler(func(string, wire.Msg) { <-hold })
	for i := 0; ; i++ {
		a.Send(c.Addr(), wire.LookupReply{ReqID: uint64(i), Data: big}) //nolint:errcheck // only the backlog matters
		if connected, busy, _ := peer(c.Addr()); connected && busy {
			break
		}
		if i == 100 {
			t.Fatal("no flusher after 100 frames of 4 MiB")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error)
	go func() { closed <- a.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while a flusher was blocked")
	}
	close(hold)
	b.Close()
	c.Close()
	tcpGoroutinesReach(t, map[string]int{})
}

// A handler that sends while Close runs does not deadlock it: Close
// closes the connections after releasing the transport's lock, and
// closing an inbound connection waits for the handler running in its
// read.
func TestCloseWhileHandlerSends(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP("127.0.0.1:0") // closed below, or left deadlocked
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	b.SetHandler(func(from string, m wire.Msg) {
		select {
		case entered <- struct{}{}:
		default:
		}
		time.Sleep(20 * time.Millisecond)
		b.Send(from, wire.Pong{}) //nolint:errcheck // fails once b is closed; that is the point
	})
	for i := range 10 {
		a.Send(b.Addr(), wire.Ping{Nonce: uint64(i)}) //nolint:errcheck // asynchronous
	}
	<-entered
	closed := make(chan error)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked against a handler calling Send")
	}
}

// syscr reads the process's count of read system calls, or false where
// /proc/self/io cannot be read.
func syscr() (int64, bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	var n int64
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("syscr: ")); ok {
			n, err = strconv.ParseInt(string(v), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// A 4 KiB frame ping-ponged between two transports costs one read: no
// 4-byte header read, and no read that finds the socket empty.
func TestFrameCostsOneRead(t *testing.T) {
	if _, ok := syscr(); !ok {
		t.Skip("/proc/self/io cannot be read")
	}
	const frames = 2000
	a, b := newPair(t)
	back := make(chan struct{})
	b.SetHandler(func(from string, m wire.Msg) { b.Send(from, m) }) //nolint:errcheck // the echo
	a.SetHandler(func(string, wire.Msg) { back <- struct{}{} })
	m := wire.CacheCopy{Data: make([]byte, 4<<10)}
	a.Send(b.Addr(), m) //nolint:errcheck // dials both ways
	<-back
	before, _ := syscr()
	for range frames / 2 {
		a.Send(b.Addr(), m) //nolint:errcheck // answered below
		<-back
	}
	after, _ := syscr()
	perFrame := float64(after-before) / frames
	if perFrame > 1.2 {
		t.Fatalf("%.2f reads per frame, want at most 1.2", perFrame)
	}
	t.Logf("%.3f reads per frame", perFrame)
}
