package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"past/internal/wire"
)

// TCPOptions tune the TCP transport. The zero value gives the defaults.
type TCPOptions struct {
	// DialTimeout bounds outbound connection attempts (default 3s). A
	// peer that cannot be reached within it is treated as silent loss,
	// like the simulator's unreliable sends.
	DialTimeout time.Duration
	// MaxFrame caps one frame's encoded size in bytes (default 8 MiB).
	// An inbound frame announcing a larger size kills the connection
	// before any allocation: a garbage or malicious length prefix cannot
	// make the node allocate unbounded memory.
	MaxFrame int
	// DialVia, when set, routes every outbound connection through the
	// egress proxy listening at this address instead of dialing peers
	// directly: the transport connects to DialVia, announces the intended
	// destination with a via preamble (see WriteViaPreamble), and waits
	// for a one-byte ack meaning the proxy reached the target. The chaos
	// harness uses this to interpose a deterministic fault injector
	// between real nodes; empty (the default) dials peers directly.
	DialVia string
	// Breaker configures the per-peer dial circuit breaker. The zero
	// value disables it entirely (every Send to an unconnected peer
	// redials), preserving the pre-breaker behavior.
	Breaker BreakerOptions
}

const (
	defaultDialTimeout = 3 * time.Second
	defaultMaxFrame    = 8 << 20
)

// TCPStats counts transport-level events since the transport started.
type TCPStats struct {
	// Dials counts outbound connection attempts, each for a connection the
	// transport keeps for its sends, and DialFailures the failed ones.
	Dials, DialFailures int64
	// Suppressed counts sends dropped without a dial because the peer's
	// circuit breaker was open.
	Suppressed int64
	// BreakerOpens counts open transitions (including re-opens after a
	// failed half-open probe).
	BreakerOpens int64
	// QueueDrops counts sends dropped because the peer's send queue was
	// full: its dial was pending, or its socket pushed back for too long.
	QueueDrops int64
	// DecodeErrors counts inbound frames that were well framed but did
	// not decode; each one also cost its connection.
	DecodeErrors int64
	// Oversize counts outbound messages dropped unsent because their frame
	// would exceed MaxFrame.
	Oversize int64
}

// TCP is a transport.Transport over real TCP connections. One listener
// accepts inbound peers; outbound connections are cached per destination.
// Each frame travels as a 4-byte big-endian length prefix followed by a
// self-contained body — the sender's address (so replies can flow without
// a handshake) and one message in package wire's frame encoding — so the
// reader can reject oversized frames before allocating and detect
// truncation (a peer dying mid-frame) as a short read rather than a
// corrupted stream. A frame leaves in one write on the sending goroutine
// and arrives, most often, in one read into a pooled staging buffer (see
// frameReader), so an idle connection holds no read buffer. Send never
// blocks on the network: dialing happens on a connector goroutine per
// peer (a slow or dead destination never stalls sends to healthy ones),
// a frame the socket does not take whole is finished by a flusher
// goroutine, and meanwhile sends wait in a bounded queue whose overflow
// drops (UDP-like semantics, matching the simulator). A watcher goroutine
// per outbound connection notices the peer hanging up. The RTT of the dial
// that opened a peer's connection is its proximity.
type TCP struct {
	addr        string
	ln          net.Listener
	dialTimeout time.Duration
	maxFrame    int
	dialVia     string
	breaker     *breaker
	handler     Handler
	handlerM    sync.RWMutex

	mu      sync.Mutex
	peers   map[string]*tcpPeer
	inbound map[net.Conn]bool
	probes  map[string]*time.Timer
	closed  atomic.Bool // set under mu; read bare by the readers' deliver

	prox sync.Map // address → float64: connect's last dial RTT, or far if it failed

	dials, dialFailures, suppressed, queueDrops, decodeErrors, oversize atomic.Int64

	wg sync.WaitGroup
}

// maxQueue bounds the sends a peer holds while its dial or flusher runs.
const maxQueue = 256

// far is the proximity of an address with no measured RTT.
const far = 1e9

// tcpPeer is one outbound destination. While it is connected and not
// busy, Send encodes a message and makes one non-blocking write (write,
// p.writeFd's method value) under mu. A frame the socket does not take
// whole goes, with its pooled buffer, to a flusher goroutine (busy), which
// finishes it, drains the queue and exits. The entry is installed in the
// peer map before the dial completes, so concurrent senders share one
// connection attempt instead of racing to dial.
type tcpPeer struct {
	mu    sync.Mutex
	conn  net.Conn // nil while the dial is pending
	rc    syscall.RawConn
	queue []wire.Msg
	busy  bool // a flusher owns the connection's writes

	write func(uintptr) bool // p.writeFd
	frame []byte             // writeFd writes frame, leaving n and err
	n     int
	err   error
}

// writeFd is the syscall.RawConn write callback: one non-blocking write,
// never a wait for the socket.
func (p *tcpPeer) writeFd(fd uintptr) bool {
	p.n, p.err = syscall.Write(int(fd), p.frame)
	return true
}

// ListenTCP starts a transport listening on the given address
// ("127.0.0.1:0" picks a free port) with default options.
func ListenTCP(listen string) (*TCP, error) {
	return ListenTCPOpts(listen, TCPOptions{})
}

// ListenTCPOpts is ListenTCP with explicit options.
func ListenTCPOpts(listen string, opts TCPOptions) (*TCP, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = defaultDialTimeout
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = defaultMaxFrame
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listen, err)
	}
	t := &TCP{
		addr:        ln.Addr().String(),
		ln:          ln,
		dialTimeout: opts.DialTimeout,
		maxFrame:    opts.MaxFrame,
		dialVia:     opts.DialVia,
		breaker:     newBreaker(opts.Breaker),
		peers:       make(map[string]*tcpPeer),
		inbound:     make(map[net.Conn]bool),
		probes:      make(map[string]*time.Timer),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements Transport.
func (t *TCP) Addr() string { return t.addr }

// SetHandler implements Transport.
func (t *TCP) SetHandler(h Handler) {
	t.handlerM.Lock()
	t.handler = h
	t.handlerM.Unlock()
}

// Reachable reports whether the dial circuit breaker would currently
// admit traffic to addr. With the breaker disabled it is always true.
// Installed as the overlay's reachability probe (pastry.Node.SetProbe),
// it turns transport-level failure knowledge into routing decisions: a
// peer whose breaker is open is routed around instead of timed out
// against.
func (t *TCP) Reachable(addr string) bool {
	return t.breaker.Reachable(addr)
}

// Stats returns transport counters. The snapshot is approximate under
// concurrency but each counter is individually exact.
func (t *TCP) Stats() TCPStats {
	return TCPStats{
		Dials:        t.dials.Load(),
		DialFailures: t.dialFailures.Load(),
		Suppressed:   t.suppressed.Load(),
		BreakerOpens: t.breaker.Opens(),
		QueueDrops:   t.queueDrops.Load(),
		DecodeErrors: t.decodeErrors.Load(),
		Oversize:     t.oversize.Load(),
	}
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// errOversize is encodeFrame's refusal of a frame past maxFrame.
var errOversize = errors.New("transport: frame exceeds limit")

// encodeFrame overwrites buf with one whole frame: length prefix, sender
// address, message. A frame that would encode beyond maxFrame is refused
// (errOversize) before it is encoded, so buf neither receives the copy nor
// grows to its size: better to drop one message than to ship something
// every receiver will kill the connection over. Otherwise buf grows to
// the frame's size at once, not by doublings as the fields go in.
func encodeFrame(buf []byte, from string, m wire.Msg, maxFrame int) ([]byte, error) {
	n := wire.FrameLen(from, m)
	if n > maxFrame {
		return buf, fmt.Errorf("%w: %d bytes, limit %d", errOversize, n, maxFrame)
	}
	out, err := wire.AppendFrame(append(slices.Grow(buf[:0], 4+n), 0, 0, 0, 0), from, m)
	if err != nil {
		return buf, err
	}
	binary.BigEndian.PutUint32(out, uint32(len(out)-4))
	return out, nil
}

// ReadRawFrame reads one length-prefixed frame and returns its payload
// without decoding it. It errors on a zero or oversized announced length
// before allocating, and on truncation. Exported for proxies (the chaos
// fault injector) that must preserve frame boundaries without
// understanding frame contents.
func ReadRawFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if err := checkFrameLen(n, maxFrame); err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// checkFrameLen refuses an announced frame length of zero or past
// maxFrame, before anything is allocated for it.
func checkFrameLen(n uint32, maxFrame int) error {
	if n == 0 || n > uint32(maxFrame) {
		return fmt.Errorf("transport: announced frame size %d outside (0, %d]", n, maxFrame)
	}
	return nil
}

// WriteRawFrame writes payload as one length-prefixed frame, the inverse
// of ReadRawFrame.
func WriteRawFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Via preamble: the first line a transport writes after connecting to a
// DialVia egress proxy, announcing who is dialing whom. The proxy answers
// with a single ViaAck byte once the target connection is up; anything
// else (or a closed connection) means the target is unreachable and the
// dial fails, preserving direct-dial failure semantics through the proxy.
const (
	viaMagic = "CHAOS1"
	// ViaAck is the byte the proxy writes once the target is connected.
	ViaAck = '+'
	// maxViaPreamble bounds the preamble line a proxy will read.
	maxViaPreamble = 512
)

// WriteViaPreamble writes the "CHAOS1 <from> <to>\n" dial preamble.
func WriteViaPreamble(w io.Writer, from, to string) error {
	if strings.ContainsAny(from+to, " \n") {
		return fmt.Errorf("transport: via preamble addresses must not contain spaces or newlines")
	}
	_, err := fmt.Fprintf(w, "%s %s %s\n", viaMagic, from, to)
	return err
}

// ReadViaPreamble reads one dial preamble byte-by-byte (never consuming
// past the newline, so the frame stream that follows stays intact) and
// returns the announced (from, to) addresses.
func ReadViaPreamble(r io.Reader) (from, to string, err error) {
	var line []byte
	var b [1]byte
	for len(line) < maxViaPreamble {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return "", "", err
		}
		if b[0] == '\n' {
			fields := strings.Fields(string(line))
			if len(fields) != 3 || fields[0] != viaMagic {
				return "", "", fmt.Errorf("transport: malformed via preamble %q", string(line))
			}
			return fields[1], fields[2], nil
		}
		line = append(line, b[0])
	}
	return "", "", fmt.Errorf("transport: via preamble exceeds %d bytes", maxViaPreamble)
}

// dial opens a connection to the peer at addr — directly, or through the
// DialVia egress proxy with the preamble handshake. In both modes a
// returned nil error means the destination (not just the proxy) accepted
// the connection within DialTimeout. connect is its one caller.
func (t *TCP) dial(addr string) (net.Conn, error) {
	t.dials.Add(1)
	if t.dialVia == "" {
		conn, err := net.DialTimeout("tcp", addr, t.dialTimeout)
		if err != nil {
			t.dialFailures.Add(1)
		}
		return conn, err
	}
	conn, err := net.DialTimeout("tcp", t.dialVia, t.dialTimeout)
	if err != nil {
		t.dialFailures.Add(1)
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(t.dialTimeout)); err != nil {
		conn.Close()
		t.dialFailures.Add(1)
		return nil, err
	}
	var ack [1]byte
	if err := WriteViaPreamble(conn, t.addr, addr); err == nil {
		_, err = io.ReadFull(conn, ack[:])
	}
	if err != nil || ack[0] != ViaAck {
		conn.Close()
		t.dialFailures.Add(1)
		return nil, fmt.Errorf("transport: via %s: %s unreachable", t.dialVia, addr)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		t.dialFailures.Add(1)
		return nil, err
	}
	return conn, nil
}

// stagingSize is the size of the buffer one read of an inbound connection
// lands in: a lookup request, a 4 KiB reply, a receipt or a heartbeat
// arrives whole in one read, and back-to-back frames share it.
const stagingSize = 16 << 10

// stagingBufs lend a staging buffer to one read at a time, on every
// inbound connection: a read borrows one only once its socket is readable
// and returns it before any frame it held is handled. Every frame is
// copied out into its own body first, so nothing aliases a staging buffer
// once it is back (read buffers proper — the bodies — are never pooled).
var stagingBufs = sync.Pool{New: func() any { return new([stagingSize]byte) }}

// frameReader is one inbound connection's framing state between reads.
// Only a partial header (at most 3 bytes) survives a read: every frame a
// read completes is copied into its own exact-size body, and a frame it
// begins is allocated whole and the next reads land straight in it.
type frameReader struct {
	maxFrame int
	read     func(fd int, p []byte) (int, error) // syscall.Read
	deliver  func(body []byte) bool              // false ends the connection
	hdr      [4]byte
	nhdr     int      // bytes of hdr received; below 4 between reads
	frames   [][]byte // the frames the last read completed, in order
	body     []byte   // a frame the last read began but did not finish
	have     int      // bytes of body received
	err      error    // why the last read ended the connection
}

// feed splits b, the next bytes of the stream, into frames. Each frame b
// completes is appended to r.frames as a fresh copy; a frame b begins and
// does not finish is left in r.body[:r.have]; up to 3 bytes of the next
// header stay in r.hdr. A zero or over-limit announced length is an error
// before anything is allocated for it. r.body must be nil on entry.
func (r *frameReader) feed(b []byte) error {
	for len(b) > 0 {
		k := copy(r.hdr[r.nhdr:], b)
		r.nhdr += k
		b = b[k:]
		if r.nhdr < len(r.hdr) {
			return nil
		}
		r.nhdr = 0
		n := binary.BigEndian.Uint32(r.hdr[:])
		if err := checkFrameLen(n, r.maxFrame); err != nil {
			return err
		}
		body := make([]byte, n)
		k = copy(body, b)
		b = b[k:]
		if k < len(body) {
			r.body, r.have = body, k
			return nil
		}
		r.frames = append(r.frames, body)
	}
	return nil
}

// readFd is the syscall.RawConn read callback, called for the connection's
// life. Each pass is one non-blocking read, into a begun frame's body or a
// staging buffer that goes back before the frames it held are delivered.
// A read that did not fill its buffer drained the socket, so readFd waits
// for the next arrival (false) without reading EAGAIN: RawConn.Read
// clears readiness once, before the first pass, and edge-triggered epoll
// sets it again on every arrival. The connection's end returns true.
func (r *frameReader) readFd(fd uintptr) bool {
	for {
		var buf *[stagingSize]byte
		dst := r.body[r.have:]
		if r.body == nil {
			buf = stagingBufs.Get().(*[stagingSize]byte)
			dst = buf[:]
		}
		n, err := r.read(int(fd), dst)
		switch {
		case err == syscall.EAGAIN || err == syscall.EINTR:
		case err != nil:
			r.err = err
		case n == 0:
			r.err = io.EOF
		case buf != nil:
			r.err = r.feed(buf[:n])
		case n == len(dst):
			r.frames = append(r.frames, r.body)
			r.body, r.have = nil, 0
		default:
			r.have += n
		}
		if buf != nil {
			stagingBufs.Put(buf)
		}
		for i, body := range r.frames {
			r.frames[i] = nil
			if !r.deliver(body) {
				return true
			}
		}
		r.frames = r.frames[:0]
		if cap(r.frames) > 8 {
			r.frames = nil // a burst of small frames leaves no long list behind
		}
		if r.err != nil {
			return true
		}
		if n < len(dst) && err != syscall.EINTR {
			return false
		}
	}
}

// readLoop reads conn's frames and hands them to the handler in order,
// from inside one RawConn.Read call (see readFd). EOF, a read error, a
// truncated, zero or oversized frame, one that does not decode, or the
// transport closing drops the connection.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	rc, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		return
	}
	var addrs wire.Addrs // the addresses this connection's frames name
	r := &frameReader{maxFrame: t.maxFrame, read: syscall.Read, deliver: func(body []byte) bool { return t.deliver(&addrs, body) }}
	rc.Read(r.readFd) //nolint:errcheck // it returns once the connection ends, however it ends
}

// deliver decodes one frame body, taking addresses already seen from
// addrs, and hands the message to the handler. The body is the message's
// for good: decoded byte fields alias it. It reports false for a frame
// that does not decode, which costs the connection, and once Close waits
// for the read: a sender that never pauses cannot hold it up.
func (t *TCP) deliver(addrs *wire.Addrs, body []byte) bool {
	if t.closed.Load() {
		return false
	}
	from, m, err := addrs.DecodeFrame(body)
	if err != nil {
		t.decodeErrors.Add(1)
		return false
	}
	t.handlerM.RLock()
	h := t.handler
	t.handlerM.RUnlock()
	if h != nil {
		h(from, m)
	}
	return true
}

// Send implements Transport. It connects lazily, then writes the message
// on the caller's goroutine, or queues it while a dial or flusher runs;
// a full queue drops it, the unreliable-datagram semantics the protocol
// layer expects. A failed write closes the connection, which the watcher
// sees. The dial runs on a connector goroutine — Send never blocks on the
// network, and concurrent senders to one new peer share one attempt.
func (t *TCP) Send(to string, m wire.Msg) error {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return errors.New("transport: closed")
	}
	p := t.peerLocked(to)
	t.mu.Unlock()
	if p == nil {
		t.suppressed.Add(1)
		return nil // breaker open: drop without hammering the dead peer
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil || p.busy {
		if len(p.queue) < maxQueue {
			p.queue = append(p.queue, m)
		} else {
			t.queueDrops.Add(1) // queue full: drop
		}
		return nil
	}
	buf := t.encode(m)
	if buf == nil {
		return nil
	}
	p.frame = *buf
	if err := p.rc.Write(p.write); err != nil {
		p.err = err
	}
	p.frame = nil
	switch {
	case p.err == nil && p.n == len(*buf):
		writeBufs.Put(buf)
	case p.err == nil || p.err == syscall.EAGAIN || p.err == syscall.EINTR:
		p.busy = true // the flusher writes the rest, from this buffer
		t.wg.Add(1)
		go t.flush(p, buf, max(p.n, 0))
	default:
		writeBufs.Put(buf)
		p.conn.Close() //nolint:errcheck // the watcher sees it and forgets the peer
	}
	return nil
}

// peerLocked returns the outbound entry for to, first installing one and
// starting its connection if there is none, or nil once the transport is
// closed or while the breaker holds to open. t.mu held.
func (t *TCP) peerLocked(to string) *tcpPeer {
	if p := t.peers[to]; p != nil {
		return p
	}
	if t.closed.Load() || !t.breaker.Allow(to, time.Now()) {
		return nil
	}
	p := &tcpPeer{}
	p.write = p.writeFd
	t.peers[to] = p
	t.wg.Add(1)
	go t.connect(to, p)
	return p
}

// connect is the transport's one dial: it records the dial's RTT as the
// peer's proximity and starts the peer's watcher, and a flusher for what
// queued meanwhile. On failure it marks the peer far, forgets it so
// queued frames are lost (silent-loss semantics) and a later Send
// retries, and informs the breaker.
func (t *TCP) connect(to string, p *tcpPeer) {
	defer t.wg.Done()
	start := time.Now()
	conn, err := t.dial(to)
	if err != nil {
		t.prox.Store(to, far) // before forget, so Proximity never redials a refused address
		t.forget(to, p)
		t.breaker.Fail(to, time.Now())
		t.scheduleProbe(to)
		return
	}
	t.prox.Store(to, max(float64(time.Since(start))/float64(time.Millisecond), 0.01))
	t.breaker.Success(to)
	rc, err := conn.(*net.TCPConn).SyscallConn()
	p.mu.Lock()
	if t.closed.Load() || err != nil {
		p.mu.Unlock()
		conn.Close() //nolint:errcheck // closed mid-dial
		t.forget(to, p)
		return
	}
	p.conn, p.rc = conn, rc
	if len(p.queue) > 0 {
		p.busy = true
		t.wg.Add(1)
		go t.flush(p, nil, 0)
	}
	p.mu.Unlock()
	t.wg.Add(1)
	go t.watch(to, p, conn)
}

// writeBufs are the frame buffers every send encodes into, one per frame
// in flight, as storage.recordBufs are for log records: a buffer goes back
// once its frame is written (by the sender, or by a flusher that finished
// it), so the process holds about one per concurrent write, not one per
// connection grown to the largest frame that connection ever sent.
// Nothing keeps a reference past the write, unlike read buffers, which
// decoded messages alias.
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encode encodes m into a pooled buffer, or drops it and returns nil: a
// frame that would pass MaxFrame (counted in Oversize), a stored body that
// fails its read (counted by its store) or a value that is no wire
// message costs only itself.
func (t *TCP) encode(m wire.Msg) *[]byte {
	buf := writeBufs.Get().(*[]byte)
	out, err := encodeFrame(*buf, t.addr, m, t.maxFrame)
	*buf = out // keep what the encoder grew
	if err != nil {
		if errors.Is(err, errOversize) {
			t.oversize.Add(1)
		}
		writeBufs.Put(buf)
		return nil
	}
	return buf
}

// flush is the peer's flusher: it writes buf from off (nil after a dial),
// then each queued message, with blocking writes, and clears busy and
// exits once the queue is empty. A failed write closes the connection, so
// the watcher forgets the peer; what it still queued is lost.
func (t *TCP) flush(p *tcpPeer, buf *[]byte, off int) {
	defer t.wg.Done()
	for {
		if buf != nil {
			_, err := p.conn.Write((*buf)[off:])
			writeBufs.Put(buf)
			if err != nil {
				p.conn.Close() //nolint:errcheck // the watcher sees it
				return
			}
		}
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.busy, p.queue = false, nil
			p.mu.Unlock()
			return
		}
		m := p.queue[0]
		p.queue[0], p.queue = nil, p.queue[1:]
		p.mu.Unlock()
		buf, off = t.encode(m), 0
	}
}

// watch blocks reading the outbound connection, which the peer never
// writes to, so Read returns only when the connection dies. A write alone
// cannot tell: the first frame written after the peer closed still
// succeeds locally, and with one write per frame that frame would be lost
// without anyone noticing. On EOF or error (a failed write closes the
// connection too) the peer is forgotten and its connection closed, so the
// next Send redials.
func (t *TCP) watch(to string, p *tcpPeer, conn net.Conn) {
	defer t.wg.Done()
	var b [1]byte
	for {
		if _, err := conn.Read(b[:]); err != nil {
			t.forget(to, p)
			conn.Close() //nolint:errcheck // a second close is harmless
			return
		}
	}
}

// scheduleProbe arms the peer's half-open probe: when the breaker holds
// the peer open, a timer fires at cooldown expiry and starts the
// connection a Send would. Routing treats an open peer as unreachable, so
// no user traffic would otherwise ever test it — the probe is what
// reinstates a healed peer ("probe before reinstating"), and its
// connection stays for the traffic that follows; a failed one re-opens
// the breaker with a doubled cooldown and re-arms the probe. One pending
// probe per peer.
func (t *TCP) scheduleProbe(to string) {
	delay, open := t.breaker.NextProbe(to, time.Now())
	if !open {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return
	}
	if _, pending := t.probes[to]; pending {
		return
	}
	t.wg.Add(1)
	t.probes[to] = time.AfterFunc(delay, func() {
		defer t.wg.Done()
		t.mu.Lock()
		defer t.mu.Unlock()
		delete(t.probes, to)
		t.peerLocked(to)
	})
}

// forget removes p from the peer map if it is still the current entry for
// to (a replacement dialed meanwhile must not be evicted).
func (t *TCP) forget(to string, p *tcpPeer) {
	t.mu.Lock()
	if cur, ok := t.peers[to]; ok && cur == p {
		delete(t.peers, to)
	}
	t.mu.Unlock()
}

// Proximity implements Transport: the RTT of connect's last dial to the
// peer (the paper's scalar proximity metric, "such as the number of IP
// hops, geographic distance...", is RTT in a real deployment), or far if
// it failed. It never waits on the network: for an address never dialled
// it starts the connection a Send would and answers far. With DialVia set
// the RTT includes the proxy's connect-time faults, so injected gray
// failures show up in the metric exactly as real ones would.
func (t *TCP) Proximity(to string) float64 {
	if v, ok := t.prox.Load(to); ok {
		return v.(float64)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.prox.Load(to); !ok { // else a connect ended meanwhile
		t.peerLocked(to)
	}
	return far
}

// Close implements Transport. Closing an inbound connection waits for the
// handler its read runs, which may call Send: so not under t.mu.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return nil
	}
	t.closed.Store(true)
	peers, inbound := t.peers, t.inbound
	t.peers, t.inbound = nil, nil
	for to, timer := range t.probes {
		if timer.Stop() {
			t.wg.Done() // probe never ran; release its wg slot
		}
		delete(t.probes, to)
	}
	t.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock() // a dial still pending sees t.closed and closes its own
		if p.conn != nil {
			p.conn.Close() // ends its watcher and flusher
		}
		p.mu.Unlock()
	}
	for conn := range inbound {
		conn.Close() // ends its reader's Read
	}
	err := t.ln.Close()
	t.wg.Wait()
	return err
}
