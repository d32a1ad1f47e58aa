package chaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"past/internal/transport"
)

// The proxy relays with the transport's own defaults: its cap on one
// frame, and its bound on a dial (here, to the announced target).
const (
	maxFrame    = 8 << 20
	dialTimeout = 3 * time.Second
)

// LinkStats counts one link direction's relayed traffic.
type LinkStats struct {
	Frames  uint64 // frames read from the source (forwarded + dropped)
	Dropped uint64
	Resets  uint64
}

// linkState is the per-link mutable state: the global frame counter
// (shared across reconnects of the link, so decision indexes never
// restart), the recorded drop indexes, and the bandwidth pacing clock.
type linkState struct {
	frames  uint64
	dropped []uint64
	resets  uint64
	bwNext  time.Time
}

// pipePair is one proxied connection: the dialer side, the target side,
// and the link it carries.
type pipePair struct {
	client, target net.Conn
	from, to       string
}

func (pp *pipePair) closeBoth() {
	pp.client.Close() //nolint:errcheck // teardown
	pp.target.Close() //nolint:errcheck // teardown
}

// groupCut is a manual partition installed by Partition().
type groupCut struct{ a, b []string }

// Proxy is the fault-injecting relay. Transports reach it by setting
// TCPOptions.DialVia to its Addr; each inbound connection announces its
// (from, to) link with the via preamble, the proxy dials the real target,
// acks, and relays whole frames applying the schedule's faults.
type Proxy struct {
	sched Schedule
	ln    net.Listener
	start time.Time
	done  chan struct{}

	mu     sync.Mutex
	links  map[Link]*linkState
	pipes  map[*pipePair]bool
	manual []groupCut
	closed bool

	wg sync.WaitGroup
}

// New starts a proxy applying sched on a free loopback port. Close it
// when done.
func New(sched Schedule) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{
		sched: sched,
		ln:    ln,
		start: time.Now(),
		done:  make(chan struct{}),
		links: make(map[Link]*linkState),
		pipes: make(map[*pipePair]bool),
	}
	p.wg.Add(2)
	go p.acceptLoop()
	go p.janitor()
	return p, nil
}

// Addr returns the address transports pass as DialVia.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Partition installs a full bidirectional cut between node groups a and
// b: new connections crossing the cut are refused and established ones
// are killed immediately. It stacks with scheduled Windows.
func (p *Proxy) Partition(a, b []string) {
	p.mu.Lock()
	p.manual = append(p.manual, groupCut{a: append([]string(nil), a...), b: append([]string(nil), b...)})
	p.mu.Unlock()
	p.reapCutPipes()
}

// Heal removes every manual partition (scheduled Windows heal on their
// own clock).
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.manual = nil
	p.mu.Unlock()
}

// partitioned reports whether the link is currently cut, by a manual
// partition or an active scheduled window.
func (p *Proxy) partitioned(from, to string) bool {
	elapsed := time.Since(p.start)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, g := range p.manual {
		if cut(from, to, g.a, g.b) {
			return true
		}
	}
	for _, w := range p.sched.Windows {
		if elapsed >= w.From && elapsed < w.Until && cut(from, to, w.A, w.B) {
			return true
		}
	}
	return false
}

// reapCutPipes closes every established pipe whose link is currently cut.
func (p *Proxy) reapCutPipes() {
	p.mu.Lock()
	var doomed []*pipePair
	for pp := range p.pipes {
		if pp != nil {
			doomed = append(doomed, pp)
		}
	}
	p.mu.Unlock()
	for _, pp := range doomed {
		if p.partitioned(pp.from, pp.to) {
			pp.closeBoth()
		}
	}
}

// janitor enforces scheduled partition windows on idle connections: a cut
// must sever links even when no frame happens to flow.
func (p *Proxy) janitor() {
	defer p.wg.Done()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-tick.C:
			p.reapCutPipes()
		}
	}
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// serve handles one dialer: preamble, partition check, target dial, ack,
// then two relay pipes (one per direction).
func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		client.Close()
		return
	}
	from, to, err := transport.ReadViaPreamble(client)
	if err != nil {
		client.Close()
		return
	}
	if p.partitioned(from, to) {
		client.Close() // no ack: the dialer sees the peer as unreachable
		return
	}
	target, err := net.DialTimeout("tcp", to, dialTimeout)
	if err != nil {
		client.Close()
		return
	}
	// Connect-time latency: a slow link's handshake is slow too.
	if d := p.sched.RuleFor(Link{From: from, To: to}).Latency; d > 0 {
		time.Sleep(d)
	}
	if _, err := client.Write([]byte{transport.ViaAck}); err != nil {
		client.Close()
		target.Close()
		return
	}
	if err := client.SetDeadline(time.Time{}); err != nil {
		client.Close()
		target.Close()
		return
	}

	pp := &pipePair{client: client, target: target, from: from, to: to}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pp.closeBoth()
		return
	}
	p.pipes[pp] = true
	p.mu.Unlock()

	var pipeWG sync.WaitGroup
	pipeWG.Add(2)
	go func() { defer pipeWG.Done(); p.pipe(client, target, Link{From: from, To: to}, pp) }()
	go func() { defer pipeWG.Done(); p.pipe(target, client, Link{From: to, To: from}, pp) }()
	pipeWG.Wait()
	p.mu.Lock()
	delete(p.pipes, pp)
	p.mu.Unlock()
}

// nextFrame assigns the link's next global frame index.
func (p *Proxy) nextFrame(l Link) (*linkState, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.links[l]
	if !ok {
		st = &linkState{}
		p.links[l] = st
	}
	idx := st.frames
	st.frames++
	return st, idx
}

// pipe relays whole frames from src to dst, applying the link's rule.
// Exits (closing both sides) on read/write error, reset, or partition.
func (p *Proxy) pipe(src, dst net.Conn, l Link, pp *pipePair) {
	defer pp.closeBoth()
	rule := p.sched.RuleFor(l)
	ls := linkSeed(p.sched.Seed, l)
	for {
		payload, err := transport.ReadRawFrame(src, maxFrame)
		if err != nil {
			return
		}
		if p.partitioned(l.From, l.To) {
			return
		}
		st, idx := p.nextFrame(l)
		if dropFrame(ls, idx, rule.Drop) {
			p.mu.Lock()
			st.dropped = append(st.dropped, idx)
			p.mu.Unlock()
			continue
		}
		if d := rule.Latency + jitterFor(ls, idx, rule.Jitter); d > 0 {
			select {
			case <-p.done:
				return
			case <-time.After(d):
			}
		}
		if rule.BytesPerSec > 0 {
			p.throttle(st, len(payload), rule.BytesPerSec)
		}
		if err := transport.WriteRawFrame(dst, payload); err != nil {
			return
		}
		if rule.ResetEvery > 0 && (idx+1)%uint64(rule.ResetEvery) == 0 {
			p.mu.Lock()
			st.resets++
			p.mu.Unlock()
			// RST rather than FIN: surprise teardown mid-stream.
			if tc, ok := pp.client.(*net.TCPConn); ok {
				tc.SetLinger(0) //nolint:errcheck // best-effort RST
			}
			return
		}
	}
}

// throttle paces the link to rate bytes/sec with a virtual send clock.
func (p *Proxy) throttle(st *linkState, n int, rate int64) {
	p.mu.Lock()
	now := time.Now()
	if st.bwNext.Before(now) {
		st.bwNext = now
	}
	delay := st.bwNext.Sub(now)
	st.bwNext = st.bwNext.Add(time.Duration(float64(n) / float64(rate) * float64(time.Second)))
	p.mu.Unlock()
	if delay > 0 {
		select {
		case <-p.done:
		case <-time.After(delay):
		}
	}
}

// Stats snapshots per-link traffic counters.
func (p *Proxy) Stats() map[Link]LinkStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Link]LinkStats, len(p.links))
	for l, st := range p.links {
		out[l] = LinkStats{Frames: st.frames, Dropped: uint64(len(st.dropped)), Resets: st.resets}
	}
	return out
}

// FaultLog serializes the actual per-link decisions taken so far: frame
// counts and the exact dropped indexes, sorted by link. For a fixed seed
// it is a pure function of the per-link frame counts — Drops/FormatLinkLog
// recompute it offline, which is how tests assert byte-identical replay.
func (p *Proxy) FaultLog() string {
	p.mu.Lock()
	lines := make(map[Link]string, len(p.links))
	for l, st := range p.links {
		var b []byte
		b = fmt.Appendf(b, "link %s frames=%d drops=%d [", l, st.frames, len(st.dropped))
		for i, d := range st.dropped {
			if i > 0 {
				b = append(b, ' ')
			}
			b = fmt.Appendf(b, "%d", d)
		}
		b = append(b, ']')
		lines[l] = string(b)
	}
	seed := p.sched.Seed
	p.mu.Unlock()
	return formatLog(seed, lines)
}

// Close stops the proxy and severs every relayed connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	var doomed []*pipePair
	for pp := range p.pipes {
		doomed = append(doomed, pp)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, pp := range doomed {
		pp.closeBoth()
	}
	p.wg.Wait()
	return err
}
