// Package simnet is a deterministic discrete-event network simulator.
//
// A Net owns a virtual clock and one event loop. Each simulated node gets
// an endpoint implementing transport.Transport; message latency between
// endpoints comes from a topology proximity metric. Fault injection covers
// silent node crashes, message loss, per-node drop filters (for the
// malicious-node experiment of section 2.2, "Fault-tolerance") and
// partition-style unreachability.
//
// The loop runs on the goroutine that calls Step/RunFor/RunUntil/
// RunUntilIdle and advances in windows of Config.Lookahead (see
// windowStep): RunUntil checks its condition, and the barrier hook runs,
// only at window ends. Same-time events are ordered by their creating
// endpoint and its own counter, and jitter and loss draw from per-endpoint
// streams, so a run is exactly reproducible from its seed.
//
// The per-event path reads rather than parses: an endpoint's address is
// "sim:" and its index in canonical decimal, which Index reads back in an
// inlined loop, and a delivery counts under its codec tag (wire.Tag) in
// an array, with a map by Kind only for types the codec does not know.
package simnet

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strconv"
	"time"

	"past/internal/transport"
	"past/internal/wire"
)

// Config controls simulator behaviour.
type Config struct {
	// Seed drives all randomness (jitter, loss).
	Seed int64
	// DropProb is the probability any message is silently lost.
	DropProb float64
	// JitterFrac scales latency jitter: actual = d * (1 + U[0,JitterFrac)).
	JitterFrac float64
	// Lookahead is the barrier period: each window runs the events before
	// its first event's time plus Lookahead, then ends at a barrier where
	// RunUntil checks its condition and the barrier hook runs. Zero means
	// defaultLookahead. Results depend on it, because those stop points do.
	Lookahead time.Duration
}

// Distance tells the simulator the proximity between two endpoints,
// in milliseconds. Typically topology.Topology.Distance.
type Distance func(a, b int) float64

// Net is a simulated network.
type Net struct {
	cfg Config
	// now is the time of the last window barrier; clock is the time of the
	// event being executed, which runs ahead of now inside a window.
	now, clock time.Duration
	netSeq     uint64      // sequence counter for source-0 (net-level) events
	free       []*event    // recycled events
	freeTimers []*simTimer // recycled timer handles (see simTimer.Release)
	msgCount   uint64
	// byTag counts deliveries per codec tag (wire.Tag), each with its
	// type's Kind; byKind counts the types the codec does not know.
	byTag  [256]kindCount
	byKind map[string]uint64
	eps    []*Endpoint
	dist   Distance
	// TraceFn, if set, observes every delivered message.
	TraceFn func(at time.Duration, from, to string, m wire.Msg)
	// barrierHook, if set, runs at the end of every window (n.now = the
	// new barrier time) and after deadline jumps in RunFor. Telemetry
	// recorders tick from here.
	barrierHook func(now time.Duration)
	// events is the pending-event queue (queue.go), last because its ring
	// is 65 KiB.
	events eventQueue
}

// defaultLookahead is the window length of a Net whose Config leaves
// Lookahead zero: the default unit distance, so a window there holds the
// events of one message hop.
const defaultLookahead = time.Millisecond

// forever caps nothing: windows are bounded only by event supply.
const forever = time.Duration(math.MaxInt64)

// New creates a simulated network whose latency comes from dist (nil
// means 1 ms between any two endpoints).
func New(cfg Config, dist Distance) *Net {
	if dist == nil {
		dist = func(a, b int) float64 { return 1 }
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = defaultLookahead
	}
	return &Net{cfg: cfg, dist: dist, byKind: make(map[string]uint64)}
}

// kindCount is one codec tag's delivery counter.
type kindCount struct {
	n    uint64
	kind string
}

// Addr formats the simulator address of endpoint index i.
func Addr(i int) string { return "sim:" + strconv.Itoa(i) }

// Index parses an endpoint index out of a simulator address: exactly the
// canonical decimal Addr writes, with no sign and no leading zero. It is on
// the path of every simulated Send and Proximity call, so it is one loop
// small enough to inline.
func Index(addr string) (int, error) {
	digits := len(addr) - len("sim:")
	if digits < 1 || digits > 19 || addr[:4] != "sim:" || (addr[4] == '0' && digits > 1) {
		return 0, badAddr(addr)
	}
	var i uint64 // 19 decimal digits cannot overflow it
	for _, c := range []byte(addr[4:]) {
		if c -= '0'; c > 9 {
			return 0, badAddr(addr)
		}
		i = i*10 + uint64(c)
	}
	if i > math.MaxInt {
		return 0, badAddr(addr)
	}
	return int(i), nil
}

// badAddr is the error Index returns for addr.
type badAddr string

func (a badAddr) Error() string { return fmt.Sprintf("simnet: bad address %q", string(a)) }

// NewEndpoint creates the next endpoint. Endpoints are identified by dense
// indices that must correspond to the node indices used by the Distance
// function.
func (n *Net) NewEndpoint() *Endpoint {
	idx := len(n.eps)
	ep := &Endpoint{net: n, idx: idx, addr: Addr(idx), up: true}
	n.eps = append(n.eps, ep)
	return ep
}

// Now returns the current virtual time: the time of the last window
// barrier. Event clocks are ahead of it while a window executes, so node
// code reads its endpoint's Clock instead.
func (n *Net) Now() time.Duration { return n.now }

// SetBarrierHook installs fn to run at every window barrier (and after
// RunFor deadline jumps). fn must only read network state; set nil to
// detach. Not safe to call while a run is in progress.
func (n *Net) SetBarrierHook(fn func(now time.Duration)) { n.barrierHook = fn }

// Messages returns the total number of messages delivered so far.
func (n *Net) Messages() uint64 { return n.msgCount }

// MessagesByKind returns the delivery counters by message kind.
func (n *Net) MessagesByKind() map[string]uint64 {
	out := maps.Clone(n.byKind)
	for _, c := range n.byTag {
		if c.n > 0 {
			out[c.kind] += c.n
		}
	}
	return out
}

// ResetCounters zeroes the message counters (topology and time are kept).
func (n *Net) ResetCounters() {
	n.msgCount = 0
	n.byTag = [256]kindCount{}
	n.byKind = make(map[string]uint64)
}

// stamp keys a freshly allocated event with its ordering tiebreak:
// same-time events are ordered by (creating endpoint, per-endpoint
// counter).
func (e *Endpoint) stamp(ev *event) {
	ev.src = int32(e.idx) + 1
	ev.seq = e.seq
	e.seq++
}

// AfterFunc implements clock scheduling on the virtual timeline at net
// level (source 0). Node code should use its endpoint's Clock instead, so
// that its timers are suppressed while it is crashed.
func (n *Net) AfterFunc(d time.Duration, f func()) transport.Timer {
	ev := n.newEvent(n.clock + d)
	ev.src = 0
	ev.seq = n.netSeq
	n.netSeq++
	ev.fn = f
	n.events.push(ev)
	return n.newTimerHandle(ev)
}

// Clock returns the net-level virtual clock: the event time, like every
// endpoint's clock.
func (n *Net) Clock() transport.Clock { return simClock{n} }

type simClock struct{ n *Net }

func (c simClock) Now() time.Duration { return c.n.clock }
func (c simClock) AfterFunc(d time.Duration, f func()) transport.Timer {
	return c.n.AfterFunc(d, f)
}

// simTimer is a pooled handle onto a pooled event. The generation
// snapshot keeps Stop safe after the event has fired and been recycled;
// Release returns the handle itself to the Net's pool.
type simTimer struct {
	n        *Net
	ev       *event
	gen      uint64
	released bool
}

func (t *simTimer) Stop() bool {
	// A fired event was released, bumping gen, so the first check also
	// covers "already fired".
	if t.ev == nil || t.ev.gen != t.gen || t.ev.cancelled {
		return false
	}
	t.ev.cancelled = true
	return true
}

// Release returns the handle to the Net's pool for reuse by a later
// AfterFunc, the way processed events return to the event pool. It does
// NOT cancel a still-pending timer. After Release the handle must not be
// touched again.
func (t *simTimer) Release() {
	if t.released {
		return
	}
	t.released = true
	t.ev = nil
	t.n.freeTimers = append(t.n.freeTimers, t)
}

// Step executes the next window. It reports false when no event is
// pending.
func (n *Net) Step() bool {
	_, more := n.windowStep(forever)
	return more
}

// RunUntilIdle processes events until none remain. Protocols with periodic
// timers never go idle; use RunFor for those.
func (n *Net) RunUntilIdle() {
	for n.Step() {
	}
}

// RunFor processes events until virtual time advances past now+d. Events
// scheduled at later times remain queued.
func (n *Net) RunFor(d time.Duration) {
	deadline := n.now + d
	for {
		if _, more := n.windowStep(deadline); !more {
			break
		}
	}
	n.clock = max(n.clock, deadline)
	n.now = max(n.now, deadline)
	if n.barrierHook != nil {
		n.barrierHook(n.now)
	}
}

// RunUntil processes events while cond stays false, up to a safety cap of
// maxEvents. It reports whether cond became true. cond is evaluated at
// window barriers only.
func (n *Net) RunUntil(cond func() bool, maxEvents int) bool {
	if cond() {
		return true
	}
	var total uint64
	for {
		processed, more := n.windowStep(forever)
		total += processed
		if cond() {
			return true
		}
		if !more || total >= uint64(maxEvents) {
			return false
		}
	}
}

// windowStep runs one window, bounded by limit (a RunFor deadline, or
// forever): the events before horizon = (earliest pending event) +
// Lookahead, or up to and including limit when that comes first. It then
// moves both clocks to the horizon and runs the barrier hook. It reports
// the number of events processed and whether there was anything at all to
// do before the limit.
func (n *Net) windowStep(limit time.Duration) (processed uint64, more bool) {
	if n.events.Len() == 0 || n.events.peek().at > limit {
		return 0, false
	}
	mn := n.events.peek().at
	horizon := mn + n.cfg.Lookahead
	inclusive := false
	if horizon < mn || horizon > limit { // "< mn" guards addition overflow
		horizon = limit
		inclusive = true
	}
	for n.events.Len() > 0 {
		next := n.events.peek()
		if next.at > horizon || (!inclusive && next.at == horizon) {
			break
		}
		ev := n.events.pop()
		if ev.cancelled {
			n.release(ev)
			continue
		}
		n.exec(ev)
		processed++
	}
	n.clock = horizon
	n.now = horizon
	if n.barrierHook != nil {
		n.barrierHook(horizon)
	}
	return processed, true
}

// exec executes one popped, live event: advances the event clock and
// dispatches to message delivery or the timer callback. The event is
// released BEFORE its payload runs so that a stale Stop from inside the
// callback is a no-op on the recycled slot (generation check).
func (n *Net) exec(ev *event) {
	n.clock = ev.at
	if ev.target != nil {
		target, from, m := ev.target, ev.from, ev.msg
		n.release(ev)
		n.deliver(target, from, m)
	} else {
		fn, owner := ev.fn, ev.owner
		n.release(ev)
		// Timers scheduled through a crashed endpoint's clock are consumed
		// without firing: a silently-failed node must not run app callbacks.
		// Net-level timers (owner == nil) always fire.
		if owner != nil && !owner.Up() {
			return
		}
		fn()
	}
}

// deliver hands a message to its endpoint, honoring crash state and
// counters.
func (n *Net) deliver(target *Endpoint, from string, m wire.Msg) {
	if !target.Up() || target.handler == nil {
		return
	}
	n.msgCount++
	n.countKind(m)
	if n.TraceFn != nil {
		n.TraceFn(n.clock, from, target.addr, m)
	}
	target.handler(from, m)
}

// countKind adds one delivery of m to its kind's counter: the slot of its
// codec tag, or for a type the codec does not know, the map by Kind.
func (n *Net) countKind(m wire.Msg) {
	t := wire.Tag(m)
	if t == 0 {
		n.byKind[m.Kind()]++
		return
	}
	c := &n.byTag[t]
	if c.n == 0 {
		c.kind = m.Kind()
	}
	c.n++
}

// Latency returns the (jittered) delivery latency between endpoints,
// drawing jitter from the given stream.
func (n *Net) latency(a, b int, rng *rand.Rand) time.Duration {
	ms := n.dist(a, b)
	d := time.Duration(ms * float64(time.Millisecond))
	if n.cfg.JitterFrac > 0 {
		d = time.Duration(float64(d) * (1 + rng.Float64()*n.cfg.JitterFrac))
	}
	return d
}

// ---------------------------------------------------------------------------
// Endpoint

// DropFilter inspects an outbound message and returns true to silently
// drop it. Used to model malicious nodes that accept but do not forward
// traffic.
type DropFilter func(to string, m wire.Msg) bool

// RewriteFilter inspects an outbound message and may replace its
// destination and/or payload. Used to model malicious nodes that
// misroute traffic to a wrong-but-plausible next hop, or that tamper
// with messages in flight. Returning the inputs unchanged forwards the
// message normally.
type RewriteFilter func(to string, m wire.Msg) (string, wire.Msg)

// Endpoint implements transport.Transport inside a Net.
type Endpoint struct {
	net     *Net
	idx     int
	addr    string // precomputed Addr(idx); avoids formatting per Send
	handler transport.Handler
	up      bool
	closed  bool
	// sendFilter, if set, can suppress outbound messages; rewrite, if
	// set, can redirect or replace them after the filter passes.
	sendFilter DropFilter
	rewrite    RewriteFilter
	// seq counts events created by this endpoint (the same-time ordering
	// key); rng is its private jitter/loss stream, created on first use.
	// Both make the endpoint's observable behaviour a function of its own
	// delivery history only.
	seq uint64
	rng *rand.Rand
}

// Addr implements transport.Transport.
func (e *Endpoint) Addr() string { return e.addr }

// Index returns the endpoint's dense index.
func (e *Endpoint) Index() int { return e.idx }

// SetHandler implements transport.Transport.
func (e *Endpoint) SetHandler(h transport.Handler) { e.handler = h }

// SetSendFilter installs a malicious-behaviour filter on outbound traffic.
func (e *Endpoint) SetSendFilter(f DropFilter) { e.sendFilter = f }

// SetSendRewrite installs a malicious-behaviour rewrite hook on outbound
// traffic; it runs after the drop filter (if any) passes a message.
func (e *Endpoint) SetSendRewrite(f RewriteFilter) { e.rewrite = f }

// Up reports whether the endpoint is accepting traffic.
func (e *Endpoint) Up() bool { return e.up && !e.closed }

// Crash silently takes the node off the network: inbound and outbound
// messages vanish, matching the paper's "nodes ... may silently leave the
// system without warning".
func (e *Endpoint) Crash() { e.up = false }

// Restart brings a crashed node back.
func (e *Endpoint) Restart() { e.up = true }

// rand returns the endpoint's private random stream.
func (e *Endpoint) rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(int64(uint64(e.net.cfg.Seed) ^ 0x9E3779B97F4A7C15*uint64(e.idx+1))))
	}
	return e.rng
}

// Clock returns a clock whose timers carry this endpoint's ordering keys
// and are suppressed while it is crashed. Node code uses its own
// endpoint's clock (package cluster does).
func (e *Endpoint) Clock() transport.Clock { return epClock{e} }

type epClock struct{ e *Endpoint }

func (c epClock) Now() time.Duration { return c.e.net.clock }

func (c epClock) AfterFunc(d time.Duration, f func()) transport.Timer {
	e := c.e
	n := e.net
	ev := n.newEvent(n.clock + d)
	e.stamp(ev)
	ev.fn = f
	ev.owner = e
	n.events.push(ev)
	return n.newTimerHandle(ev)
}

// Send implements transport.Transport.
func (e *Endpoint) Send(to string, m wire.Msg) error {
	if e.closed {
		return fmt.Errorf("simnet: endpoint %d closed", e.idx)
	}
	if !e.up {
		return nil // a crashed node's sends vanish silently
	}
	if e.sendFilter != nil && e.sendFilter(to, m) {
		return nil
	}
	if e.rewrite != nil {
		to, m = e.rewrite(to, m)
	}
	dst, err := Index(to)
	if err != nil {
		return err
	}
	if dst < 0 || dst >= len(e.net.eps) {
		return fmt.Errorf("simnet: no endpoint at %q", to)
	}
	n := e.net
	// The jitter/loss stream is only materialized when a draw can actually
	// happen: a lossless, jitter-free net (the common large-scale
	// configuration) never touches randomness on the send path, and the
	// per-endpoint stream alone would otherwise cost ~4.9 KiB per node.
	// Laziness cannot change results — a stream that is never drawn from
	// produces no observable behaviour.
	var rng *rand.Rand
	if n.cfg.DropProb > 0 || n.cfg.JitterFrac > 0 {
		rng = e.rand()
	}
	if n.cfg.DropProb > 0 && rng.Float64() < n.cfg.DropProb {
		return nil
	}
	ev := n.newEvent(n.clock + n.latency(e.idx, dst, rng))
	e.stamp(ev)
	ev.target = n.eps[dst]
	ev.from = e.addr
	ev.msg = m
	n.events.push(ev)
	return nil
}

// Proximity implements transport.Transport using the topology metric,
// standing in for a measured RTT.
func (e *Endpoint) Proximity(to string) float64 {
	dst, err := Index(to)
	if err != nil || dst < 0 || dst >= len(e.net.eps) {
		return 1e9
	}
	return e.net.dist(e.idx, dst)
}

// Close implements transport.Transport.
func (e *Endpoint) Close() error {
	e.closed = true
	return nil
}

// ---------------------------------------------------------------------------
// Events

// event is one scheduled occurrence: either a timer callback (fn set) or
// a message delivery (target set). Events are pooled; gen counts recycles
// so stale timer handles cannot cancel a reused slot. (src, seq) is the
// same-timestamp tiebreak: (creating endpoint + 1, per-endpoint counter),
// or (0, net-level counter) for Net.AfterFunc.
type event struct {
	at        time.Duration
	src       int32
	seq       uint64
	next      *event    // the next event in the same calendar bucket (queue.go)
	fn        func()    // timer events
	owner     *Endpoint // timer events scheduled via an endpoint clock
	target    *Endpoint // message events
	from      string
	msg       wire.Msg
	cancelled bool
	gen       uint64
}

// newEvent takes an event from the free list (or allocates one), at time
// at but never before the event clock.
func (n *Net) newEvent(at time.Duration) *event {
	var ev *event
	if k := len(n.free); k > 0 {
		ev = n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
	} else {
		ev = &event{}
	}
	ev.at = max(at, n.clock)
	return ev
}

// release returns a processed or cancelled event to the free list. The
// generation bump invalidates any simTimer still holding the event, so a
// late Stop on a fired timer is a harmless no-op instead of cancelling
// whatever the slot was recycled into.
func (n *Net) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.owner = nil
	ev.target = nil
	ev.msg = nil
	ev.from = ""
	ev.cancelled = false
	n.free = append(n.free, ev)
}

// newTimerHandle wraps a pending event in a (pooled) cancellation handle.
func (n *Net) newTimerHandle(ev *event) *simTimer {
	var t *simTimer
	if k := len(n.freeTimers); k > 0 {
		t = n.freeTimers[k-1]
		n.freeTimers[k-1] = nil
		n.freeTimers = n.freeTimers[:k-1]
	} else {
		t = &simTimer{}
	}
	t.n = n
	t.ev = ev
	t.gen = ev.gen
	t.released = false
	return t
}
