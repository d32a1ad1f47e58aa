// Package simnet is a deterministic discrete-event network simulator.
//
// A Net owns a virtual clock and one or more event-loop shards. Each
// simulated node gets an endpoint implementing transport.Transport;
// message latency between endpoints comes from a topology proximity
// metric. Fault injection covers silent node crashes, message loss,
// per-node drop filters (for the malicious-node experiment of section
// 2.2, "Fault-tolerance") and partition-style unreachability.
//
// Endpoints are partitioned into per-region shards (Config.RegionOf) and
// driven by a conservative event-window scheduler (see shard.go). With
// one shard — the default — every window runs inline on the goroutine
// that calls Step/RunFor/RunUntil/RunUntilIdle; with more, one large
// simulation uses several cores. Event ordering, tiebreaks and randomness
// are all derived per endpoint rather than from global scheduling order,
// so a run is exactly reproducible from its seed and byte-identical at
// ANY shard count.
package simnet

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
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

	// Shards is the number of event-loop shards; zero means one. Results
	// are byte-identical for any value (given the same Lookahead), so it
	// only chooses how many cores one simulation may use.
	Shards int
	// RegionOf maps an endpoint index to its topological region (for
	// cluster networks, the transit domain). Endpoints are assigned to
	// shard RegionOf(i) % Shards, so endpoints in different shards are
	// always in different regions. Nil places every endpoint in region 0
	// (a single populated shard). Consulted at NewEndpoint time.
	RegionOf func(i int) int
	// Lookahead is the length of the conservative event window (see
	// shard.go). With more than one shard it is required and must be a
	// strictly positive lower bound on the delivery latency between any
	// two endpoints in different regions. One shard needs no safety bound,
	// so zero then means defaultLookahead. For results that are identical
	// across shard counts it must be derived from shard-count-independent
	// data (e.g. topology latency bounds).
	Lookahead time.Duration
	// Workers sizes the persistent window-worker pool (see shard.go).
	// Zero picks min(GOMAXPROCS, Shards); 1 forces sequential inline
	// window execution (what a single-core host gets anyway); higher
	// values force a pool even on one core, which the determinism tests
	// use to exercise the cross-goroutine handoff under -race. Results
	// are byte-identical for any value.
	Workers int
}

// Distance tells the simulator the proximity between two endpoints,
// in milliseconds. Typically topology.Topology.Distance.
type Distance func(a, b int) float64

// Net is a simulated network.
type Net struct {
	cfg    Config
	now    time.Duration
	netSeq uint64 // sequence counter for source-0 (net-level) events
	shards []*shard
	// busyScratch is windowStep's reusable list of shards with work in the
	// current window (coordinator-only).
	busyScratch []*shard
	// pool is the persistent window-worker set of the current run
	// session; poolDepth refcounts nested run loops (see shard.go).
	pool      *windowPool
	poolDepth int
	running   bool // a window is executing on several goroutines: cross-shard sends park in inboxes
	eps       []*Endpoint
	dist      Distance
	traceMu   sync.Mutex
	// TraceFn, if set, observes every delivered message. Calls are
	// serialized by a mutex, but with more than one shard their
	// interleaving ACROSS shards depends on scheduling; per-endpoint
	// observation order is still deterministic.
	TraceFn func(at time.Duration, from, to string, m wire.Msg)
	// barrierHook, if set, runs on the coordinator at the end of every
	// conservative window (all shards quiescent, n.now = the new barrier
	// time) and after deadline jumps in RunFor. The window schedule is a
	// function of cross-shard minima, so hook times — and anything the
	// hook samples — are identical at any shard/worker count. Telemetry
	// recorders tick from here.
	barrierHook func(now time.Duration)
}

// defaultLookahead is the window length of a single-shard Net whose
// Config leaves Lookahead zero: the default unit distance, so a window
// there holds the events of one message hop.
const defaultLookahead = time.Millisecond

// New creates a simulated network whose latency comes from dist (nil
// means 1 ms between any two endpoints).
func New(cfg Config, dist Distance) *Net {
	if dist == nil {
		dist = func(a, b int) float64 { return 1 }
	}
	cfg.Shards = max(1, cfg.Shards)
	if cfg.Lookahead <= 0 {
		if cfg.Shards > 1 {
			panic("simnet: more than one shard requires Config.Lookahead > 0")
		}
		cfg.Lookahead = defaultLookahead
	}
	n := &Net{cfg: cfg, dist: dist}
	n.shards = make([]*shard, cfg.Shards)
	for i := range n.shards {
		n.shards[i] = &shard{net: n, byKind: make(map[string]uint64)}
	}
	return n
}

// Addr formats the simulator address of endpoint index i.
func Addr(i int) string { return "sim:" + strconv.Itoa(i) }

// Index parses an endpoint index out of a simulator address. It is on
// the path of every simulated Send and Proximity call, so it uses
// strconv instead of fmt (whose scanner allocates per call).
func Index(addr string) (int, error) {
	if len(addr) < 5 || addr[:4] != "sim:" {
		return 0, fmt.Errorf("simnet: bad address %q", addr)
	}
	i, err := strconv.Atoi(addr[4:])
	if err != nil || i < 0 {
		return 0, fmt.Errorf("simnet: bad address %q", addr)
	}
	return i, nil
}

// NewEndpoint creates the next endpoint. Endpoints are identified by dense
// indices that must correspond to the node indices used by the Distance
// function. The endpoint's region — and through it, its shard — is fixed
// here, so RegionOf must already know index i.
func (n *Net) NewEndpoint() *Endpoint {
	idx := len(n.eps)
	s := n.shards[0]
	if n.cfg.RegionOf != nil {
		s = n.shards[n.cfg.RegionOf(idx)%len(n.shards)]
	}
	ep := &Endpoint{net: n, shard: s, idx: idx, addr: Addr(idx), up: true}
	n.eps = append(n.eps, ep)
	return ep
}

// Now returns the current virtual time: the time of the last window
// barrier. Per-endpoint clocks are ahead of it while a window executes,
// so node code reads its endpoint's Clock instead.
func (n *Net) Now() time.Duration { return n.now }

// SetBarrierHook installs fn to run on the coordinator at every window
// barrier (and after RunFor deadline jumps). fn must only read network
// state; set nil to detach. Not safe to call while a run is in progress.
func (n *Net) SetBarrierHook(fn func(now time.Duration)) { n.barrierHook = fn }

// Messages returns the total number of messages delivered so far.
func (n *Net) Messages() uint64 {
	var total uint64
	for _, s := range n.shards {
		total += s.msgCount
	}
	return total
}

// MessagesByKind returns a copy of the per-kind delivery counters.
func (n *Net) MessagesByKind() map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range n.shards {
		for k, v := range s.byKind {
			out[k] += v
		}
	}
	return out
}

// ResetCounters zeroes the message counters (topology and time are kept).
func (n *Net) ResetCounters() {
	for _, s := range n.shards {
		s.msgCount = 0
		s.byKind = make(map[string]uint64)
	}
}

// stamp keys a freshly allocated event with its ordering tiebreak:
// same-time events are ordered by (creating endpoint, per-endpoint
// counter), so the order is independent of which shard — and therefore
// which schedule — created them.
func (e *Endpoint) stamp(ev *event) {
	ev.src = int32(e.idx) + 1
	ev.seq = e.seq
	e.seq++
}

// AfterFunc implements clock scheduling on the virtual timeline at net
// level (source 0, shard 0). With more than one shard it must only be
// called between runs (from the coordinating goroutine); node code should
// use its endpoint's Clock instead.
func (n *Net) AfterFunc(d time.Duration, f func()) transport.Timer {
	s := n.shards[0]
	ev := s.newEvent(s.now + d)
	ev.src = 0
	ev.seq = n.netSeq
	n.netSeq++
	ev.fn = f
	s.events.push(ev)
	return s.newTimerHandle(ev)
}

// Clock returns the net-level virtual clock: shard 0's timeline (see
// AfterFunc for the caveat with more than one shard).
func (n *Net) Clock() transport.Clock { return simClock{n} }

type simClock struct{ n *Net }

func (c simClock) Now() time.Duration { return c.n.shards[0].now }
func (c simClock) AfterFunc(d time.Duration, f func()) transport.Timer {
	return c.n.AfterFunc(d, f)
}

// simTimer is a pooled handle onto a pooled event. The generation
// snapshot keeps Stop safe after the event has fired and been recycled;
// Release returns the handle itself to its shard's pool.
type simTimer struct {
	s        *shard
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

// Release returns the handle to its shard's pool for reuse by a later
// AfterFunc, the way processed events return to the event pool. It does
// NOT cancel a still-pending timer. After Release the handle must not be
// touched again; Release must only be called from the owning node's
// handlers or between runs.
func (t *simTimer) Release() {
	if t.released {
		return
	}
	t.released = true
	t.ev = nil
	t.s.freeTimers = append(t.s.freeTimers, t)
}

// Step executes the next conservative window. It reports false when no
// event is pending.
func (n *Net) Step() bool {
	_, more := n.windowStep(forever)
	return more
}

// RunUntilIdle processes events until none remain. Protocols with periodic
// timers never go idle; use RunFor for those.
func (n *Net) RunUntilIdle() {
	n.acquireWorkers()
	defer n.releaseWorkers()
	for n.Step() {
	}
}

// RunFor processes events until virtual time advances past now+d. Events
// scheduled at later times remain queued.
func (n *Net) RunFor(d time.Duration) {
	deadline := n.now + d
	n.acquireWorkers()
	defer n.releaseWorkers()
	for {
		if _, more := n.windowStep(deadline); !more {
			break
		}
	}
	n.advanceAll(deadline)
	if n.barrierHook != nil {
		n.barrierHook(n.now)
	}
}

// RunUntil processes events while cond stays false, up to a safety cap of
// maxEvents. It reports whether cond became true. cond is evaluated at
// window barriers (where all shards are quiescent), so the points at
// which it can stop — like everything else — are independent of the shard
// count.
func (n *Net) RunUntil(cond func() bool, maxEvents int) bool {
	if cond() {
		return true
	}
	n.acquireWorkers()
	defer n.releaseWorkers()
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
// message normally. The filter runs on the sending endpoint's shard and
// must only consult the sender's own state (its node, its private RNG),
// never cross-shard state, to preserve determinism at any shard count.
type RewriteFilter func(to string, m wire.Msg) (string, wire.Msg)

// Endpoint implements transport.Transport inside a Net.
type Endpoint struct {
	net     *Net
	shard   *shard
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
	// delivery history only, never of cross-shard scheduling.
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

// Clock returns a clock that schedules onto this endpoint's shard. Node
// code must use its own endpoint's clock (package cluster does): timers
// then fire on the shard that owns the node, their ordering keys come
// from the endpoint itself, and they are suppressed while it is crashed.
func (e *Endpoint) Clock() transport.Clock { return epClock{e} }

type epClock struct{ e *Endpoint }

func (c epClock) Now() time.Duration { return c.e.shard.now }

func (c epClock) AfterFunc(d time.Duration, f func()) transport.Timer {
	e := c.e
	s := e.shard
	ev := s.newEvent(s.now + d)
	e.stamp(ev)
	ev.fn = f
	ev.owner = e
	s.events.push(ev)
	return s.newTimerHandle(ev)
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
	target := n.eps[dst]
	// The event is drawn from the SENDER's shard pool (the shard running
	// this handler owns that pool) and keyed by the sender, then routed to
	// the TARGET's shard for delivery.
	ev := e.shard.newEvent(e.shard.now + n.latency(e.idx, dst, rng))
	e.stamp(ev)
	ev.target = target
	ev.from = e.addr
	ev.msg = m
	ts := target.shard
	if ts == e.shard || !n.running {
		ts.events.push(ev)
	} else {
		ts.pushInbox(ev)
	}
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
// Event heap

// event is one scheduled occurrence: either a timer callback (fn set) or
// a message delivery (target set). Events are pooled per shard; gen
// counts recycles so stale timer handles cannot cancel a reused slot.
// (src, seq) is the same-timestamp tiebreak: (creating endpoint + 1,
// per-endpoint counter), or (0, net-level counter) for Net.AfterFunc.
type event struct {
	at        time.Duration
	src       int32
	seq       uint64
	fn        func()    // timer events
	owner     *Endpoint // timer events scheduled via an endpoint clock
	target    *Endpoint // message events
	from      string
	msg       wire.Msg
	cancelled bool
	gen       uint64
}

// eventHeap is a typed binary min-heap ordered by (at, src, seq).
// Replacing the container/heap interface{} plumbing with direct methods
// removes the per-operation interface conversions and method-value
// dispatch from the simulator's innermost loop.
type eventHeap struct {
	evs []*event
}

func (h *eventHeap) Len() int { return len(h.evs) }

func (h *eventHeap) peek() *event { return h.evs[0] }

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	h.evs = append(h.evs, ev)
	// Sift up.
	evs := h.evs
	i := len(evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(evs[i], evs[parent]) {
			break
		}
		evs[i], evs[parent] = evs[parent], evs[i]
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	evs := h.evs
	top := evs[0]
	last := len(evs) - 1
	evs[0] = evs[last]
	evs[last] = nil
	h.evs = evs[:last]
	// Sift down.
	evs = h.evs
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(evs) && eventLess(evs[l], evs[smallest]) {
			smallest = l
		}
		if r < len(evs) && eventLess(evs[r], evs[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		evs[i], evs[smallest] = evs[smallest], evs[i]
		i = smallest
	}
	return top
}
