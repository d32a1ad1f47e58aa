package simnet

// Conservative event-window scheduler.
//
// Endpoints are partitioned into shards by topological region. Each shard
// owns an event heap, an event pool and a private clock, and is advanced
// by one worker goroutine per window. The coordinator repeats:
//
//	minNext  := earliest pending event time across all shards
//	horizon  := minNext + Lookahead
//	run every shard in parallel over [its now, horizon)
//	barrier; move cross-shard arrivals from inboxes into heaps
//
// Safety (no shard ever receives a message "in its past"): every event
// processed in a window has at >= minNext, and a message between shards
// crosses regions, so its latency is at least Lookahead; its arrival is
// therefore >= minNext + Lookahead = horizon, i.e. in a later window.
// While shards run on several goroutines, arrivals are parked in a
// mutex-guarded inbox and merged at the barrier; a window that runs on
// the coordinator alone pushes them straight into the target's heap.
//
// Determinism at any shard count: same-timestamp events are ordered by
// (creating endpoint, per-endpoint counter) rather than global creation
// order, and jitter/loss randomness comes from per-endpoint streams
// rather than a shared one. An endpoint's outputs are then a function of
// its own delivery history only. By induction over windows, each
// endpoint's delivery history — and hence every counter, every table and
// the window schedule itself (minNext is a cross-shard minimum) — is
// identical whether the event population is processed by one heap or
// split across N. The determinism test in internal/experiments asserts
// this byte-for-byte at shards=1,2,4.

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"past/internal/wire"
)

// forever caps nothing: windows are bounded only by event supply.
const forever = time.Duration(math.MaxInt64)

// ---------------------------------------------------------------------------
// Persistent worker pool
//
// Spawning one goroutine per busy shard per window and joining them with
// a WaitGroup cost up to ~10% pure coordination overhead on timer-heavy
// runs with short windows (E9). The pool below has workers that persist
// across windows
// of one run session (RunFor / RunUntil / RunUntilIdle): between windows
// they park on a channel receive; each window the coordinator publishes
// one immutable windowJob and wakes only as many workers as there are
// busy shards beyond the one it runs itself. Shards are claimed via an
// atomic cursor (work-stealing within the window), and the worker that
// finishes the last shard signals the barrier — one channel receive for
// the coordinator instead of a WaitGroup join.
//
// Idle shards never cause a wakeup: the coordinator trims the busy list
// first, runs a single busy shard inline, and on a single-core host
// (or Workers == 1) runs every busy shard inline sequentially — shards
// within a window are mutually independent (a cross-shard send cannot
// arrive before the horizon), so sequential execution is just the
// parallel schedule with one worker, and results are byte-identical
// either way.
//
// A windowJob is allocated per window and never reused, so a worker
// that wakes late (its window already finished by others) finds the
// cursor exhausted and goes back to parking; it can never corrupt a
// later window's state.

// windowJob is one window's immutable work description.
type windowJob struct {
	shards    []*shard
	horizon   time.Duration
	inclusive bool
	cursor    atomic.Int32
	remaining atomic.Int32
	done      chan struct{}
}

// run claims shards until the job is exhausted; whoever completes the
// last shard signals the barrier.
func (j *windowJob) run() {
	for {
		i := int(j.cursor.Add(1)) - 1
		if i >= len(j.shards) {
			return
		}
		j.shards[i].runTo(j.horizon, j.inclusive)
		if j.remaining.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
}

// windowPool is the persistent worker set for one run session.
type windowPool struct {
	work    chan *windowJob
	workers int // helper goroutines beyond the coordinator
	wg      sync.WaitGroup
}

// acquireWorkers starts the pool if this Net can use one: more than one
// shard and more than one usable core (or an explicit Config.Workers
// override). Run loops call it once per session; nested sessions share
// via refcount.
func (n *Net) acquireWorkers() {
	n.poolDepth++
	if n.poolDepth != 1 || n.pool != nil || len(n.shards) < 2 {
		return
	}
	w := n.cfg.Workers
	if w == 0 {
		w = min(runtime.GOMAXPROCS(0), len(n.shards))
	}
	if w <= 1 {
		return // sequential inline execution beats parking on one core
	}
	if w > len(n.shards) {
		w = len(n.shards)
	}
	p := &windowPool{
		// Headroom over the per-window wake count so stale tokens from a
		// finished window never block the coordinator's next dispatch.
		work:    make(chan *windowJob, 4*w),
		workers: w - 1,
	}
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.work {
				job.run()
			}
		}()
	}
	n.pool = p
}

// releaseWorkers tears the pool down at the end of the outermost run
// session; parked workers drain the channel and exit, so an idle Net
// owns no goroutines.
func (n *Net) releaseWorkers() {
	n.poolDepth--
	if n.poolDepth != 0 || n.pool == nil {
		return
	}
	close(n.pool.work)
	n.pool.wg.Wait()
	n.pool = nil
}

// shard is one region's slice of the simulation: an event heap, pools,
// counters and a private clock. All fields except the inbox are owned by
// the single goroutine driving the shard (a worker during a window, the
// coordinator between windows).
type shard struct {
	net        *Net
	now        time.Duration
	events     eventHeap
	free       []*event    // recycled events
	freeTimers []*simTimer // recycled timer handles (see simTimer.Release)

	inboxMu sync.Mutex
	inbox   []*event // cross-shard arrivals parked until the next barrier

	msgCount  uint64
	byKind    map[string]uint64
	processed uint64 // events processed in the current window
}

// newEvent takes an event from the shard's free list (or allocates one).
// The free list needs no locking: during a window only the shard's worker
// allocates from it, between windows only the coordinator does.
func (s *shard) newEvent(at time.Duration) *event {
	if at < s.now {
		at = s.now
	}
	var ev *event
	if k := len(s.free); k > 0 {
		ev = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	return ev
}

// release returns a processed or cancelled event to the free list. The
// generation bump invalidates any simTimer still holding the event, so a
// late Stop on a fired timer is a harmless no-op instead of cancelling
// whatever the slot was recycled into.
func (s *shard) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.owner = nil
	ev.target = nil
	ev.msg = nil
	ev.from = ""
	ev.cancelled = false
	s.free = append(s.free, ev)
}

// newTimerHandle wraps a pending event in a (pooled) cancellation handle.
func (s *shard) newTimerHandle(ev *event) *simTimer {
	var t *simTimer
	if k := len(s.freeTimers); k > 0 {
		t = s.freeTimers[k-1]
		s.freeTimers[k-1] = nil
		s.freeTimers = s.freeTimers[:k-1]
	} else {
		t = &simTimer{}
	}
	t.s = s
	t.ev = ev
	t.gen = ev.gen
	t.released = false
	return t
}

// pushInbox parks a cross-shard arrival until the next barrier. It is the
// only shard entry point that may be called from another shard's worker.
func (s *shard) pushInbox(ev *event) {
	s.inboxMu.Lock()
	s.inbox = append(s.inbox, ev)
	s.inboxMu.Unlock()
}

// flushInbox merges parked arrivals into the heap. Coordinator only.
func (s *shard) flushInbox() {
	s.inboxMu.Lock()
	for i, ev := range s.inbox {
		s.events.push(ev)
		s.inbox[i] = nil
	}
	s.inbox = s.inbox[:0]
	s.inboxMu.Unlock()
}

// deliver hands a message to its endpoint, honoring crash state and
// counters.
func (s *shard) deliver(target *Endpoint, from string, m wire.Msg) {
	if !target.Up() || target.handler == nil {
		return
	}
	s.msgCount++
	s.byKind[m.Kind()]++
	n := s.net
	if n.TraceFn != nil {
		n.traceMu.Lock()
		n.TraceFn(s.now, from, target.addr, m)
		n.traceMu.Unlock()
	}
	target.handler(from, m)
}

// exec executes one popped, live event: advances the shard clock and
// dispatches to message delivery or the timer callback. The event is
// released BEFORE its payload runs so that a stale Stop from inside the
// callback is a no-op on the recycled slot (generation check).
func (s *shard) exec(ev *event) {
	s.now = ev.at
	if ev.target != nil {
		target, from, m := ev.target, ev.from, ev.msg
		s.release(ev)
		s.deliver(target, from, m)
	} else {
		fn, owner := ev.fn, ev.owner
		s.release(ev)
		// Timers scheduled through a crashed endpoint's clock are consumed
		// without firing: a silently-failed node must not run app callbacks.
		// Net-level timers (owner == nil) always fire.
		if owner != nil && !owner.Up() {
			return
		}
		fn()
	}
}

// runTo processes the shard's events with at < horizon (at <= horizon
// when inclusive), leaving the shard clock at the horizon. Inclusive
// windows exist only when a RunFor deadline cuts a window short; the cap
// guarantees cross-shard arrivals land strictly after the deadline, so
// inclusivity cannot reorder them (see windowStep).
func (s *shard) runTo(horizon time.Duration, inclusive bool) {
	s.processed = 0
	for s.events.Len() > 0 {
		next := s.events.peek()
		if next.at > horizon || (!inclusive && next.at == horizon) {
			break
		}
		ev := s.events.pop()
		if ev.cancelled {
			s.release(ev)
			continue
		}
		s.exec(ev)
		s.processed++
	}
	s.now = horizon
}

// minNextEvent returns the earliest pending event time across all shards.
func (n *Net) minNextEvent() (time.Duration, bool) {
	mn, ok := forever, false
	for _, s := range n.shards {
		if s.events.Len() > 0 {
			if at := s.events.peek().at; !ok || at < mn {
				mn, ok = at, true
			}
		}
	}
	return mn, ok
}

// advanceAll moves every shard clock (and the global clock) forward to t,
// e.g. to a RunFor deadline beyond the last event.
func (n *Net) advanceAll(t time.Duration) {
	for _, s := range n.shards {
		if s.now < t {
			s.now = t
		}
	}
	if n.now < t {
		n.now = t
	}
}

// windowStep runs one conservative window, bounded by limit (a RunFor
// deadline, or forever). It reports the number of events processed and
// whether there was anything at all to do before the limit.
func (n *Net) windowStep(limit time.Duration) (processed uint64, more bool) {
	mn, ok := n.minNextEvent()
	if !ok || mn > limit {
		return 0, false
	}
	horizon := mn + n.cfg.Lookahead
	inclusive := false
	if horizon < mn || horizon > limit { // "< mn" guards addition overflow
		horizon = limit
		inclusive = true
	}
	// A shard with nothing scheduled this window needs no worker — and no
	// wakeup: it can only receive cross-shard arrivals, which land at or
	// after the horizon anyway.
	busy := n.busyScratch[:0]
	for _, s := range n.shards {
		if s.events.Len() > 0 && (s.events.peek().at < horizon || (inclusive && s.events.peek().at == horizon)) {
			busy = append(busy, s)
		} else {
			s.now = horizon
		}
	}
	if n.pool != nil && len(busy) > 1 {
		// Phased barrier on the persistent pool: publish one immutable
		// job, wake only the helpers this window can use, claim shards
		// alongside them, then block on the single completion signal.
		// The job owns its shard slice (a late worker may still read it
		// after this window ends), so busyScratch is not reused for it.
		job := &windowJob{
			shards:    append([]*shard(nil), busy...),
			horizon:   horizon,
			inclusive: inclusive,
			done:      make(chan struct{}, 1),
		}
		job.remaining.Store(int32(len(busy)))
		n.running = true
		wake := min(n.pool.workers, len(busy)-1)
		for i := 0; i < wake; i++ {
			n.pool.work <- job
		}
		job.run()
		<-job.done
		n.running = false
		for _, s := range n.shards {
			s.flushInbox()
		}
	} else {
		// One busy shard, or no pool (one shard, a single core,
		// Workers == 1, or a bare Step outside a run session): run the
		// busy shards sequentially inline. Shards are independent within a
		// window, so this is the same schedule with one worker; with only
		// this goroutine running, cross-shard sends go straight into the
		// target's heap (see Endpoint.Send) and it costs no coordination
		// at all.
		for _, s := range busy {
			s.runTo(horizon, inclusive)
		}
	}
	for _, s := range busy {
		processed += s.processed
	}
	n.busyScratch = busy[:0]
	n.now = horizon
	if n.barrierHook != nil {
		n.barrierHook(horizon)
	}
	return processed, true
}
