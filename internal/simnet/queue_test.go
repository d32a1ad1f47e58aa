package simnet

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// span is the virtual time the calendar ring covers.
const span = time.Duration(ringSize) << bucketShift

// refQueue is the reference pending set: a slice kept sorted by
// (at, src, seq), popped from the front.
type refQueue struct{ evs []*event }

func (r *refQueue) push(ev *event) {
	i, _ := slices.BinarySearchFunc(r.evs, ev, eventCmp)
	r.evs = slices.Insert(r.evs, i, ev)
}

func (r *refQueue) pop() *event {
	ev := r.evs[0]
	r.evs = r.evs[1:]
	return ev
}

// schedule runs one seeded schedule against the calendar queue and the
// reference at once, the way a Net does: the clock is the time of the last
// popped event, pushes are at clock+delay, and code between runs may move
// the clock forward to anywhere short of the next pending event, as RunFor
// does at a deadline after its peek looked ahead.
type schedule struct {
	t       *testing.T
	rng     *rand.Rand
	q       eventQueue
	ref     refQueue
	clock   time.Duration
	seqs    [6]uint64 // per-source counters; source 0 is net-level
	pending []*event  // live pushed events, for Stop
	pops    int
}

func (d *schedule) push(delay time.Duration) {
	src := int32(d.rng.Intn(len(d.seqs)))
	ev := &event{at: d.clock + delay, src: src, seq: d.seqs[src]}
	d.seqs[src]++
	d.q.push(ev)
	d.ref.push(ev)
	d.pending = append(d.pending, ev)
}

// delay draws from the cases the queue treats differently: zero (into the
// current bucket), within a bucket, exact ties on a millisecond grid,
// ordinary hops and timers, and far-tier delays on both sides of the
// ring's span.
func (d *schedule) delay() time.Duration {
	switch d.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return time.Duration(d.rng.Int63n(1 << bucketShift))
	case 2:
		return time.Duration(d.rng.Intn(4)) * time.Millisecond
	case 3:
		return span - time.Duration(d.rng.Int63n(2<<bucketShift)) + time.Duration(d.rng.Int63n(2<<bucketShift))
	case 4:
		return span + time.Duration(d.rng.Int63n(int64(3*span)))
	case 5:
		return time.Duration(d.rng.Int63n(int64(span)))
	default:
		return time.Duration(d.rng.Int63n(int64(100 * time.Millisecond)))
	}
}

// pop takes one event from both sides and checks they agree. A stopped
// event still comes out (a Net drops it when popped), so it is compared
// like any other.
func (d *schedule) pop() {
	if d.q.Len() != len(d.ref.evs) {
		d.t.Fatalf("pop %d: Len %d, reference %d", d.pops, d.q.Len(), len(d.ref.evs))
	}
	got, want := d.q.pop(), d.ref.pop()
	if got != want {
		d.t.Fatalf("pop %d: got (%v, %d, %d), want (%v, %d, %d)", d.pops, got.at, got.src, got.seq, want.at, want.src, want.seq)
	}
	if got.at < d.clock {
		d.t.Fatalf("pop %d: event at %v behind clock %v", d.pops, got.at, d.clock)
	}
	d.clock = got.at
	d.pops++
	if i := slices.Index(d.pending, got); i >= 0 {
		d.pending[i] = d.pending[len(d.pending)-1]
		d.pending = d.pending[:len(d.pending)-1]
	}
}

func (d *schedule) step() {
	switch r := d.rng.Intn(20); {
	case r < 8:
		d.push(d.delay())
	case r < 15:
		if d.q.Len() > 0 {
			d.pop()
		}
	case r < 16:
		if len(d.pending) > 0 {
			d.pending[d.rng.Intn(len(d.pending))].cancelled = true
		}
	case r < 18:
		// A RunFor deadline: peek (which may advance the current bucket
		// far ahead), move the clock part-way towards the next event, and
		// schedule behind it.
		if d.q.Len() > 0 {
			next := d.q.peek().at
			d.clock += time.Duration(d.rng.Int63n(int64(next-d.clock) + 1))
			for range 1 + d.rng.Intn(4) {
				d.push(d.delay())
			}
		}
	case r < 19:
		// Drain, then idle for longer than the ring's span.
		for d.q.Len() > 0 {
			d.pop()
		}
		d.clock += span + time.Duration(d.rng.Int63n(int64(4*span)))
	default:
		// A burst of same-time events from every source.
		for range 2 + d.rng.Intn(8) {
			d.push(0)
		}
	}
}

func TestEventQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		d := &schedule{t: t, rng: rand.New(rand.NewSource(seed))}
		for range 20000 {
			d.step()
		}
		for d.q.Len() > 0 {
			d.pop()
		}
		if len(d.ref.evs) != 0 {
			t.Fatalf("seed %d: queue empty, reference holds %d", seed, len(d.ref.evs))
		}
		// Each schedule spans many ring wraps, so wrap-around is covered.
		if wraps := d.clock / span; wraps < 10 {
			t.Fatalf("seed %d: clock reached %v, only %d ring spans", seed, d.clock, wraps)
		}
	}
}

// TestEventQueueRewindMovesAliases pins the one case a random schedule
// rarely reaches: after peek jumps the current bucket ahead, the ring holds
// an event nearly a span past the jump, and a push far behind the jump
// makes that event's slot alias a bucket inside the new span.
func TestEventQueueRewindMovesAliases(t *testing.T) {
	var q eventQueue
	mk := func(at time.Duration, seq uint64) *event { return &event{at: at, src: 1, seq: seq} }
	evs := []*event{
		mk(0, 0),
		mk(span/2, 1),
		mk(span/2+span-time.Millisecond, 2), // in the ring once cur is at span/2
		mk(time.Millisecond, 3),             // pushed after the jump: behind cur
	}
	q.push(evs[0])
	q.push(evs[1])
	if q.pop() != evs[0] || q.peek() != evs[1] {
		t.Fatal("first two pops out of order")
	}
	q.push(evs[2])
	q.push(evs[3])
	if q.far.Len() != 1 || q.inRing != 1 {
		t.Fatalf("after the rewind: far %d, ring %d; want the aliased event in far and the jumped-to one in the ring", q.far.Len(), q.inRing)
	}
	for i, want := range []*event{evs[3], evs[1], evs[2]} {
		if got := q.pop(); got != want {
			t.Fatalf("pop %d: got at %v, want %v", i, got.at, want.at)
		}
	}
	if q.Len() != 0 || q.inRing != 0 || q.far.Len() != 0 {
		t.Fatalf("queue not empty: Len %d, ring %d, far %d", q.Len(), q.inRing, q.far.Len())
	}
}

// steadyQueue fills a queue with pending events whose delays mix message
// hops and timers, and returns a step that pops the earliest and pushes it
// back at a later time, as a running simulation does.
func steadyQueue(pending int) (q *eventQueue, step func()) {
	q = &eventQueue{}
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		if i%4 == 0 {
			delays[i] = 500*time.Millisecond + time.Duration(rng.Int63n(int64(100*time.Millisecond)))
		} else {
			delays[i] = time.Duration(rng.Int63n(int64(80 * time.Millisecond)))
		}
	}
	var seq uint64
	for i := range pending {
		q.push(&event{at: delays[i%len(delays)], src: int32(i % 200), seq: seq})
		seq++
	}
	i := 0
	return q, func() {
		ev := q.pop()
		ev.at += delays[i&(len(delays)-1)]
		ev.seq = seq
		seq++
		i++
		q.push(ev)
	}
}

func TestEventQueueSteadyStateAllocatesNothing(t *testing.T) {
	_, step := steadyQueue(1400)
	for range 100000 { // reach steady-state slice capacities
		step()
	}
	if allocs := testing.AllocsPerRun(10000, step); allocs != 0 {
		t.Fatalf("steady-state pop+push allocates %.2f times", allocs)
	}
}

// BenchmarkEventQueue is one pop and one push at 1,400 pending events, the
// order of a full-scale churned network's mean (E15 at full scale, seed
// 42, averages ~900 over its 4.8 M pops).
func BenchmarkEventQueue(b *testing.B) {
	_, step := steadyQueue(1400)
	for range 100000 {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		step()
	}
}
