package simnet

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// The pending events live in a calendar queue (Brown, "Calendar queues: a
// fast O(1) priority queue implementation for the simulation event set
// problem", CACM 31(10), 1988). Virtual time is cut into buckets of
// 2^bucketShift ns; a ring of ringSize buckets covers the next ~1.07 s.
// A bucket is an unsorted list through event.next, and an occupancy bitmap
// finds the next non-empty one. The bucket being popped is moved into one
// slice and sorted by (at, src, seq); events beyond the ring's span wait in
// a binary heap and join their bucket when the queue reaches it.
//
// Buckets partition time in order, and each bucket is sorted by the full
// key before its first pop, so every pop returns the minimum of the
// pending set: the order is exactly a heap's, only cheaper to keep.
const (
	bucketShift = 17      // a bucket spans 2^17 ns ≈ 131 µs
	ringSize    = 1 << 13 // 8192 buckets ≈ 1.07 s
	ringMask    = ringSize - 1
)

func bucketOf(at time.Duration) int64 { return int64(at) >> bucketShift }

// eventQueue is the Net's pending-event set, a min-queue on (at, src, seq).
// Its invariants, with cur the current bucket:
//   - now[head:] holds bucket cur's events, sorted;
//   - the ring holds events of buckets b with cur < b < cur+ringSize, in
//     slot b&ringMask, and occ has a slot's bit set iff the slot is
//     non-empty;
//   - far holds events of buckets after cur.
//
// So the minimum is now[head] when that is pending, and otherwise in the
// earlier of the nearest ring bucket and far's top bucket.
type eventQueue struct {
	n      int   // pending events in all three tiers
	cur    int64 // the current bucket
	now    []*event
	head   int
	inRing int
	far    eventHeap
	// The 65 KiB of ring and bitmap go last, so that the fields every
	// push and pop reads share cache lines.
	occ  [ringSize / 64]uint64
	ring [ringSize]*event
}

func (q *eventQueue) Len() int { return q.n }

// peek returns the earliest pending event; the queue must not be empty.
func (q *eventQueue) peek() *event {
	if q.head == len(q.now) {
		q.advance()
	}
	return q.now[q.head]
}

func (q *eventQueue) pop() *event {
	ev := q.peek()
	q.now[q.head] = nil
	q.head++
	if q.head == len(q.now) {
		q.now, q.head = q.now[:0], 0
	}
	q.n--
	return ev
}

func (q *eventQueue) push(ev *event) {
	b := bucketOf(ev.at)
	if q.n == 0 {
		q.cur = b
	}
	q.n++
	switch {
	case b == q.cur:
		q.insertNow(ev)
	case b < q.cur:
		q.rewind(b)
		q.now = append(q.now, ev)
	default:
		q.place(ev, b)
	}
}

// place files an event of a bucket after cur into the ring or, beyond the
// ring's span, the far tier.
func (q *eventQueue) place(ev *event, b int64) {
	if b-q.cur >= ringSize {
		q.far.push(ev)
		return
	}
	s := b & ringMask
	ev.next = q.ring[s]
	q.ring[s] = ev
	q.occ[s>>6] |= 1 << (s & 63)
	q.inRing++
}

// unlink empties ring slot s and returns its list. The caller walks the
// list, clearing each next link and counting each event out of inRing.
func (q *eventQueue) unlink(s int64) *event {
	head := q.ring[s]
	q.ring[s] = nil
	q.occ[s>>6] &^= 1 << (s & 63)
	return head
}

// insertNow adds an event of bucket cur (a zero-delay send, a timer due
// within the bucket, the first push into an empty queue) to the sorted
// slice. It usually lands at the tail or near the head, so a sorted insert
// shifts the popped-over prefix left rather than the tail right.
func (q *eventQueue) insertNow(ev *event) {
	if last := len(q.now) - 1; last < q.head || eventCmp(ev, q.now[last]) > 0 {
		q.now = append(q.now, ev)
		return
	}
	i, _ := slices.BinarySearchFunc(q.now[q.head:], ev, eventCmp)
	i += q.head
	if q.head > 0 {
		copy(q.now[q.head-1:], q.now[q.head:i])
		q.head--
		q.now[i-1] = ev
		return
	}
	q.now = slices.Insert(q.now, i, ev)
}

// rewind makes an earlier bucket b current. Only code between runs gets
// here: peek advanced cur to the next pending event, and then a caller of
// RunFor or Step scheduled something between the clock and that event.
// The ring's slots for buckets [b, cur) hold events a full span later,
// which fall outside the new span and move to the far tier; the old
// current bucket goes back to the ring.
func (q *eventQueue) rewind(b int64) {
	end := b + min(q.cur-b, ringSize)
	for x := q.scan(b, end); x >= 0; x = q.scan(x+1, end) {
		for ev := q.unlink(x & ringMask); ev != nil; {
			next := ev.next
			ev.next = nil
			q.inRing--
			q.far.push(ev)
			ev = next
		}
	}
	q.cur = b
	for i, ev := range q.now[q.head:] {
		q.place(ev, bucketOf(ev.at))
		q.now[q.head+i] = nil
	}
	q.now, q.head = q.now[:0], 0
}

// advance loads the next non-empty bucket into the slice and sorts it.
// The slice is empty and some event is pending.
func (q *eventQueue) advance() {
	b := int64(math.MaxInt64)
	if q.inRing > 0 {
		b = q.scan(q.cur+1, q.cur+ringSize)
	}
	if q.far.Len() > 0 {
		b = min(b, bucketOf(q.far.peek().at))
	}
	q.cur = b
	// Slot b&ringMask is bucket b's: any ring event is less than a span
	// past the old cur, and b is at most the nearest of them.
	if s := b & ringMask; q.occ[s>>6]&(1<<(s&63)) != 0 {
		for ev := q.unlink(s); ev != nil; {
			next := ev.next
			ev.next = nil
			q.inRing--
			q.now = append(q.now, ev)
			ev = next
		}
	}
	for q.far.Len() > 0 && bucketOf(q.far.peek().at) == b {
		q.now = append(q.now, q.far.pop())
	}
	if len(q.now) > shortBucket {
		slices.SortFunc(q.now, eventCmp)
		return
	}
	// Most buckets are this short, where the generic sort's set-up costs
	// more than the sort. The key is unique, so the order is the same.
	for i := 1; i < len(q.now); i++ {
		for j := i; j > 0 && eventLess(q.now[j], q.now[j-1]); j-- {
			q.now[j], q.now[j-1] = q.now[j-1], q.now[j]
		}
	}
}

// shortBucket is the longest bucket advance insertion-sorts.
const shortBucket = 12

// scan returns the first bucket in [from, end) whose ring slot is
// occupied, or -1. It reads the bitmap a word at a time.
func (q *eventQueue) scan(from, end int64) int64 {
	for x := from; x < end; {
		s := x & ringMask
		if w := q.occ[s>>6] >> (s & 63); w != 0 {
			if x += int64(bits.TrailingZeros64(w)); x < end {
				return x
			}
			return -1
		}
		x += 64 - s&63
	}
	return -1
}

// eventCmp orders events by (at, src, seq). It is written out rather
// than built from cmp.Compare so that it inlines into every comparison.
func eventCmp(a, b *event) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.src < b.src:
		return -1
	case a.src > b.src:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// eventHeap is a typed binary min-heap ordered by (at, src, seq): the
// calendar's far tier, for events more than a ring span ahead.
type eventHeap struct {
	evs []*event
}

func (h *eventHeap) Len() int { return len(h.evs) }

func (h *eventHeap) peek() *event { return h.evs[0] }

func eventLess(a, b *event) bool { return eventCmp(a, b) < 0 }

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
