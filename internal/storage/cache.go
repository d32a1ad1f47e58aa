package storage

import (
	"container/heap"
	"sync"

	"past/internal/id"
)

// Cache is a GreedyDual-Size (GD-S) file cache. PAST nodes use their
// unused disk capacity to cache popular files passing through them
// (section 2.3); the SOSP'01 companion paper picks GD-S as the eviction
// policy. Each cached file f carries a weight H(f) = c(f)/s(f) + L where
// c(f) is a retrieval-cost estimate, s(f) the size, and L a running
// inflation floor raised to the weight of each evicted victim; hits reset
// a file's weight against the current floor, so recently useful and
// expensive-to-refetch files survive.
//
// The cache's capacity is dynamic: the PAST layer shrinks it to whatever
// space replicas have not claimed, evicting as needed (cached copies are
// expendable; primary replicas are not).
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	floor    float64
	entries  map[id.File]*cacheEntry
	pq       cacheHeap
	seq      uint64
}

type cacheEntry struct {
	item   Item
	weight float64
	size   int64
	seq    uint64 // tiebreak for determinism
	index  int    // heap position
}

// NewCache creates a cache with an initial capacity in bytes.
func NewCache(capacity int64) *Cache {
	return &Cache{
		capacity: capacity,
		entries:  make(map[id.File]*cacheEntry),
	}
}

// Capacity returns the current capacity.
func (c *Cache) Capacity() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// Used returns bytes held by cached copies.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached files.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Resize adjusts capacity, evicting lowest-weight entries if the cache
// now overflows. The PAST layer calls this whenever replica storage
// grows or shrinks.
func (c *Cache) Resize(capacity int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if capacity < 0 {
		capacity = 0
	}
	c.capacity = capacity
	c.evictToFit(0)
}

// Put inserts a cached copy with the given refetch-cost estimate. Files
// larger than the capacity are ignored. It reports whether the file was
// cached. Like Store.Put, Put takes ownership of item.Data without
// copying; the caller must treat the bytes as immutable afterwards.
func (c *Cache) Put(item Item, cost float64) bool {
	size := int64(len(item.Data))
	c.mu.Lock()
	defer c.mu.Unlock()
	if size == 0 || size > c.capacity {
		return false
	}
	if e, ok := c.entries[item.Cert.FileID]; ok {
		// Refresh weight on re-insert.
		e.weight = c.floor + cost/float64(e.size)
		heap.Fix(&c.pq, e.index)
		return true
	}
	// GD-S admission: evict until it fits, but never evict entries whose
	// weight exceeds the newcomer's prospective weight (they are worth
	// more than what we are inserting).
	w := c.floor + cost/float64(size)
	for c.used+size > c.capacity {
		if len(c.pq) == 0 || c.pq[0].weight > w {
			return false
		}
		c.evictMin()
	}
	e := &cacheEntry{item: item, weight: w, size: size, seq: c.seq}
	c.seq++
	c.entries[item.Cert.FileID] = e
	heap.Push(&c.pq, e)
	c.used += size
	return true
}

// Get returns a cached copy, refreshing its GD-S weight on hit.
func (c *Cache) Get(f id.File) (Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[f]
	if !ok {
		return Item{}, false
	}
	// Hit: re-inflate the weight relative to the current floor and
	// refresh recency (the heap breaks weight ties by sequence, giving
	// LRU behaviour among equal-weight entries).
	base := e.weight - c.floor
	if base <= 0 {
		base = 1 / float64(e.size)
	}
	e.weight = c.floor + base
	e.seq = c.seq
	c.seq++
	heap.Fix(&c.pq, e.index)
	return e.item, true
}

// Has reports whether f is cached without touching weights.
func (c *Cache) Has(f id.File) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[f]
	return ok
}

// Invalidate removes f from the cache (e.g. after a reclaim).
func (c *Cache) Invalidate(f id.File) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[f]
	if !ok {
		return false
	}
	heap.Remove(&c.pq, e.index)
	delete(c.entries, f)
	c.used -= e.size
	return true
}

// evictToFit evicts lowest-weight entries until need bytes fit. Lock held.
func (c *Cache) evictToFit(need int64) {
	for c.used+need > c.capacity && len(c.pq) > 0 {
		c.evictMin()
	}
}

// evictMin removes the lowest-weight entry and raises the floor to its
// weight (the "aging" mechanism of GreedyDual). Lock held.
func (c *Cache) evictMin() {
	e := heap.Pop(&c.pq).(*cacheEntry)
	if e.weight > c.floor {
		c.floor = e.weight
	}
	delete(c.entries, e.item.Cert.FileID)
	c.used -= e.size
}

// ---------------------------------------------------------------------------
// heap implementation

type cacheHeap []*cacheEntry

func (h cacheHeap) Len() int { return len(h) }
func (h cacheHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].seq < h[j].seq
}
func (h cacheHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *cacheHeap) Push(x interface{}) {
	e := x.(*cacheEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *cacheHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
