package seccrypt

// Content-hash memoization.
//
// PR 1 made replication zero-copy: the SAME backing buffer travels from
// the client through the root to every replica and cache (the wire
// contract makes message payloads immutable after Send). Each hop still
// re-hashed it — VerifyContent runs at the root, at each of the k
// replicas and at every caching node, so one 4 KiB insert paid ~6
// SHA-256 passes over identical bytes. The memo below caches the digest
// keyed by buffer identity, collapsing those passes to one.
//
// Identity is the buffer's address and length, confirmed by a weak
// pointer to its first byte: a hit requires the weak pointer to still
// lead to that address, so the hashed buffer is alive and is the one at
// hand (two live objects never share an address), and the wire contract
// forbids mutating it once sent. The memo holds no strong reference: a
// body the node has stopped using — a frame after its handler returned,
// a cached copy once evicted — is collected as if never hashed, and a new
// buffer allocated at its address misses, since the old weak pointer
// then leads nowhere. The map is swapped out wholesale when the cap is
// reached. A sync.Map keeps the hit path lock-free: experiment points run
// their clusters concurrently, and a single global mutex here would
// serialize them.

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

const contentMemoCap = 1024

type contentKey struct {
	addr uintptr
	n    int
}

// contentEntry is a memoized digest and the buffer it was taken over.
type contentEntry struct {
	buf weak.Pointer[byte]
	h   [sha256.Size]byte
}

var contentMemo struct {
	m       atomic.Pointer[sync.Map]
	entries atomic.Int64
}

func contentMap() *sync.Map {
	if m := contentMemo.m.Load(); m != nil {
		return m
	}
	m := &sync.Map{}
	if !contentMemo.m.CompareAndSwap(nil, m) {
		return contentMemo.m.Load()
	}
	return m
}

// ContentHash returns sha256(data), memoized by buffer identity. It
// must only be used on buffers inside the wire immutability window —
// the insert/replication fan-out, cache admission — never as the final
// integrity check handed to a user (see ContentHashFresh).
func ContentHash(data []byte) [sha256.Size]byte {
	if len(data) == 0 {
		return sha256.Sum256(nil)
	}
	p := &data[0]
	if e, ok := contentMap().Load(contentKey{uintptr(unsafe.Pointer(p)), len(data)}); ok {
		if e := e.(contentEntry); e.buf.Value() == p {
			return e.h
		}
	}
	h := sha256.Sum256(data)
	storeContentHash(p, len(data), h)
	return h
}

// ContentHashFresh rehashes data unconditionally. Client-facing
// verification uses it so that a caller who violates the immutability
// contract (mutating a buffer after handing it to Insert) still gets the
// documented "content hash mismatch" DETECTION on lookup rather than a
// stale memo hit silently approving corrupted bytes. It corrects an entry
// the memo already holds for this very buffer when the digest disagrees,
// so later ContentHash callers see the bytes as they are now, but it never
// adds one: a client's lookup reply is hashed once and dropped, and an
// entry for it would cost a heap probe, a weak pointer and a map store
// that nothing reads.
func ContentHashFresh(data []byte) [sha256.Size]byte {
	h := sha256.Sum256(data)
	if len(data) == 0 {
		return h
	}
	p := &data[0]
	m, k := contentMap(), contentKey{uintptr(unsafe.Pointer(p)), len(data)}
	if v, ok := m.Load(k); ok {
		if e := v.(contentEntry); e.buf.Value() == p && e.h != h {
			m.CompareAndSwap(k, v, contentEntry{e.buf, h})
		}
	}
	return h
}

func storeContentHash(p *byte, n int, h [sha256.Size]byte) {
	if !onHeap(p) {
		return // weak.Make would abort the process; such buffers go unmemoized
	}
	// The cap check races benignly: a burst may overshoot by a few
	// entries or drop a few early, but the map is always bounded within
	// a small constant of contentMemoCap and correctness never depends
	// on an entry being present.
	if contentMemo.entries.Add(1) > contentMemoCap {
		contentMemo.entries.Store(0)
		contentMemo.m.Store(&sync.Map{})
	}
	contentMap().Store(contentKey{uintptr(unsafe.Pointer(p)), n}, contentEntry{weak.Make(p), h})
}

// onHeap reports whether p points into the Go heap, the only memory
// weak.Make accepts: a package-level buffer (linker-allocated) or memory
// the runtime does not manage would abort it. runtime.AddCleanup is the
// public probe that tells them apart — it registers nothing for a global,
// returning the zero Cleanup, and panics for foreign memory — and the
// cleanup it does register is stopped at once.
func onHeap(p *byte) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	c := runtime.AddCleanup(p, func(struct{}) {}, struct{}{})
	if c == (runtime.Cleanup{}) {
		return false
	}
	c.Stop()
	return true
}
