package seccrypt

// Content-hash memoization.
//
// PR 1 made replication zero-copy: the SAME backing buffer travels from
// the client through the root to every replica and cache (the wire
// contract makes message payloads immutable after Send). Each hop still
// re-hashed it — VerifyContent runs at the root, at each of the k
// replicas and at every caching node, so one 4 KiB insert paid ~6
// SHA-256 passes over identical bytes. The memo below caches the digest
// keyed by buffer identity (base pointer + length), collapsing those
// passes to one.
//
// Safety: a hit requires the exact same backing array and length, and
// the wire contract forbids mutating a buffer once sent. The map holds
// the base pointer, which keeps the buffer alive; the map is swapped
// out wholesale when the cap is reached, so at most ~contentMemoCap
// stored bodies are pinned (they are almost always pinned by replica
// stores anyway). A sync.Map keeps the hit path lock-free: experiment
// points run their clusters concurrently, and a single global mutex here
// would serialize them.

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

const contentMemoCap = 1024

type contentKey struct {
	p *byte
	n int
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
	k := contentKey{&data[0], len(data)}
	if h, ok := contentMap().Load(k); ok {
		return h.([sha256.Size]byte)
	}
	h := sha256.Sum256(data)
	storeContentHash(k, h)
	return h
}

// ContentHashFresh rehashes data unconditionally and refreshes the
// memo. Client-facing verification uses it so that a caller who
// violates the immutability contract (mutating a buffer after handing
// it to Insert) still gets the documented "content hash mismatch"
// DETECTION on lookup rather than a stale memo hit silently approving
// corrupted bytes.
func ContentHashFresh(data []byte) [sha256.Size]byte {
	h := sha256.Sum256(data)
	if len(data) > 0 {
		storeContentHash(contentKey{&data[0], len(data)}, h)
	}
	return h
}

func storeContentHash(k contentKey, h [sha256.Size]byte) {
	// The cap check races benignly: a burst may overshoot by a few
	// entries or drop a few early, but the map is always bounded within
	// a small constant of contentMemoCap and correctness never depends
	// on an entry being present.
	if contentMemo.entries.Add(1) > contentMemoCap {
		contentMemo.entries.Store(0)
		contentMemo.m.Store(&sync.Map{})
	}
	contentMap().Store(k, h)
}
