package seccrypt

import (
	"crypto/sha256"
	"runtime"
	"testing"
	"unsafe"
	"weak"
)

// TestContentHashFreshDetectsMutation pins the two halves of the
// content-memo contract: ContentHash may serve a stale digest for a
// mutated buffer (it exists for the immutable fan-out window), while
// ContentHashFresh must rehash, detect the mutation, and refresh the
// memo for subsequent callers.
func TestContentHashFreshDetectsMutation(t *testing.T) {
	data := []byte("content-memo mutation probe, long enough to matter")
	h1 := ContentHash(data)
	if ContentHash(data) != h1 {
		t.Fatal("memoized hash not stable")
	}
	data[0] ^= 1
	if ContentHash(data) != h1 {
		t.Fatal("expected the memo to serve the (stale) cached digest for the same buffer")
	}
	h2 := ContentHashFresh(data)
	if h2 == h1 {
		t.Fatal("fresh hash failed to detect the mutation")
	}
	if ContentHash(data) != h2 {
		t.Fatal("fresh hash did not refresh the memo entry")
	}
}

// TestContentMemoHoldsNoBuffer: a hashed buffer is collected once its
// holder drops it, and a new buffer of the same length that the
// allocator places at the same address, holding other bytes, is hashed
// anew — never served the digest of the buffer that lived there before.
func TestContentMemoHoldsNoBuffer(t *testing.T) {
	const n = 48
	old := make([]byte, n)
	for i := range old {
		old[i] = 'a'
	}
	ContentHash(old)
	addr := uintptr(unsafe.Pointer(&old[0]))
	w := weak.Make(&old[0])
	old = nil
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("the memo keeps a hashed buffer alive")
	}
	var keep [][]byte // occupy the other slots until the allocator reuses addr
	for range 1 << 17 {
		b := make([]byte, n)
		if uintptr(unsafe.Pointer(&b[0])) != addr {
			keep = append(keep, b)
			continue
		}
		for i := range b {
			b[i] = 'b'
		}
		if ContentHash(b) != sha256.Sum256(b) {
			t.Fatal("a new buffer at a reused address got the old buffer's digest")
		}
		return
	}
	t.Fatalf("the allocator never reused %#x in %d allocations", addr, len(keep))
}

// TestContentHashUnmemoizedGlobal: a package-level buffer, which weak
// pointers cannot reference, is hashed correctly and not memoized.
func TestContentHashUnmemoizedGlobal(t *testing.T) {
	for range 2 {
		if ContentHash(globalBody[:]) != sha256.Sum256(globalBody[:]) {
			t.Fatal("wrong digest for a package-level buffer")
		}
	}
	if onHeap(&globalBody[0]) {
		t.Fatal("a package-level buffer reported as heap memory")
	}
	if !onHeap(&make([]byte, 8)[0]) {
		t.Fatal("a heap buffer reported as not heap memory")
	}
}

var globalBody = [16]byte{1, 2, 3}

// TestContentHashFreshAddsNoEntry: the client's verdict on a buffer the
// memo has never seen hashes it and records nothing — the entry count
// stays where it was, the buffer has no entry for ContentHash to find, and
// the call allocates nothing (no cleanup probe, no weak pointer).
func TestContentHashFreshAddsNoEntry(t *testing.T) {
	data := []byte("a lookup reply the memo has never seen")
	before := contentMemo.entries.Load()
	if ContentHashFresh(data) != sha256.Sum256(data) {
		t.Fatal("wrong digest")
	}
	if n := contentMemo.entries.Load(); n != before {
		t.Fatalf("memo entry count %d → %d", before, n)
	}
	if _, ok := contentMap().Load(contentKey{uintptr(unsafe.Pointer(&data[0])), len(data)}); ok {
		t.Fatal("ContentHashFresh added an entry for a buffer the memo had not seen")
	}
	if a := testing.AllocsPerRun(100, func() { ContentHashFresh(data) }); a != 0 {
		t.Fatalf("%v allocations per call", a)
	}
}
