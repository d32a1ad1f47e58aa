// Package storage provides the per-node storage backends used by PAST: a
// capacity-accounted content store for primary and diverted replicas, a
// GreedyDual-Size cache that soaks up the node's unused capacity
// (section 2.3 of the paper; policies follow the companion SOSP'01 paper),
// and DiskStore, which keeps the content store's replicas and diversion
// pointers in one append-only log per directory, replayed and re-proved at
// boot.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"past/internal/id"
	"past/internal/wire"
)

// Errors returned by the store.
var (
	ErrNoSpace   = errors.New("storage: insufficient free space")
	ErrNotFound  = errors.New("storage: file not found")
	ErrDuplicate = errors.New("storage: file already stored")
)

// Item is a stored file: its certificate plus content.
//
// Zero-copy convention: Data is shared, never copied. Callers hand
// ownership of the slice to the store (or cache) at Put and must treat
// the bytes as immutable from then on — the same rule package wire
// imposes on message payloads ("immutable after Send"). In the simulator
// every replica of one insert therefore aliases a single backing array,
// and over the TCP transport a cached copy is the frame buffer the bytes
// arrived in, which the decoded message aliases.
//
// A replica a DiskStore serves holds no Data: its Body, a Record, says
// where in the log the certificate and content live, and a reply carries
// the Body so the transport reads the record straight into the frame (see
// wire.Stored); DiskStore.Get reads the whole replica back for local use.
// No node re-hashes content before serving it: a stored replica was
// verified against Cert.ContentHash when it was stored or replayed, a
// re-read from disk is checked against its record's CRC-32C, and the
// client re-hashes what it receives (VerifyContentFresh).
type Item struct {
	Cert wire.FileCertificate
	Data []byte
	// Diverted marks replicas held on behalf of another node (replica
	// diversion, section 2.3).
	Diverted bool
	// Primary names the node responsible in nodeId space when Diverted.
	Primary wire.NodeRef
	// Body, set instead of Data on a replica DiskStore.Serve returns, is
	// where a frame encodes the certificate and content from.
	Body wire.Stored
}

// Store is a capacity-accounted in-memory content store. It is safe for
// concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	files    map[id.File]*Item
	// pointers maps fileIds this node is responsible for to the node
	// actually holding the diverted replica.
	pointers map[id.File]wire.NodeRef
}

// NewStore creates a store with the given capacity in bytes.
func NewStore(capacity int64) *Store {
	return &Store{
		capacity: capacity,
		files:    make(map[id.File]*Item),
		pointers: make(map[id.File]wire.NodeRef),
	}
}

// Capacity returns the advertised capacity in bytes.
func (s *Store) Capacity() int64 { return s.capacity }

// Used returns the bytes consumed by stored replicas (not cache).
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Free returns capacity minus replica usage.
func (s *Store) Free() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity - s.used
}

// Len returns the number of stored files.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

// Put stores a file. It fails with ErrNoSpace if the content does not fit
// and ErrDuplicate if the fileId is already present. Put takes ownership
// of item.Data without copying (see Item); the caller must not mutate the
// slice afterwards.
func (s *Store) Put(item Item) error {
	it := &item
	size := int64(len(it.Data))
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[it.Cert.FileID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, it.Cert.FileID.Short())
	}
	if s.used+size > s.capacity {
		return fmt.Errorf("%w: need %d, free %d", ErrNoSpace, size, s.capacity-s.used)
	}
	s.files[it.Cert.FileID] = it
	s.used += size
	return nil
}

// Get returns the stored item for f, or ErrNotFound itself (unwrapped:
// every lookup hop that holds no replica takes this path).
func (s *Store) Get(f id.File) (Item, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.files[f]
	if !ok {
		return Item{}, ErrNotFound
	}
	return *it, nil
}

// Serve is Get: a replica in memory is served as it is held.
func (s *Store) Serve(f id.File) (Item, error) { return s.Get(f) }

// Has reports whether f is stored (replica or diverted replica).
func (s *Store) Has(f id.File) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.files[f]
	return ok
}

// Delete removes f and returns the freed byte count, or ErrNotFound itself.
func (s *Store) Delete(f id.File) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.files[f]
	if !ok {
		return 0, ErrNotFound
	}
	size := int64(len(it.Data))
	delete(s.files, f)
	s.used -= size
	return size, nil
}

// Files returns the stored fileIds in deterministic (sorted) order.
func (s *Store) Files() []id.File {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]id.File, 0, len(s.files))
	for f := range s.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// Walk calls fn with every stored replica's fileId, its certificate's
// Size and Replicas, and its diversion flag, in no set order, copying
// nothing. The store is unlocked while fn runs, so a replica stored or
// deleted meanwhile may or may not be yielded, as for a map ranged over
// while it changes.
func (s *Store) Walk(fn func(f id.File, size int64, replicas int, diverted bool)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for f, it := range s.files {
		s.mu.Unlock()
		fn(f, it.Cert.Size, it.Cert.Replicas, it.Diverted)
		s.mu.Lock()
	}
}

// Items returns copies of all stored items in Files() order.
func (s *Store) Items() []Item {
	files := s.Files()
	out := make([]Item, 0, len(files))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range files {
		if it, ok := s.files[f]; ok {
			out = append(out, *it)
		}
	}
	return out
}

// SetPointer records that this node's replica responsibility for f is
// delegated to holder. It never fails; the error is DiskStore's.
func (s *Store) SetPointer(f id.File, holder wire.NodeRef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pointers[f] = holder
	return nil
}

// Pointer returns the diversion target for f, if any.
func (s *Store) Pointer(f id.File) (wire.NodeRef, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.pointers[f]
	return r, ok
}

// DeletePointer removes a diversion pointer, reporting whether it existed.
// It never fails; the error is DiskStore's.
func (s *Store) DeletePointer(f id.File) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pointers[f]
	delete(s.pointers, f)
	return ok, nil
}
