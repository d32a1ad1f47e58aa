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
// A replica a DiskStore indexes holds no Data: its Body, a Record, says
// where in the log the content lives, and a reply carries the Body so the
// transport reads the record straight into the frame (see wire.Stored);
// Content reads it into a fresh buffer for local use. No node re-hashes
// content before serving it: a stored replica was verified against
// Cert.ContentHash when it was stored or replayed, a re-read from disk is
// checked against its record's CRC-32C, and the client re-hashes what it
// receives (VerifyContentFresh).
type Item struct {
	Cert wire.FileCertificate
	Data []byte
	// Diverted marks replicas held on behalf of another node (replica
	// diversion, section 2.3).
	Diverted bool
	// Primary names the node responsible in nodeId space when Diverted.
	Primary wire.NodeRef
	// Body, set instead of Data, is where the content is read from.
	Body wire.Stored
}

// Content returns the item's content: Data, or read from its Body into a
// fresh buffer of its own, which fails when the Body does (see Record).
func (it *Item) Content() ([]byte, error) {
	if it.Body == nil {
		return it.Data, nil
	}
	b, err := it.Body.AppendTo(nil)
	if err != nil {
		return nil, err
	}
	return b[len(b)-int(it.Cert.Size) : len(b) : len(b)], nil
}

// size is the bytes the item's content takes: Data's, or for a Body the
// certificate's Size, which a DiskStore holds its content to.
func (it *Item) size() int64 {
	if it.Body != nil {
		return it.Cert.Size
	}
	return int64(len(it.Data))
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

// Utilization returns used/capacity in [0,1].
func (s *Store) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity == 0 {
		return 0
	}
	return float64(s.used) / float64(s.capacity)
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
	return s.put(&item)
}

// put is Put indexing it itself rather than a copy.
func (s *Store) put(it *Item) error {
	size := it.size()
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
	size := it.size()
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
// delegated to holder.
func (s *Store) SetPointer(f id.File, holder wire.NodeRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pointers[f] = holder
}

// Pointer returns the diversion target for f, if any.
func (s *Store) Pointer(f id.File) (wire.NodeRef, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.pointers[f]
	return r, ok
}

// DeletePointer removes a diversion pointer, reporting whether it existed.
func (s *Store) DeletePointer(f id.File) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pointers[f]
	delete(s.pointers, f)
	return ok
}

// Pointers returns all diversion pointers (fileId → holder).
func (s *Store) Pointers() map[id.File]wire.NodeRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[id.File]wire.NodeRef, len(s.pointers))
	for k, v := range s.pointers {
		out[k] = v
	}
	return out
}
