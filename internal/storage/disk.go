package storage

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"past/internal/id"
	"past/internal/wire"
)

// DiskStore persists a node's replicas and diversion pointers under a
// directory so a storage node can restart without losing them (the
// paper's storage nodes are long-lived disks; the simulator uses the
// in-memory Store).
//
// Layout: one append-only log per directory under an in-memory key
// directory, as in Bitcask (Sheehy & Smith, Basho 2010): every live
// pointer, and per live replica one fixed-size slot without pointers.
// The certificate and the content live only in the log, and are read
// from it when a replica is served (Record) or read back whole (Get):
//
//	log       = header record*
//	header    = "PASTLOG" format(1)         format = 2, the only one read
//	record    = len(u32) crc(u32) kind(1) body
//	            len counts kind and body; crc is their CRC-32C; big-endian
//	put       = kind 1, wire.AppendReplica: Cert, Data, Primary, Diverted
//	delete    = kind 2, fileId(20)
//	pointer   = kind 3, wire.AppendPointer: fileId, holder
//	unpointer = kind 4, fileId(20)
//
// Each mutation appends one record with one write and then updates the
// index, both under mu, so the log order is the index order: a reclaim
// that races a replica store replays the way it was served, and a replica
// is served only once its record is written. A delete or a replaced
// pointer leaves dead bytes; once they exceed both the live bytes and
// compactSlack the log is rewritten, its live records copied as they are
// (log-structured cleaning, Rosenblum & Ousterhout, SOSP 1991), so the
// file stays under 2 × live + compactSlack. Nothing is fsynced (ROADMAP
// 6(a)).
type DiskStore struct {
	dir      string
	capacity int64

	// mu serialises mutations: the log's appends and rewrites, and every
	// write to the index. A mutation takes imu after it.
	mu   sync.Mutex
	size int64 // bytes in the log
	live int64 // bytes of the records the index still needs
	err  error // sticky: why the log takes no more writes

	// imu guards the index against the reads that do not take mu — a
	// lookup takes imu alone. The index, used and log are written under
	// both locks, so either one reads them.
	imu    sync.Mutex
	log    *logFile // the current log, read and appended; closed by Close
	keydir          // the index
	used   int64    // content bytes of the indexed replicas

	staleReads, corruptReads atomic.Int64
}

// slot is a replica's entry in the index. It holds no pointer, so the
// index is never marked by the collector, and costs ~100 B a replica with
// its map slot (TestDiskIndexHeapPerReplica). The record's log
// generation is the store's.
type slot struct {
	off      int64  // where the put record begins in the log
	n        uint32 // the record's length field: its kind and body
	crc      uint32 // CRC-32C over kind and body
	pre      uint32 // the leading bytes of the body that encode Cert and Data
	size     uint32 // Cert.Size; a record's u32 length bounds it
	replicas int32  // Cert.Replicas, clamped: ClosestK reads any count past the leaf set as all of it
	diverted bool
}

// at is the span of the log the slot's record occupies.
func (s slot) at() span { return span{s.off, s.off + recHeader + int64(s.n)} }

// slotOf is the index entry of it's put record at at, whose CRC is crc.
// Data must be Cert.Size bytes long, as Put and the replay check.
func slotOf(it *Item, at span, crc uint32) slot {
	return slot{
		off: at.off, n: uint32(at.len() - recHeader), crc: crc,
		pre:      uint32(wire.ReplicaPrefixLen(&it.Cert, len(it.Data))),
		size:     uint32(len(it.Data)),
		replicas: int32(max(min(it.Cert.Replicas, math.MaxInt32), math.MinInt32)),
		diverted: it.Diverted,
	}
}

// DiskStats counts the reads of a DiskStore's records that failed closed.
type DiskStats struct {
	// StaleReads counts Records read after their log was rewritten or the
	// store closed: a reply already queued when compaction ran, dropped.
	StaleReads int64
	// CorruptReads counts Records whose bytes no longer checked out when
	// read back; each was quarantined and left the index.
	CorruptReads int64
}

// logFile is one generation of the log: opened for reading and
// appending, and replaced — then closed — by a rewrite. The Records of
// its replicas read from it.
type logFile struct {
	*os.File
	ds *DiskStore
}

const (
	logName        = "replicas.log"
	quarantineName = "quarantine.corrupt"
	recHeader      = 8 // u32 length, u32 CRC-32C
	// compactSlack is the dead bytes a running store leaves in its log
	// before it rewrites it, provided they also exceed the live bytes.
	compactSlack = 8 << 20
)

// logHeader opens every log. A new layout — which includes any change to
// the wire field encodings a record body uses — gets a new format byte;
// there is no reader for any other.
var logHeader = []byte("PASTLOG\x02")

// Record kinds. The values are the disk format: append, never renumber.
const (
	kindPut byte = 1 + iota
	kindDelete
	kindPointer
	kindUnpointer
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrOldLayout is returned when a data directory holds the per-file
// records of an earlier layout: one file per replica named by its fileId,
// or the .bin + .json pairs before that. There is no reader for them:
// empty the directory and let anti-entropy bring the replicas back.
var ErrOldLayout = errors.New("storage: data dir holds per-file records of an earlier layout, which is no longer read")

var errClosed = errors.New("storage: disk store closed")

// Why a Record's read failed closed.
var (
	errStale   = errors.New("storage: record read after its log was rewritten or closed")
	errCorrupt = errors.New("storage: record no longer reads back as stored; quarantined")
)

// recordBufs recycles encode buffers so a put leaves no garbage the size
// of its body. They are write buffers — nothing keeps a reference past
// the write — unlike read buffers, which a decoded entry aliases and
// which are therefore never reused.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// VerifyFunc re-checks one entry recovered from disk before it is served
// again. Returning an error quarantines the entry. The hook keeps this
// package free of crypto: the caller (the node) supplies certificate and
// content-hash verification from seccrypt.
type VerifyFunc func(cert wire.FileCertificate, data []byte) error

// RecoveryReport summarizes what replaying a log found.
type RecoveryReport struct {
	Recovered   int // replicas indexed
	Quarantined int // records set aside: corrupt mid-log or failing verification
}

// OpenDiskStore opens (creating if needed) a disk store rooted at dir with
// the given capacity. Existing contents are indexed and count against the
// capacity; corrupt entries are quarantined.
func OpenDiskStore(dir string, capacity int64) (*DiskStore, error) {
	ds, _, err := OpenDiskStoreVerify(dir, capacity, nil)
	return ds, err
}

// OpenDiskStoreVerify is OpenDiskStore with crash recovery. It replays
// the log in one pass, reading each record into a buffer of its own,
// checking its CRC, decoding it and passing every replica through verify
// (when non-nil); what the index keeps of a replica is its slot, so the
// buffer is garbage once the record is checked:
//   - A record cut short or failing its CRC at the end of the log is the
//     torn tail of a write a crash interrupted. It was never acknowledged,
//     so it is truncated and not counted. A length corrupted to point past
//     the end of the log looks the same and is treated the same.
//   - A record that fails its CRC or its decoding mid-log, or a live
//     replica that fails verify, is quarantined and counted: its raw bytes
//     are appended to quarantine.corrupt in dir, which nothing reads. When
//     the record after a CRC failure does not check out either, its length
//     is what is corrupt, and everything from it to the end is quarantined
//     as one entry. A replica deleted later in the log is dead whatever
//     verify said of it.
//   - If anything was dropped — quarantined, or over capacity — or the
//     dead bytes exceed the live ones, the log is rewritten before the
//     store serves.
//
// A directory holding an earlier layout fails with ErrOldLayout before
// anything in it is touched.
func OpenDiskStoreVerify(dir string, capacity int64, verify VerifyFunc) (*DiskStore, RecoveryReport, error) {
	var rep RecoveryReport
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rep, fmt.Errorf("storage: open disk store: %w", err)
	}
	if err := refuseOldLayout(dir); err != nil {
		return nil, rep, err
	}
	ds := &DiskStore{dir: dir, capacity: capacity, keydir: newKeydir()}
	path := ds.logPath()
	os.Remove(path + ".tmp") //nolint:errcheck // a rewrite a crash cut short; the log it was replacing is whole
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		if err := ds.rewriteLocked(); err != nil {
			return nil, rep, err
		}
		return ds, rep, nil
	}
	if err != nil {
		return nil, rep, fmt.Errorf("storage: open disk store: %w", err)
	}
	ds.log = &logFile{f, ds}
	if err := ds.recover(verify, &rep); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, rep, err
	}
	return ds, rep, nil
}

// recover indexes what the freshly opened log replays to (see
// OpenDiskStoreVerify).
func (ds *DiskStore) recover(verify VerifyFunc, rep *RecoveryReport) error {
	failed := map[span]bool{} // puts verify rejected; quarantined if still live at the end
	end, bad, err := replayLog(ds.log.File, func(e entry, at span, crc uint32) {
		if e.kind == kindPut && verify != nil && verify(e.item.Cert, e.item.Data) != nil {
			failed[at] = true
		}
		ds.apply(e, at, crc)
	})
	if err != nil {
		return err
	}
	dropped := false
	for _, p := range ds.inLogOrder() {
		switch {
		case failed[p.at()]:
			bad = append(bad, p.at())
		case ds.used+int64(p.size) > ds.capacity:
			dropped = true
		default:
			ds.used += int64(p.size)
			ds.live += p.at().len()
			continue
		}
		delete(ds.items, p.file)
	}
	for file, holder := range ds.pointers {
		ds.live += recordLen(entry{kind: kindPointer, file: file, holder: holder})
	}
	rep.Recovered, rep.Quarantined = len(ds.items), len(bad)
	if err := quarantine(filepath.Join(ds.dir, quarantineName), ds.log, bad); err != nil {
		return err
	}
	ds.size = end
	if dead := end - int64(len(logHeader)) - ds.live; len(bad) > 0 || dropped || dead > ds.live || end < int64(len(logHeader)) {
		return ds.rewriteLocked()
	}
	if info, err := ds.log.Stat(); err == nil && info.Size() > end {
		if err := ds.log.Truncate(end); err != nil {
			return fmt.Errorf("storage: truncate torn tail: %w", err)
		}
	}
	return nil
}

// LiveFiles replays the log in dir read-only and returns the fileIds of
// the replicas it holds, sorted, with what the replay found: Recovered is
// their count and Quarantined the corrupt records mid-log. It checks only
// each record's CRC and decoding, and never truncates, rewrites or
// quarantines, so it may read the log of a store another process is
// writing: a record appended meanwhile is a torn tail or not seen. A
// directory without a log holds nothing.
func LiveFiles(dir string) ([]id.File, RecoveryReport, error) {
	var rep RecoveryReport
	f, err := os.Open(filepath.Join(dir, logName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, rep, nil
	}
	if err != nil {
		return nil, rep, err
	}
	defer f.Close() //nolint:errcheck // read-only
	idx := newKeydir()
	_, bad, err := replayLog(f, idx.apply)
	if err != nil {
		return nil, rep, err
	}
	files := slices.SortedFunc(maps.Keys(idx.items), func(a, b id.File) int { return bytes.Compare(a[:], b[:]) })
	rep.Recovered, rep.Quarantined = len(files), len(bad)
	return files, rep, nil
}

// refuseOldLayout fails with ErrOldLayout when dir holds an entry of an
// earlier layout: a name (less any extension) that is a fileId, or a .bin
// or .json file.
func refuseOldLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("storage: scan disk store: %w", err)
	}
	for _, e := range entries {
		ext := filepath.Ext(e.Name())
		if _, err := id.ParseFile(strings.TrimSuffix(e.Name(), ext)); err == nil || ext == ".bin" || ext == ".json" {
			return fmt.Errorf("%w: found %s", ErrOldLayout, filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// Dir returns the store's root directory.
func (ds *DiskStore) Dir() string { return ds.dir }

// Stats returns the counts of failed record reads.
func (ds *DiskStore) Stats() DiskStats {
	return DiskStats{StaleReads: ds.staleReads.Load(), CorruptReads: ds.corruptReads.Load()}
}

func (ds *DiskStore) logPath() string { return filepath.Join(ds.dir, logName) }

// Put appends item's record and indexes it. Data must hold the content
// and be Cert.Size bytes long — a record that is not would be quarantined
// at the next boot — and is not kept: the index reads it back from the
// log. Like Store.Put it fails with ErrDuplicate or ErrNoSpace, writing
// nothing.
func (ds *DiskStore) Put(item Item) error {
	if int64(len(item.Data)) != item.Cert.Size {
		return fmt.Errorf("storage: %d bytes of content, certificate says %d", len(item.Data), item.Cert.Size)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.err != nil {
		return ds.err
	}
	f := item.Cert.FileID // the index is written only under mu
	if _, dup := ds.items[f]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, f.Short())
	}
	if free := ds.capacity - ds.used; item.Cert.Size > free {
		return fmt.Errorf("%w: need %d, free %d", ErrNoSpace, item.Cert.Size, free)
	}
	at, crc, err := ds.appendLocked(entry{kind: kindPut, file: f, item: item})
	if err != nil {
		return err
	}
	s := slotOf(&item, at, crc)
	ds.imu.Lock()
	ds.items[f] = s
	ds.used += int64(s.size)
	ds.imu.Unlock()
	ds.live += at.len()
	return nil
}

// Delete appends a tombstone for f and removes it from the index,
// returning the freed bytes, or ErrNotFound itself.
func (ds *DiskStore) Delete(f id.File) (int64, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	s, ok := ds.items[f] // written only under mu
	if !ok {
		return 0, ErrNotFound
	}
	if _, _, err := ds.appendLocked(entry{kind: kindDelete, file: f}); err != nil {
		return 0, err
	}
	ds.imu.Lock()
	delete(ds.items, f)
	ds.used -= int64(s.size)
	ds.imu.Unlock()
	ds.live -= s.at().len()
	ds.compactLocked()
	return int64(s.size), nil
}

// SetPointer records, in the index and the log, that this node's replica
// responsibility for f is delegated to holder.
func (ds *DiskStore) SetPointer(f id.File, holder wire.NodeRef) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	old, had := ds.pointers[f]
	if had && old == holder {
		return nil
	}
	at, _, err := ds.appendLocked(entry{kind: kindPointer, file: f, holder: holder})
	if err != nil {
		return err
	}
	ds.imu.Lock()
	ds.pointers[f] = holder
	ds.imu.Unlock()
	ds.live += at.len()
	if had {
		ds.live -= recordLen(entry{kind: kindPointer, file: f, holder: old})
		ds.compactLocked()
	}
	return nil
}

// DeletePointer removes f's diversion pointer from the index and the log,
// reporting whether it existed.
func (ds *DiskStore) DeletePointer(f id.File) (bool, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	old, had := ds.pointers[f]
	if !had {
		return false, nil
	}
	if _, _, err := ds.appendLocked(entry{kind: kindUnpointer, file: f}); err != nil {
		return true, err
	}
	ds.imu.Lock()
	delete(ds.pointers, f)
	ds.imu.Unlock()
	ds.live -= recordLen(entry{kind: kindPointer, file: f, holder: old})
	ds.compactLocked()
	return true, nil
}

// Pointer returns the diversion target for f, if any.
func (ds *DiskStore) Pointer(f id.File) (wire.NodeRef, bool) {
	ds.imu.Lock()
	defer ds.imu.Unlock()
	h, ok := ds.pointers[f]
	return h, ok
}

// Get reads f's replica back whole from its record, checked as a serve
// checks it (see Record): certificate, content in a fresh buffer of its
// own, Primary and Diverted; Body is nil.
func (ds *DiskStore) Get(f id.File) (Item, error) {
	it, err := ds.Serve(f)
	if err != nil {
		return Item{}, err
	}
	body, err := it.Body.(*Record).appendBody(nil)
	if err != nil {
		return Item{}, err
	}
	rs, err := wire.DecodeReplica(body) // decoded once already, when put or replayed
	if err != nil {
		return Item{}, err
	}
	return Item{Cert: rs.Cert, Data: rs.Data, Diverted: rs.Diverted, Primary: rs.Primary}, nil
}

// Serve returns f's replica as a reply carries it, from the index alone:
// Body is its Record in the current log, Data is nil, and of the
// certificate only FileID, Size and Replicas are set — a frame encodes
// the rest from the record. Get reads the whole replica back.
func (ds *DiskStore) Serve(f id.File) (Item, error) {
	ds.imu.Lock()
	defer ds.imu.Unlock()
	s, ok := ds.items[f]
	if !ok {
		return Item{}, ErrNotFound
	}
	return Item{
		Cert:     wire.FileCertificate{FileID: f, Size: int64(s.size), Replicas: int(s.replicas)},
		Diverted: s.diverted,
		Body:     &Record{log: ds.log, file: f, slot: s},
	}, nil
}

// Has reports whether f is stored.
func (ds *DiskStore) Has(f id.File) bool {
	ds.imu.Lock()
	defer ds.imu.Unlock()
	_, ok := ds.items[f]
	return ok
}

// Len returns the number of stored replicas.
func (ds *DiskStore) Len() int {
	ds.imu.Lock()
	defer ds.imu.Unlock()
	return len(ds.items)
}

// Free returns capacity minus replica usage.
func (ds *DiskStore) Free() int64 {
	ds.imu.Lock()
	defer ds.imu.Unlock()
	return ds.capacity - ds.used
}

// Walk is Store.Walk over the index.
func (ds *DiskStore) Walk(fn func(f id.File, size int64, replicas int, diverted bool)) {
	ds.imu.Lock()
	defer ds.imu.Unlock()
	for f, s := range ds.items {
		ds.imu.Unlock()
		fn(f, int64(s.size), int(s.replicas), s.diverted)
		ds.imu.Lock()
	}
}

// Close closes the log. Every later mutation fails, and so does every
// read of a replica's record (counted as stale); the index still answers
// everything else. Closing twice is harmless.
func (ds *DiskStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.err == errClosed {
		return nil
	}
	ds.err = errClosed
	return ds.log.Close()
}

// appendLocked appends e's record with one write and returns where it
// lies and its CRC. A failed write is cut back off the log, so no torn
// record ever sits mid-log; if even that fails, the log takes no more
// writes.
func (ds *DiskStore) appendLocked(e entry) (span, uint32, error) {
	if ds.err != nil {
		return span{}, 0, ds.err
	}
	buf := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(buf)
	rec, err := appendEntry((*buf)[:0], e)
	if err != nil {
		return span{}, 0, err
	}
	*buf = rec // keep what the encoder grew
	if _, err := ds.log.Write(rec); err != nil {
		if terr := ds.log.Truncate(ds.size); terr != nil {
			ds.err = fmt.Errorf("storage: log unusable after a failed append: %w", terr)
		}
		return span{}, 0, fmt.Errorf("storage: append to %s: %w", ds.logPath(), err)
	}
	at := span{ds.size, ds.size + int64(len(rec))}
	ds.size = at.end
	return at, binary.BigEndian.Uint32(rec[4:]), nil
}

// recordLen is the length of e's record.
func recordLen(e entry) int64 {
	buf := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(buf)
	rec, _ := appendEntry((*buf)[:0], e) // e was encoded once already, when it was appended
	*buf = rec
	return int64(len(rec))
}

// compactLocked rewrites the log once its dead bytes exceed both the live
// bytes and compactSlack. A rewrite that fails leaves the old log in use;
// the next removal tries again.
func (ds *DiskStore) compactLocked() {
	if dead := ds.size - int64(len(logHeader)) - ds.live; dead > ds.live && dead > compactSlack {
		ds.rewriteLocked() //nolint:errcheck // see above
	}
}

// rewriteLocked replaces the log with one holding exactly the index —
// every replica's record copied byte for byte from the current log, in
// log order, then every pointer — written to a .tmp beside it and renamed
// over it, and appends to that from then on. The index's slots move to
// the new log; a Record handed out before reads the old one until it is
// closed here, and fails closed as stale after.
func (ds *DiskStore) rewriteLocked() error {
	puts := ds.inLogOrder() // the index is written only under mu
	path := ds.logPath()
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: rewrite %s: %w", path, err)
	}
	var src io.ReaderAt // nothing to copy from for a new store
	if ds.log != nil {
		src = ds.log
	}
	w := bufio.NewWriterSize(f, int(min(int64(len(logHeader))+ds.live, 1<<20))) // what it copies, up to 1 MiB
	size, err := writeLog(w, src, puts, ds.pointers)
	err = cmp.Or(err, w.Flush())
	if err = cmp.Or(err, f.Close()); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // already failing
		return fmt.Errorf("storage: rewrite %s: %w", path, err)
	}
	if f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0); err != nil {
		// The old handle, if any, now appends to an unlinked file.
		ds.err = fmt.Errorf("storage: reopen rewritten log: %w", err)
		return ds.err
	}
	old := ds.log
	ds.imu.Lock()
	for _, p := range puts {
		ds.items[p.file] = p.slot
	}
	ds.log = &logFile{f, ds}
	ds.imu.Unlock()
	if old != nil {
		old.Close() //nolint:errcheck // replaced: what still reads it fails closed
	}
	ds.size, ds.live = size, size-int64(len(logHeader))
	return nil
}

// writeLog writes a whole log to w: the records of puts, copied byte for
// byte from src in that order, then pointers. It moves each put's offset
// to where its record sits in the new log, and returns its length.
func writeLog(w io.Writer, src io.ReaderAt, puts []put, pointers map[id.File]wire.NodeRef) (int64, error) {
	n, err := w.Write(logHeader)
	size := int64(n)
	for i := range puts {
		if err != nil {
			break
		}
		s := puts[i].at()
		var c int64
		c, err = io.Copy(w, io.NewSectionReader(src, s.off, s.len()))
		if err == nil && c != s.len() {
			err = fmt.Errorf("storage: copy a %d-byte record: %d bytes read", s.len(), c)
		}
		puts[i].off = size
		size += c
	}
	var rec []byte
	for f, holder := range pointers {
		if err != nil {
			break
		}
		if rec, err = appendEntry(rec[:0], entry{kind: kindPointer, file: f, holder: holder}); err == nil {
			n, err = w.Write(rec)
			size += int64(n)
		}
	}
	return size, err
}

// Record is a replica at rest, as a serve reads it: its put record's slot
// in a log generation. As a wire.Stored it serves the replica by reading
// its record from the log straight into the frame that carries it. A
// read checks the record's CRC-32C and its fileId, so the bytes it
// returns are the bytes the put or the boot replay proved (the client's
// fresh content hash is the end-to-end check). A read that fails sends
// nothing: a record whose log was rewritten or closed meanwhile is stale
// and only counted; one whose bytes changed on disk is counted and
// quarantined — it leaves the index and the log, its bytes go to
// quarantine.corrupt, and anti-entropy restores the replica.
type Record struct {
	log  *logFile
	file id.File
	slot
}

// putCRC is the CRC-32C of a put record's kind byte, which the CRC of its
// body continues.
var putCRC = crc32.Checksum([]byte{kindPut}, castagnoli)

// Len implements wire.Stored.
func (r *Record) Len() int { return int(r.pre) }

// AppendTo implements wire.Stored: it reads the record's body into dst,
// checks it, and keeps the part that encodes the certificate and content.
func (r *Record) AppendTo(dst []byte) ([]byte, error) {
	start := len(dst)
	dst, err := r.appendBody(dst)
	return dst[:min(len(dst), start+int(r.pre))], err // a failed read leaves dst[:start]
}

// appendBody reads the record's body (after its kind byte) onto dst and
// checks it, or fails closed leaving dst's contents as they were.
func (r *Record) appendBody(dst []byte) ([]byte, error) {
	start := len(dst)
	n := int(r.n) - 1
	dst = slices.Grow(dst, n)[:start+n]
	body := dst[start:]
	_, err := r.log.ReadAt(body, r.off+recHeader+1)
	switch {
	case errors.Is(err, os.ErrClosed):
		r.log.ds.staleReads.Add(1)
		return dst[:start], fmt.Errorf("%w: %s", errStale, r.file.Short())
	case err == nil && crc32.Update(putCRC, castagnoli, body) == r.crc && bytes.HasPrefix(body, r.file[:]):
		return dst, nil
	}
	r.log.ds.quarantineRecord(r)
	return dst[:start], fmt.Errorf("%w: %s", errCorrupt, r.file.Short())
}

// quarantineRecord sets aside a record that failed its read: its bytes go
// to quarantine.corrupt, and its replica leaves the index and, by a
// tombstone, the log — unless a delete or a rewrite got there first. A
// replica the index no longer holds is one anti-entropy can restore.
func (ds *DiskStore) quarantineRecord(r *Record) {
	ds.corruptReads.Add(1)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if s, ok := ds.items[r.file]; !ok || s != r.slot || ds.log != r.log {
		return
	}
	quarantine(filepath.Join(ds.dir, quarantineName), r.log, []span{r.at()}) //nolint:errcheck // the replica leaves the index regardless
	ds.imu.Lock()
	delete(ds.items, r.file)
	ds.used -= int64(r.size)
	ds.imu.Unlock()
	ds.live -= r.at().len()
	if _, _, err := ds.appendLocked(entry{kind: kindDelete, file: r.file}); err == nil {
		ds.compactLocked()
	}
}

// entry is one log record, decoded.
type entry struct {
	kind   byte
	file   id.File
	item   Item         // kindPut
	holder wire.NodeRef // kindPointer
}

// appendEntry appends e's record to dst.
func appendEntry(dst []byte, e entry) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, recHeader)...)
	dst = append(dst, e.kind)
	var err error
	switch e.kind {
	case kindPut:
		dst, err = wire.AppendReplica(dst, wire.ReplicaStore{
			Cert: e.item.Cert, Data: e.item.Data, Primary: e.item.Primary, Diverted: e.item.Diverted,
		})
	case kindPointer:
		dst, err = wire.AppendPointer(dst, e.file, e.holder)
	default: // kindDelete, kindUnpointer
		dst = append(dst, e.file[:]...)
	}
	rec := dst[start+recHeader:]
	if err == nil && len(rec) > math.MaxUint32 {
		err = fmt.Errorf("storage: a %d-byte record exceeds the u32 length", len(rec))
	}
	if err != nil {
		return dst[:start], err
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(rec)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(rec, castagnoli))
	return dst, nil
}

// decodeEntry parses rec, a record's kind and body. A replica's byte
// fields (Data, the certificate's signature and keys) alias rec, each
// capped to its own length, so rec belongs to the entry from here on.
// Whatever decodes re-encodes through appendEntry to the same bytes.
func decodeEntry(rec []byte) (entry, error) {
	if len(rec) == 0 {
		return entry{}, errors.New("storage: empty record")
	}
	e, body := entry{kind: rec[0]}, rec[1:]
	switch e.kind {
	case kindPut:
		rs, err := wire.DecodeReplica(body)
		if err != nil {
			return entry{}, err
		}
		if int64(len(rs.Data)) != rs.Cert.Size {
			return entry{}, fmt.Errorf("storage: record holds %d bytes, certificate says %d", len(rs.Data), rs.Cert.Size)
		}
		e.file = rs.Cert.FileID
		e.item = Item{Cert: rs.Cert, Data: rs.Data, Diverted: rs.Diverted, Primary: rs.Primary}
	case kindPointer:
		var err error
		if e.file, e.holder, err = wire.DecodePointer(body); err != nil {
			return entry{}, err
		}
	case kindDelete, kindUnpointer:
		if len(body) != id.FileBytes {
			return entry{}, fmt.Errorf("storage: %d-byte fileId", len(body))
		}
		e.file = id.File(body)
	default:
		return entry{}, fmt.Errorf("storage: unknown record kind %d", e.kind)
	}
	return e, nil
}

// span is the byte range [off, end) of the log a record occupies.
type span struct{ off, end int64 }

func (s span) len() int64 { return s.end - s.off }

// keydir is what a log replays to: the slot of each live replica and
// each live pointer.
type keydir struct {
	items    map[id.File]slot
	pointers map[id.File]wire.NodeRef
}

func newKeydir() keydir {
	return keydir{items: map[id.File]slot{}, pointers: map[id.File]wire.NodeRef{}}
}

// apply replays e, whose record at at has CRC crc.
func (k *keydir) apply(e entry, at span, crc uint32) {
	switch e.kind {
	case kindPut:
		k.items[e.file] = slotOf(&e.item, at, crc)
	case kindDelete:
		delete(k.items, e.file)
	case kindPointer:
		k.pointers[e.file] = e.holder
	case kindUnpointer:
		delete(k.pointers, e.file)
	}
}

// put is a replica's slot and its fileId.
type put struct {
	file id.File
	slot
}

// inLogOrder lists the replicas in the order their records lie in the
// log.
func (k *keydir) inLogOrder() []put {
	puts := make([]put, 0, len(k.items))
	for f, s := range k.items {
		puts = append(puts, put{f, s})
	}
	slices.SortFunc(puts, func(a, b put) int { return cmp.Compare(a.off, b.off) })
	return puts
}

// replayLog checks f's header and replays its records through keep (see
// scanLog). It returns where the intact log ends (a torn tail follows)
// and the spans set aside. A file shorter than the header that begins it
// is an empty log (end 0).
func replayLog(f *os.File, keep func(e entry, at span, crc uint32)) (int64, []span, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	hdr := make([]byte, len(logHeader))
	n, err := f.ReadAt(hdr, 0)
	switch {
	case int64(n) == info.Size() && n < len(hdr) && bytes.HasPrefix(logHeader, hdr[:n]):
		return 0, nil, nil
	case err != nil && n < len(hdr):
		return 0, nil, fmt.Errorf("storage: read %s: %w", f.Name(), err)
	case !bytes.Equal(hdr[:len(hdr)-1], logHeader[:len(hdr)-1]):
		return 0, nil, fmt.Errorf("storage: %s is not a replica log", f.Name())
	case hdr[len(hdr)-1] != logHeader[len(hdr)-1]:
		return 0, nil, fmt.Errorf("storage: %s is log format %d; only %d is read", f.Name(), hdr[len(hdr)-1], logHeader[len(hdr)-1])
	}
	return scanLog(f, info.Size(), keep)
}

// scanLog walks the records after the header of a log of size bytes and
// calls keep with each one that passes its CRC and decodes, in log order,
// with its CRC. Each record is read into a buffer of its own, which the
// entry's byte fields alias; nothing here keeps it after keep returns.
// It returns where the intact log ends and the spans it set aside; see
// OpenDiskStoreVerify for which bad record is which.
func scanLog(r io.ReaderAt, size int64, keep func(e entry, at span, crc uint32)) (int64, []span, error) {
	var bad []span
	off := int64(len(logHeader))
	br := bufio.NewReaderSize(io.NewSectionReader(r, off, size-off), 64<<10)
	var hdr [recHeader]byte
	for size-off >= recHeader {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, bad, err
		}
		n := int64(binary.BigEndian.Uint32(hdr[:4]))
		next := off + recHeader + n
		if next > size {
			break // cut short
		}
		rec := make([]byte, n)
		if _, err := io.ReadFull(br, rec); err != nil {
			return off, bad, err
		}
		if crc := binary.BigEndian.Uint32(hdr[4:]); n > 0 && crc32.Checksum(rec, castagnoli) == crc {
			if e, err := decodeEntry(rec); err == nil {
				keep(e, span{off, next}, crc)
			} else {
				bad = append(bad, span{off, next})
			}
			off = next
			continue
		}
		if next == size {
			break // a CRC-failing tail
		}
		if !intactAt(r, next, size) {
			return size, append(bad, span{off, size}), nil // the length is what is corrupt
		}
		bad = append(bad, span{off, next})
		off = next
	}
	return off, bad, nil
}

// intactAt reports whether a whole record that passes its CRC starts at
// off.
func intactAt(r io.ReaderAt, off, size int64) bool {
	var hdr [recHeader]byte
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return false
	}
	n := int64(binary.BigEndian.Uint32(hdr[:4]))
	if n == 0 || off+recHeader+n > size {
		return false
	}
	rec := make([]byte, n)
	if _, err := r.ReadAt(rec, off+recHeader); err != nil {
		return false
	}
	return crc32.Checksum(rec, castagnoli) == binary.BigEndian.Uint32(hdr[4:])
}

// quarantine appends the bytes of every bad span of log to path.
func quarantine(path string, log io.ReaderAt, bad []span) error {
	if len(bad) == 0 {
		return nil
	}
	q, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: quarantine: %w", err)
	}
	for _, s := range bad {
		if _, err = io.Copy(q, io.NewSectionReader(log, s.off, s.len())); err != nil {
			break
		}
	}
	if err = cmp.Or(err, q.Close()); err != nil {
		return fmt.Errorf("storage: quarantine: %w", err)
	}
	return nil
}
