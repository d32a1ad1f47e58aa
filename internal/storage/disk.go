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
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"past/internal/id"
	"past/internal/wire"
)

// DiskStore persists a Store's replicas and diversion pointers under a
// directory so a storage node can restart without losing them (the
// paper's storage nodes are long-lived disks; the simulator uses the
// in-memory Store).
//
// Layout: one append-only log per directory, under an in-memory index
// (mem) that holds every live entry — a key directory over a log, as in
// Bitcask (Sheehy & Smith, Basho 2010). The log is written on every
// mutation and read only when the store opens:
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
// Each mutation updates the index and appends one record with one write,
// both under mu, so the log order is the index order: a reclaim that
// races a replica store replays the way it was served. A delete or a
// replaced pointer leaves dead bytes; once they exceed both the live bytes
// and compactSlack the log is rewritten from the index (log-structured
// cleaning, Rosenblum & Ousterhout, SOSP 1991), so the file stays under
// 2 × live + compactSlack. Nothing is fsynced (ROADMAP 6(a)).
type DiskStore struct {
	dir string
	mem *Store // the index: every live replica and pointer, and capacity

	mu   sync.Mutex
	log  *os.File // opened for append; nil once closed
	size int64    // bytes in the log
	live int64    // bytes of the records the index still needs
	err  error    // sticky: why the log takes no more writes
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

// recordBufs recycles encode buffers so a put leaves no garbage the size
// of its body. They are write buffers — nothing keeps a reference past
// the write — unlike read buffers, which Data aliases and which are
// therefore never reused.
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
// the log, reading each record into its own buffer (a replica's Data
// aliases only its record), and passes every live replica through verify
// (when non-nil) before serving it again:
//   - A record cut short or failing its CRC at the end of the log is the
//     torn tail of a write a crash interrupted. It was never acknowledged,
//     so it is truncated and not counted. A length corrupted to point past
//     the end of the log looks the same and is treated the same.
//   - A record that fails its CRC, its decoding or verify mid-log is
//     quarantined and counted: its raw bytes are appended to
//     quarantine.corrupt in dir, which nothing reads. When the record
//     after it does not check out either, its length is what is corrupt,
//     and everything from it to the end is quarantined as one entry.
//   - If anything was dropped — quarantined, or over capacity — or the
//     dead bytes exceed the live ones, the log is rewritten from the index
//     before the store serves.
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
	ds := &DiskStore{dir: dir, mem: NewStore(capacity)}
	path := ds.logPath()
	os.Remove(path + ".tmp") //nolint:errcheck // a rewrite a crash cut short; the log it was replacing is whole
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := ds.rewriteLocked(); err != nil {
			return nil, rep, err
		}
		return ds, rep, nil
	}
	if err != nil {
		return nil, rep, fmt.Errorf("storage: open disk store: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only
	idx, end, bad, err := replayLog(f)
	if err != nil {
		return nil, rep, err
	}
	dropped := false
	for _, it := range idx.itemsInLogOrder() {
		if verify != nil && verify(it.v.Cert, it.v.Data) != nil {
			bad = append(bad, it.at)
			continue
		}
		if ds.mem.Put(it.v) != nil {
			dropped = true
			continue
		}
		ds.live += it.at.len()
	}
	for file, p := range idx.pointers {
		ds.mem.SetPointer(file, p.v)
		ds.live += p.at.len()
	}
	rep.Recovered, rep.Quarantined = ds.mem.Len(), len(bad)
	if err := quarantine(filepath.Join(dir, quarantineName), f, bad); err != nil {
		return nil, rep, err
	}
	dead := end - int64(len(logHeader)) - ds.live
	if len(bad) > 0 || dropped || dead > ds.live || end < int64(len(logHeader)) {
		if err := ds.rewriteLocked(); err != nil {
			return nil, rep, err
		}
		return ds, rep, nil
	}
	if info, err := f.Stat(); err == nil && info.Size() > end {
		if err := os.Truncate(path, end); err != nil {
			return nil, rep, fmt.Errorf("storage: truncate torn tail: %w", err)
		}
	}
	if ds.log, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
		return nil, rep, fmt.Errorf("storage: open disk store: %w", err)
	}
	ds.size = end
	return ds, rep, nil
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
	idx, _, bad, err := replayLog(f)
	if err != nil {
		return nil, rep, err
	}
	files := make([]id.File, 0, len(idx.items))
	for file := range idx.items {
		files = append(files, file)
	}
	slices.SortFunc(files, func(a, b id.File) int { return bytes.Compare(a[:], b[:]) })
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

// Mem returns the in-memory index (capacity, utilization, lookups run
// against it; its contents mirror the live records of the log).
func (ds *DiskStore) Mem() *Store { return ds.mem }

func (ds *DiskStore) logPath() string { return filepath.Join(ds.dir, logName) }

// Put indexes an item and appends its record.
func (ds *DiskStore) Put(item Item) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.mem.Put(item); err != nil {
		return err
	}
	n, err := ds.appendLocked(entry{kind: kindPut, file: item.Cert.FileID, item: item})
	if err != nil {
		ds.mem.Delete(item.Cert.FileID) //nolint:errcheck // rollback of a just-inserted key
		return err
	}
	ds.live += n
	return nil
}

// Delete appends a tombstone for f and removes it from the index,
// returning the freed bytes.
func (ds *DiskStore) Delete(f id.File) (int64, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	it, err := ds.mem.Get(f)
	if err != nil {
		return 0, err
	}
	if _, err := ds.appendLocked(entry{kind: kindDelete, file: f}); err != nil {
		return 0, err
	}
	freed, err := ds.mem.Delete(f)
	ds.live -= recordLen(entry{kind: kindPut, file: f, item: it})
	ds.compactLocked()
	return freed, err
}

// SetPointer records, in the index and the log, that this node's replica
// responsibility for f is delegated to holder.
func (ds *DiskStore) SetPointer(f id.File, holder wire.NodeRef) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	old, had := ds.mem.Pointer(f)
	if had && old == holder {
		return nil
	}
	n, err := ds.appendLocked(entry{kind: kindPointer, file: f, holder: holder})
	if err != nil {
		return err
	}
	ds.mem.SetPointer(f, holder)
	ds.live += n
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
	old, had := ds.mem.Pointer(f)
	if !had {
		return false, nil
	}
	if _, err := ds.appendLocked(entry{kind: kindUnpointer, file: f}); err != nil {
		return true, err
	}
	ds.mem.DeletePointer(f)
	ds.live -= recordLen(entry{kind: kindPointer, file: f, holder: old})
	ds.compactLocked()
	return true, nil
}

// Get returns the stored item for f (served from the in-memory index).
func (ds *DiskStore) Get(f id.File) (Item, error) { return ds.mem.Get(f) }

// Has reports whether f is stored.
func (ds *DiskStore) Has(f id.File) bool { return ds.mem.Has(f) }

// Files lists stored fileIds in sorted order.
func (ds *DiskStore) Files() []id.File { return ds.mem.Files() }

// Close closes the log. Every later mutation fails; the index still
// answers reads. Closing twice is harmless.
func (ds *DiskStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.log == nil {
		return nil
	}
	err := ds.log.Close()
	ds.log, ds.err = nil, errClosed
	return err
}

// appendLocked appends e's record with one write and returns its length.
// A failed write is cut back off the log, so no torn record ever sits
// mid-log; if even that fails, the log takes no more writes.
func (ds *DiskStore) appendLocked(e entry) (int64, error) {
	if ds.err != nil {
		return 0, ds.err
	}
	buf := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(buf)
	rec, err := appendEntry((*buf)[:0], e)
	if err != nil {
		return 0, err
	}
	*buf = rec // keep what the encoder grew
	if _, err := ds.log.Write(rec); err != nil {
		if terr := ds.log.Truncate(ds.size); terr != nil {
			ds.err = fmt.Errorf("storage: log unusable after a failed append: %w", terr)
		}
		return 0, fmt.Errorf("storage: append to %s: %w", ds.logPath(), err)
	}
	ds.size += int64(len(rec))
	return int64(len(rec)), nil
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
// written to a .tmp beside it and renamed over it — and appends to that
// from then on.
func (ds *DiskStore) rewriteLocked() error {
	path := ds.logPath()
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: rewrite %s: %w", path, err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	size, err := writeLog(w, ds.mem.Items(), ds.mem.Pointers())
	err = cmp.Or(err, w.Flush())
	if err = cmp.Or(err, f.Close()); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // already failing
		return fmt.Errorf("storage: rewrite %s: %w", path, err)
	}
	if f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
		// The old handle, if any, now appends to an unlinked file.
		ds.err = fmt.Errorf("storage: reopen rewritten log: %w", err)
		return ds.err
	}
	if ds.log != nil {
		ds.log.Close() //nolint:errcheck // replaced: nothing more is written through it
	}
	ds.log, ds.size, ds.live = f, size, size-int64(len(logHeader))
	return nil
}

// writeLog writes a whole log holding exactly items and pointers to w and
// returns its length.
func writeLog(w io.Writer, items []Item, pointers map[id.File]wire.NodeRef) (int64, error) {
	n, err := w.Write(logHeader)
	size := int64(n)
	var rec []byte
	emit := func(e entry) {
		if err == nil {
			if rec, err = appendEntry(rec[:0], e); err == nil {
				n, err = w.Write(rec)
				size += int64(n)
			}
		}
	}
	for _, it := range items {
		emit(entry{kind: kindPut, file: it.Cert.FileID, item: it})
	}
	for f, holder := range pointers {
		emit(entry{kind: kindPointer, file: f, holder: holder})
	}
	return size, err
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

// logged is an index entry and where its record sits.
type logged[T any] struct {
	v  T
	at span
}

// logIndex is what a log replays to: its live replicas and pointers.
type logIndex struct {
	items    map[id.File]logged[Item]
	pointers map[id.File]logged[wire.NodeRef]
}

func newLogIndex() logIndex {
	return logIndex{items: map[id.File]logged[Item]{}, pointers: map[id.File]logged[wire.NodeRef]{}}
}

func (x logIndex) apply(e entry, at span) {
	switch e.kind {
	case kindPut:
		x.items[e.file] = logged[Item]{e.item, at}
	case kindDelete:
		delete(x.items, e.file)
	case kindPointer:
		x.pointers[e.file] = logged[wire.NodeRef]{e.holder, at}
	case kindUnpointer:
		delete(x.pointers, e.file)
	}
}

func (x logIndex) itemsInLogOrder() []logged[Item] {
	out := make([]logged[Item], 0, len(x.items))
	for _, it := range x.items {
		out = append(out, it)
	}
	slices.SortFunc(out, func(a, b logged[Item]) int { return cmp.Compare(a.at.off, b.at.off) })
	return out
}

// replayLog checks f's header and replays its records. It returns the
// index, where the intact log ends (a torn tail follows) and the spans
// set aside. A file shorter than the header that begins it is an empty
// log (end 0).
func replayLog(f *os.File) (logIndex, int64, []span, error) {
	idx := newLogIndex()
	info, err := f.Stat()
	if err != nil {
		return idx, 0, nil, err
	}
	hdr := make([]byte, len(logHeader))
	n, err := f.ReadAt(hdr, 0)
	switch {
	case int64(n) == info.Size() && n < len(hdr) && bytes.HasPrefix(logHeader, hdr[:n]):
		return idx, 0, nil, nil
	case err != nil && n < len(hdr):
		return idx, 0, nil, fmt.Errorf("storage: read %s: %w", f.Name(), err)
	case !bytes.Equal(hdr[:len(hdr)-1], logHeader[:len(hdr)-1]):
		return idx, 0, nil, fmt.Errorf("storage: %s is not a replica log", f.Name())
	case hdr[len(hdr)-1] != logHeader[len(hdr)-1]:
		return idx, 0, nil, fmt.Errorf("storage: %s is log format %d; only %d is read", f.Name(), hdr[len(hdr)-1], logHeader[len(hdr)-1])
	}
	end, bad, err := scanLog(f, info.Size(), idx.apply)
	return idx, end, bad, err
}

// scanLog walks the records after the header of a log of size bytes and
// calls keep with each one that passes its CRC and decodes, in log order.
// It returns where the intact log ends and the spans it set aside; see
// OpenDiskStoreVerify for which bad record is which.
func scanLog(r io.ReaderAt, size int64, keep func(entry, span)) (int64, []span, error) {
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
		if n > 0 && crc32.Checksum(rec, castagnoli) == binary.BigEndian.Uint32(hdr[4:]) {
			if e, err := decodeEntry(rec); err == nil {
				keep(e, span{off, next})
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
