package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"past/internal/id"
	"past/internal/wire"
)

// DiskStore persists a Store's contents under a directory so a storage
// node can restart without losing its replicas (the paper's storage nodes
// are long-lived disks; the simulator uses the in-memory Store).
//
// Layout: a flat directory with one record per replica, named by the
// fileId in hex (no extension). A record is self-describing — certificate,
// diversion metadata and content in one file:
//
//	record = format(1) frame
//	format = 1                                  recordV1, the only format
//	frame  = wire frame body of a ReplicaStore{Cert, Data, Primary,
//	         Diverted} with From, Client and ReqID empty
//
// so the certificate on disk is encoded and parsed by the same canonical,
// length-checked codec as on the wire (wire.AppendFrame / DecodeFrame).
// A record is written once: one write into <fileId>.tmp, one rename. A
// crash leaves either the whole record or a .tmp that the next open
// sweeps; Delete is one unlink. Nothing is fsynced (ROADMAP item 4b).
type DiskStore struct {
	dir string
	mem *Store // capacity accounting and index over the on-disk set
}

// recordV1 is the format byte every record starts with. A new layout —
// which includes any change to ReplicaStore's wire encoding — gets a new
// value; there is no reader for any other.
const recordV1 byte = 1

// ErrOldLayout is returned when a data directory still holds the
// <fileId>.bin + <fileId>.json pairs written before the one-record
// layout. There is no reader for them: empty the directory and let
// anti-entropy bring the replicas back.
var ErrOldLayout = errors.New("storage: data dir holds the old .bin/.json pair layout, which is no longer read")

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

// RecoveryReport summarizes what a disk-store open found on disk.
type RecoveryReport struct {
	Recovered   int // entries re-verified and indexed
	Quarantined int // corrupt or unverifiable entries set aside
}

// OpenDiskStore opens (creating if needed) a disk store rooted at dir with
// the given capacity. Existing contents are indexed and count against the
// capacity; corrupt entries are quarantined.
func OpenDiskStore(dir string, capacity int64) (*DiskStore, error) {
	ds, _, err := OpenDiskStoreVerify(dir, capacity, nil)
	return ds, err
}

// OpenDiskStoreVerify is OpenDiskStore with crash recovery: every record
// on disk is read back, decoded, checked against its own file name and
// certificate size, and passed through verify (when non-nil) before being
// served again. A record that fails — torn, bit-rotted, misnamed, or with
// a certificate that no longer checks out — is quarantined by renaming it
// with a .corrupt suffix so it stops being served but remains on disk for
// inspection. Half-written .tmp files left by a crash mid-write are
// removed. A directory holding the old .bin/.json layout fails with
// ErrOldLayout before anything in it is touched.
func OpenDiskStoreVerify(dir string, capacity int64, verify VerifyFunc) (*DiskStore, RecoveryReport, error) {
	var rep RecoveryReport
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rep, fmt.Errorf("storage: open disk store: %w", err)
	}
	ds := &DiskStore{dir: dir, mem: NewStore(capacity)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, rep, fmt.Errorf("storage: scan disk store: %w", err)
	}
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); ext == ".json" || ext == ".bin" {
			return nil, rep, fmt.Errorf("%w: found %s", ErrOldLayout, filepath.Join(dir, e.Name()))
		}
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		if ext := filepath.Ext(name); ext != "" { // a record's name is the bare fileId
			if ext == ".tmp" {
				os.Remove(path) //nolint:errcheck // crash debris
			}
			continue // .corrupt: quarantined by an earlier open
		}
		item, err := loadRecord(path, name)
		if err == nil && verify != nil {
			err = verify(item.Cert, item.Data)
		}
		if err != nil {
			os.Rename(path, path+".corrupt") //nolint:errcheck // best-effort; kept for post-mortem, never loaded again
			rep.Quarantined++
			continue
		}
		if ds.mem.Put(item) == nil {
			rep.Recovered++
		}
	}
	return ds, rep, nil
}

// Dir returns the store's root directory.
func (ds *DiskStore) Dir() string { return ds.dir }

// Mem returns the in-memory index (capacity, utilization, lookups run
// against it; its contents mirror the directory).
func (ds *DiskStore) Mem() *Store { return ds.mem }

func (ds *DiskStore) path(f id.File) string { return filepath.Join(ds.dir, f.String()) }

// Put stores an item durably, then indexes it.
func (ds *DiskStore) Put(item Item) error {
	if err := ds.mem.Put(item); err != nil {
		return err
	}
	if err := ds.persist(item); err != nil {
		ds.mem.Delete(item.Cert.FileID) //nolint:errcheck // rollback of a just-inserted key
		return err
	}
	return nil
}

// persist writes item's record: one write into a temp file, one rename.
func (ds *DiskStore) persist(item Item) error {
	buf := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(buf)
	rec, err := appendRecord((*buf)[:0], item)
	if err != nil {
		return err
	}
	*buf = rec // keep what the encoder grew
	path := ds.path(item.Cert.FileID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, rec, 0o644); err != nil {
		return fmt.Errorf("storage: write %s: %w", path, err)
	}
	return os.Rename(tmp, path)
}

// appendRecord appends item's on-disk record to dst.
func appendRecord(dst []byte, item Item) ([]byte, error) {
	return wire.AppendFrame(append(dst, recordV1), "", wire.ReplicaStore{
		Cert: item.Cert, Data: item.Data, Primary: item.Primary, Diverted: item.Diverted,
	})
}

// decodeRecord parses one record. The item's byte fields (Data, the
// certificate's signature and keys) alias b, each capped to its own
// length, so b belongs to the item from here on. Whatever decodes
// re-encodes through appendRecord to exactly b.
func decodeRecord(b []byte) (Item, error) {
	if len(b) == 0 || b[0] != recordV1 {
		return Item{}, errors.New("storage: unknown record format")
	}
	from, m, err := wire.DecodeFrame(b[1:])
	if err != nil {
		return Item{}, err
	}
	rs, ok := m.(wire.ReplicaStore)
	if !ok || from != "" || !rs.Client.IsZero() || rs.ReqID != 0 {
		return Item{}, errors.New("storage: record is not a bare replica")
	}
	if int64(len(rs.Data)) != rs.Cert.Size {
		return Item{}, fmt.Errorf("storage: record holds %d bytes, certificate says %d", len(rs.Data), rs.Cert.Size)
	}
	return Item{Cert: rs.Cert, Data: rs.Data, Diverted: rs.Diverted, Primary: rs.Primary}, nil
}

// loadRecord reads the record at path with one ReadFile and checks that
// it describes the file it is named after.
func loadRecord(path, name string) (Item, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Item{}, err
	}
	item, err := decodeRecord(b)
	if err == nil && item.Cert.FileID.String() != name {
		err = fmt.Errorf("storage: record %s holds a certificate for %s", name, item.Cert.FileID)
	}
	return item, err
}

// Get returns the stored item for f (served from the in-memory index).
func (ds *DiskStore) Get(f id.File) (Item, error) { return ds.mem.Get(f) }

// Has reports whether f is stored.
func (ds *DiskStore) Has(f id.File) bool { return ds.mem.Has(f) }

// Delete removes f from disk and index, returning the freed bytes.
func (ds *DiskStore) Delete(f id.File) (int64, error) {
	freed, err := ds.mem.Delete(f)
	if err != nil {
		return 0, err
	}
	os.Remove(ds.path(f)) //nolint:errcheck // removal is best-effort after de-indexing
	return freed, nil
}

// Files lists stored fileIds in sorted order.
func (ds *DiskStore) Files() []id.File { return ds.mem.Files() }
