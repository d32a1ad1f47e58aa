package storage

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"past/internal/id"
	"past/internal/wire"
)

// diskItem builds a replica shaped like a real one: a certificate with
// key, card and signature fields filled and a content hash that
// verifyHash checks.
func diskItem(seed uint64, size int) Item {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(seed + uint64(i))
	}
	fill := func(n int) []byte { return bytes.Repeat([]byte{byte(seed)}, n) }
	return Item{
		Cert: wire.FileCertificate{
			FileID: id.RandFile(seed), ContentHash: sha256.Sum256(data), Size: int64(size), Replicas: 3,
			Salt: fill(8), Issued: int64(seed), OwnerPub: fill(32), CardCert: fill(104), Sig: fill(64),
		},
		Data: data,
	}
}

func divertedItem(seed uint64, size int) Item {
	it := diskItem(seed, size)
	it.Diverted = true
	it.Primary = wire.NodeRef{ID: id.Rand(seed), Addr: "127.0.0.1:7001"}
	return it
}

func verifyHash(cert wire.FileCertificate, data []byte) error {
	if sha256.Sum256(data) != cert.ContentHash {
		return errors.New("content hash mismatch")
	}
	return nil
}

func mustEntry(t testing.TB, e entry) []byte {
	t.Helper()
	rec, err := appendEntry(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func putRec(t testing.TB, it Item) []byte {
	return mustEntry(t, entry{kind: kindPut, file: it.Cert.FileID, item: it})
}

func pointerRec(t testing.TB, f id.File, holder wire.NodeRef) []byte {
	return mustEntry(t, entry{kind: kindPointer, file: f, holder: holder})
}

// sealed frames kind and body as a record whose CRC holds, whatever the
// body is.
func sealed(kind byte, body []byte) []byte {
	rec := append([]byte{kind}, body...)
	out := binary.BigEndian.AppendUint32(nil, uint32(len(rec)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(rec, castagnoli))
	return append(out, rec...)
}

// logOf is a whole log: the header, then recs.
func logOf(recs ...[]byte) []byte {
	return slices.Concat(append([][]byte{logHeader}, recs...)...)
}

func installLog(t testing.TB, dir string, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, logName), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// overwrite writes b over the bytes of the file at path from off on, as a
// stray writer or bit rot would under an open store.
func overwrite(t testing.TB, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err == nil {
		_, err = f.WriteAt(b, off)
		err = cmp.Or(err, f.Close())
	}
	if err != nil {
		t.Fatal(err)
	}
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return b
}

func dirNames(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// wantServed fails unless ds serves exactly items, byte for byte, and
// exactly pointers.
func wantServed(t testing.TB, ds *DiskStore, items []Item, pointers map[id.File]wire.NodeRef) {
	t.Helper()
	if ds.Len() != len(items) {
		t.Fatalf("serves %d replicas, want %d", ds.Len(), len(items))
	}
	for _, want := range items {
		got, err := ds.Get(want.Cert.FileID)
		if err != nil {
			t.Fatalf("replica %s: %v", want.Cert.FileID.Short(), err)
		}
		if !bytes.Equal(putRec(t, got), putRec(t, want)) {
			t.Fatalf("replica %s differs from what was stored", want.Cert.FileID.Short())
		}
	}
	if got := pointersOf(ds); len(got) != len(pointers) || (len(got) > 0 && !reflect.DeepEqual(got, pointers)) {
		t.Fatalf("pointers = %v, want %v", got, pointers)
	}
}

// pointersOf copies ds's diversion pointers.
func pointersOf(ds *DiskStore) map[id.File]wire.NodeRef {
	ds.imu.Lock()
	defer ds.imu.Unlock()
	return maps.Clone(ds.pointers)
}

func TestDiskStorePutGetDelete(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	it := diskItem(1, 100)
	if err := ds.Put(it); err != nil {
		t.Fatal(err)
	}
	got, err := ds.Get(it.Cert.FileID)
	if err != nil || string(got.Data) != string(it.Data) {
		t.Fatalf("Get: %v", err)
	}
	if !ds.Has(it.Cert.FileID) || ds.Len() != 1 {
		t.Fatal("index wrong")
	}
	freed, err := ds.Delete(it.Cert.FileID)
	if err != nil || freed != 100 {
		t.Fatalf("Delete: %d %v", freed, err)
	}
	if ds.Has(it.Cert.FileID) {
		t.Fatal("still present")
	}
	if live, _, err := LiveFiles(ds.Dir()); err != nil || len(live) != 0 {
		t.Fatalf("log replays to %v after Delete (%v)", live, err)
	}
	if _, err := ds.Delete(it.Cert.FileID); err != ErrNotFound {
		t.Fatalf("second Delete: %v, want the ErrNotFound sentinel itself", err)
	}
}

func TestDiskStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	items := []Item{diskItem(1, 64), divertedItem(2, 128), diskItem(3, 0)}
	for _, it := range items {
		if err := ds.Put(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(diskItem(4, 8)); !errors.Is(err, errClosed) || ds.Has(diskItem(4, 8).Cert.FileID) {
		t.Fatalf("Put after Close: %v", err)
	}
	// Reopen: everything must come back, including diversion metadata.
	ds2, rep, err := OpenDiskStoreVerify(dir, 1<<20, verifyHash)
	if err != nil {
		t.Fatal(err)
	}
	if used := 1<<20 - ds2.Free(); rep.Recovered != 3 || rep.Quarantined != 0 || used != 64+128 {
		t.Fatalf("after restart: report %+v, used %d", rep, used)
	}
	wantServed(t, ds2, items, nil)
}

// A primary's diversion pointers outlive it: set, replaced and deleted
// pointers all replay to the last state.
func TestDiskStorePointersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	kept, moved, gone := id.RandFile(1), id.RandFile(2), id.RandFile(3)
	a := wire.NodeRef{ID: id.Rand(1), Addr: "127.0.0.1:7001"}
	b := wire.NodeRef{ID: id.Rand(2), Addr: "127.0.0.1:7002"}
	for _, f := range []id.File{kept, moved, gone} {
		if err := ds.SetPointer(f, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.SetPointer(moved, b); err != nil {
		t.Fatal(err)
	}
	if had, err := ds.DeletePointer(gone); !had || err != nil {
		t.Fatalf("DeletePointer: %v %v", had, err)
	}
	if had, err := ds.DeletePointer(gone); had || err != nil {
		t.Fatalf("second DeletePointer: %v %v", had, err)
	}
	ds.Close() //nolint:errcheck // reopened below
	ds2, rep, err := OpenDiskStoreVerify(dir, 1<<20, verifyHash)
	if err != nil || rep != (RecoveryReport{}) {
		t.Fatalf("reopen: %+v %v", rep, err)
	}
	if h, ok := ds2.Pointer(kept); !ok || h != a {
		t.Fatalf("kept pointer = %v %v", h, ok)
	}
	if h, ok := ds2.Pointer(moved); !ok || h != b {
		t.Fatalf("replaced pointer = %v %v", h, ok)
	}
	if _, ok := ds2.Pointer(gone); ok {
		t.Fatal("deleted pointer came back")
	}
}

// A 256 KiB diverted record round-trips, and the decoded content is a
// capped window onto the buffer that was read — no copy, and an append by
// the holder cannot run into the bytes that follow it.
func TestRecordRoundTripAliasesReadBuffer(t *testing.T) {
	want := divertedItem(7, 256<<10)
	full := putRec(t, want)
	rec := full[recHeader:]
	got, err := decodeEntry(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != kindPut || got.file != want.Cert.FileID || !reflect.DeepEqual(got.item, want) {
		t.Fatal("record did not round-trip")
	}
	if cap(got.item.Data) != len(got.item.Data) {
		t.Fatalf("Data has cap %d, len %d: not capped to its own length", cap(got.item.Data), len(got.item.Data))
	}
	off := bytes.Index(rec, want.Data)
	if off < 0 || &got.item.Data[0] != &rec[off] {
		t.Fatal("Data does not alias the read buffer")
	}
	if re := mustEntry(t, got); !bytes.Equal(re, full) {
		t.Fatal("re-encoding differs")
	}
	// The body is the replica at rest and nothing else: a record costs its
	// header, its kind and the certificate, content and primary fields.
	body, err := wire.AppendReplica(nil, wire.ReplicaStore{Cert: want.Cert, Data: want.Data, Primary: want.Primary, Diverted: true})
	if err != nil || len(full) != recHeader+1+len(body) {
		t.Fatalf("record is %d bytes, want %d + 1 + %d (%v)", len(full), recHeader, len(body), err)
	}
}

// A hostileRecord must never be served: a record (header included) and
// why it is bad.
type hostileRecord struct {
	why string
	rec []byte
}

// hostileRecords is the table the quarantine test drives through
// OpenDiskStoreVerify and the fuzz target is seeded from.
func hostileRecords(t testing.TB, victim Item) []hostileRecord {
	good := putRec(t, victim)
	body := good[recHeader+1:]
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	wrongSize := victim
	wrongSize.Cert.Size++
	wrongSizeBody, err := wire.AppendReplica(nil, wire.ReplicaStore{Cert: wrongSize.Cert, Data: victim.Data})
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(body)
	flipped[len(flipped)/2] ^= 0xff
	withReqID, err := wire.AppendFrame(nil, "", wire.ReplicaStore{Cert: victim.Cert, Data: victim.Data, ReqID: 9})
	if err != nil {
		t.Fatal(err)
	}
	return []hostileRecord{
		{"empty file", sealed(kindPut, nil)},
		{"zeroed tail", mutate(func(b []byte) []byte { clear(b[len(b)-100:]); return b })},
		{"flipped content byte", sealed(kindPut, flipped)}, // the CRC holds; the content hash does not
		{"trailing garbage", sealed(kindPut, append(bytes.Clone(body), "junk"...))},
		{"unknown format byte", sealed(kindUnpointer+1, body)}, // the record kind says how to read the body
		{"size differs from Cert.Size", sealed(kindPut, wrongSizeBody)},
		{"request fields set", sealed(kindPut, withReqID)}, // a whole ReplicaStore frame is not a replica at rest
		{"another message type", sealed(kindPut, pointerRec(t, victim.Cert.FileID, victim.Primary)[recHeader+1:])},
	}
}

// A hostile record mid-log is quarantined alone: the records around it
// are served, its bytes are set aside in quarantine.corrupt, and the log
// is rewritten without it.
func TestDiskStoreQuarantinesHostileRecords(t *testing.T) {
	before, after, victim := diskItem(1, 4096), divertedItem(3, 4096), diskItem(2, 4096)
	const hookRejects = "verify hook rejects" // a well-formed record only the hook can fault
	cases := append(hostileRecords(t, victim), hostileRecord{hookRejects, putRec(t, victim)})
	for _, tc := range cases {
		t.Run(tc.why, func(t *testing.T) {
			dir := t.TempDir()
			log := logOf(putRec(t, before), tc.rec, putRec(t, after))
			installLog(t, dir, log)
			verify := verifyHash
			if tc.why == hookRejects {
				verify = func(c wire.FileCertificate, data []byte) error {
					if c.FileID == victim.Cert.FileID {
						return errors.New("certificate no longer checks out")
					}
					return verifyHash(c, data)
				}
			}
			// The read-only replay sees the bad framing or body (not what
			// only verification finds) and leaves the log as it was.
			_, live, err := LiveFiles(dir)
			if err != nil || live.Recovered+live.Quarantined != 3 {
				t.Fatalf("LiveFiles: %+v %v", live, err)
			}
			if !bytes.Equal(readFile(t, filepath.Join(dir, logName)), log) {
				t.Fatal("LiveFiles changed the log")
			}
			ds, rep, err := OpenDiskStoreVerify(dir, 1<<20, verify)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Recovered != 2 || rep.Quarantined != 1 {
				t.Fatalf("report = %+v, want 2 recovered / 1 quarantined", rep)
			}
			wantServed(t, ds, []Item{before, after}, nil)
			if got := readFile(t, filepath.Join(dir, quarantineName)); !bytes.Equal(got, tc.rec) {
				t.Fatalf("quarantine holds %d bytes, want the record's %d", len(got), len(tc.rec))
			}
			ds.Close() //nolint:errcheck // reopened below
			ds, rep, err = OpenDiskStoreVerify(dir, 1<<20, verify)
			if err != nil || rep.Recovered != 2 || rep.Quarantined != 0 {
				t.Fatalf("second open: report %+v, err %v", rep, err)
			}
			wantServed(t, ds, []Item{before, after}, nil)
		})
	}
}

// TestDiskStoreCrashConsistency: what a crash or bit rot can leave in a
// log, and what a reopen must make of it.
func TestDiskStoreCrashConsistency(t *testing.T) {
	a, b, c := diskItem(1, 100), divertedItem(2, 300), diskItem(3, 4096)
	pf, holder := id.RandFile(50), wire.NodeRef{ID: id.Rand(50), Addr: "127.0.0.1:7050"}
	recs := [][]byte{putRec(t, a), putRec(t, b), pointerRec(t, pf, holder), putRec(t, c)}
	log := logOf(recs...)
	offs := []int{len(logHeader)}
	for _, r := range recs {
		offs = append(offs, offs[len(offs)-1]+len(r))
	}
	allPtrs := map[id.File]wire.NodeRef{pf: holder}
	// served is what the log serves with record i lost.
	served := func(i int) ([]Item, map[id.File]wire.NodeRef) {
		items, ptrs := []Item{a, b, c}, allPtrs
		switch i {
		case 2:
			ptrs = nil
		case 3:
			items = items[:2]
		default:
			items = slices.Delete(slices.Clone(items), i, i+1)
		}
		return items, ptrs
	}
	open := func(t *testing.T, dir string) (*DiskStore, RecoveryReport) {
		t.Helper()
		ds, rep, err := OpenDiskStoreVerify(dir, 1<<30, verifyHash)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() }) //nolint:errcheck // test teardown
		return ds, rep
	}

	t.Run("torn last record", func(t *testing.T) {
		dir := t.TempDir()
		last := offs[len(recs)-1]
		for n := last; n < len(log); n++ {
			installLog(t, dir, log[:n])
			ds, rep := open(t, dir)
			items, ptrs := served(3)
			if rep.Quarantined != 0 {
				t.Fatalf("%d-byte log: report %+v", n, rep)
			}
			wantServed(t, ds, items, ptrs)
			if got := len(readFile(t, filepath.Join(dir, logName))); got != last {
				t.Fatalf("%d-byte log: torn tail left at %d bytes, want truncated to %d", n, got, last)
			}
			ds.Close() //nolint:errcheck // reopened next round
		}
		if names := dirNames(t, dir); !slices.Equal(names, []string{logName}) {
			t.Fatalf("directory holds %v", names)
		}
	})

	t.Run("flipped bit in each record", func(t *testing.T) {
		for i := range recs {
			for _, at := range []int{4, recHeader, recHeader + (len(recs[i])-recHeader)/2} {
				dir := t.TempDir()
				bad := bytes.Clone(log)
				bad[offs[i]+at] ^= 0x10
				installLog(t, dir, bad)
				ds, rep := open(t, dir)
				items, ptrs := served(i)
				wantServed(t, ds, items, ptrs)
				q := readFile(t, filepath.Join(dir, quarantineName))
				if i == len(recs)-1 { // the last record is the tail: dropped, not counted
					if rep.Quarantined != 0 || q != nil {
						t.Fatalf("record %d byte %d: report %+v, %d bytes quarantined", i, at, rep, len(q))
					}
					continue
				}
				if rep.Quarantined != 1 || !bytes.Equal(q, bad[offs[i]:offs[i+1]]) {
					t.Fatalf("record %d byte %d: report %+v, %d bytes quarantined, want exactly the record", i, at, rep, len(q))
				}
			}
		}
	})

	t.Run("corrupt length mid-log", func(t *testing.T) {
		for _, tc := range []struct {
			why         string
			length      uint32
			quarantined int
		}{
			{"shorter", uint32(len(recs[1]) - recHeader - 1), 1},
			{"zero", 0, 1},
			// Past the end of the log, a length cannot be told from a torn
			// last write's: the rest is truncated as a tail, uncounted.
			{"past the end", 1 << 30, 0},
		} {
			dir := t.TempDir()
			bad := bytes.Clone(log)
			binary.BigEndian.PutUint32(bad[offs[1]:], tc.length)
			installLog(t, dir, bad)
			ds, rep := open(t, dir)
			wantServed(t, ds, []Item{a}, nil)
			q := readFile(t, filepath.Join(dir, quarantineName))
			if rep.Quarantined != tc.quarantined || (tc.quarantined == 1) != bytes.Equal(q, bad[offs[1]:]) {
				t.Fatalf("%s: report %+v, %d bytes quarantined", tc.why, rep, len(q))
			}
		}
	})

	t.Run("reclaiming most compacts", func(t *testing.T) {
		dir := t.TempDir()
		ds, _ := open(t, dir)
		var all, kept []Item
		for i := range 200 {
			it := diskItem(uint64(100+i), 64<<10)
			if err := ds.Put(it); err != nil {
				t.Fatal(err)
			}
			all = append(all, it)
		}
		appended := ds.size
		ptrs := map[id.File]wire.NodeRef{}
		for i, it := range all {
			if i%10 == 0 {
				kept = append(kept, it)
				continue
			}
			if _, err := ds.Delete(it.Cert.FileID); err != nil {
				t.Fatal(err)
			}
			if i%20 == 1 { // a pointer set, then replaced, for some
				for _, h := range []wire.NodeRef{holder, {ID: id.Rand(uint64(i)), Addr: "127.0.0.1:7060"}} {
					if err := ds.SetPointer(it.Cert.FileID, h); err != nil {
						t.Fatal(err)
					}
					ptrs[it.Cert.FileID] = h
				}
			}
			size := int64(len(readFile(t, filepath.Join(dir, logName))))
			if size != ds.size || size > int64(len(logHeader))+2*ds.live+compactSlack {
				t.Fatalf("after %d deletes the log is %d bytes for %d live", i, size, ds.live)
			}
		}
		if ds.size >= appended {
			t.Fatalf("log is %d bytes after reclaiming 90%% of %d: never compacted", ds.size, appended)
		}
		ds.Close() //nolint:errcheck // reopened below
		ds, rep := open(t, dir)
		if rep.Quarantined != 0 {
			t.Fatalf("reopen: %+v", rep)
		}
		wantServed(t, ds, kept, ptrs)
		if names := dirNames(t, dir); !slices.Equal(names, []string{logName}) {
			t.Fatalf("directory holds %v", names)
		}
	})

	t.Run("concurrent put and delete of one fileId", func(t *testing.T) {
		dir := t.TempDir()
		ds, _ := open(t, dir)
		it := diskItem(9, 512)
		f := it.Cert.FileID
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := wire.NodeRef{ID: id.Rand(uint64(g)), Addr: "127.0.0.1:7070"}
				for i := range 300 {
					switch (g + i) % 4 {
					case 0:
						ds.Put(it) //nolint:errcheck // a duplicate is refused
					case 1:
						ds.Delete(f) //nolint:errcheck // may be absent
					case 2:
						ds.SetPointer(f, h) //nolint:errcheck // checked through the reopen
					case 3:
						ds.DeletePointer(f) //nolint:errcheck // may be absent
					}
				}
			}()
		}
		wg.Wait()
		var items []Item
		if ds.Has(f) {
			items = []Item{it}
		}
		ptrs := pointersOf(ds)
		ds.Close() //nolint:errcheck // reopened below
		ds, rep := open(t, dir)
		if rep.Quarantined != 0 {
			t.Fatalf("reopen: %+v", rep)
		}
		wantServed(t, ds, items, ptrs)
	})
}

// A crash during a rewrite leaves replicas.log.tmp beside the log it was
// replacing: it is removed at open and never replayed, even when whole.
func TestDiskStoreSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	kept, debris := diskItem(4, 512), diskItem(5, 512)
	installLog(t, dir, logOf(putRec(t, kept)))
	tmp := filepath.Join(dir, logName+".tmp")
	if err := os.WriteFile(tmp, logOf(putRec(t, debris)), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, rep, err := OpenDiskStoreVerify(dir, 1<<20, verifyHash)
	if err != nil {
		t.Fatal(err)
	}
	if rep != (RecoveryReport{Recovered: 1}) {
		t.Fatalf("report %+v", rep)
	}
	wantServed(t, ds, []Item{kept}, nil)
	if names := dirNames(t, dir); !slices.Equal(names, []string{logName}) {
		t.Fatalf("temp debris not swept: %v", names)
	}
}

func TestDiskStoreRefusesOldLayout(t *testing.T) {
	v1 := diskItem(2, 64).Cert.FileID.String()
	for _, old := range []string{"0123abcd.json", "0123abcd.bin", v1, v1 + ".corrupt"} {
		dir := t.TempDir()
		ds, _ := OpenDiskStore(dir, 1<<20)
		if err := ds.Put(diskItem(1, 64)); err != nil {
			t.Fatal(err)
		}
		ds.Close() //nolint:errcheck // reopened below
		for _, name := range []string{old, "half.tmp"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := dirNames(t, dir)
		if _, _, err := OpenDiskStoreVerify(dir, 1<<20, verifyHash); !errors.Is(err, ErrOldLayout) {
			t.Fatalf("open over %s: %v, want ErrOldLayout", old, err)
		}
		// Refused before anything is swept, quarantined or rewritten.
		if after := dirNames(t, dir); len(after) != 3 || !slices.Equal(before, after) {
			t.Fatalf("refused open touched the directory: %v -> %v", before, after)
		}
	}
}

// A log this build does not read is refused, not replayed or rewritten.
func TestDiskStoreRefusesForeignLog(t *testing.T) {
	for _, head := range [][]byte{[]byte("PASTLOG\x03"), []byte("NOTALOG\x02")} {
		dir := t.TempDir()
		b := append(bytes.Clone(head), putRec(t, diskItem(1, 64))...)
		installLog(t, dir, b)
		if _, _, err := OpenDiskStoreVerify(dir, 1<<20, verifyHash); err == nil {
			t.Fatalf("opened a log headed %q", head)
		}
		if !bytes.Equal(readFile(t, filepath.Join(dir, logName)), b) {
			t.Fatalf("refused open of %q changed the log", head)
		}
	}
	// A header cut short (a power cut while the first log was created) is
	// an empty log, and is written whole.
	for _, cut := range [][]byte{nil, logHeader[:3]} {
		dir := t.TempDir()
		installLog(t, dir, cut)
		ds, rep, err := OpenDiskStoreVerify(dir, 1<<20, verifyHash)
		if err != nil || rep != (RecoveryReport{}) || ds.Len() != 0 {
			t.Fatalf("open over a %d-byte log: %+v %v", len(cut), rep, err)
		}
		if got := readFile(t, filepath.Join(dir, logName)); !bytes.Equal(got, logHeader) {
			t.Fatalf("log after open = %q", got)
		}
	}
}

func TestDiskStoreCapacity(t *testing.T) {
	ds, _ := OpenDiskStore(t.TempDir(), 100)
	if err := ds.Put(diskItem(1, 60)); err != nil {
		t.Fatal(err)
	}
	size := ds.size
	if err := ds.Put(diskItem(2, 60)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overflow accepted: %v", err)
	}
	if err := ds.Put(diskItem(1, 10)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate accepted: %v", err)
	}
	// A refused put writes nothing.
	if got := int64(len(readFile(t, filepath.Join(ds.Dir(), logName)))); got != size {
		t.Fatalf("log grew from %d to %d bytes on refused puts", size, got)
	}
}

// FuzzDiskRecord replays whatever follows a log header: it never panics,
// every record it accepts re-encodes to the same bytes, and the log a
// rewrite copies its live records into replays to the same index, each
// record where the copy put it.
func FuzzDiskRecord(f *testing.F) {
	a, b := diskItem(1, 4096), divertedItem(2, 64)
	pointer := pointerRec(f, a.Cert.FileID, b.Primary)
	seeds := [][]byte{
		nil,
		putRec(f, a),
		slices.Concat(putRec(f, a), putRec(f, b), pointer),
		slices.Concat(putRec(f, diskItem(3, 0)), mustEntry(f, entry{kind: kindDelete, file: diskItem(3, 0).Cert.FileID})),
		slices.Concat(pointer, mustEntry(f, entry{kind: kindUnpointer, file: a.Cert.FileID})),
		slices.Concat(putRec(f, b), putRec(f, a)[:100]), // torn tail
	}
	for _, tc := range hostileRecords(f, diskItem(2, 4096)) {
		seeds = append(seeds, slices.Concat(tc.rec, putRec(f, b)))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, records []byte) {
		log := logOf(records)
		replay := func(log []byte) (keydir, []span) {
			idx := newKeydir()
			end, bad, err := scanLog(bytes.NewReader(log), int64(len(log)), func(e entry, at span, crc uint32) {
				if re := mustEntry(t, e); !bytes.Equal(re, log[at.off:at.end]) {
					t.Fatalf("re-encoding differs:\n in  %x\n out %x", log[at.off:at.end], re)
				}
				if crc != binary.BigEndian.Uint32(log[at.off+4:]) {
					t.Fatalf("record at %d: CRC %08x reported, %x logged", at.off, crc, log[at.off+4:at.off+8])
				}
				idx.apply(e, at, crc)
			})
			if err != nil || end < int64(len(logHeader)) || end > int64(len(log)) {
				t.Fatalf("end %d of %d, err %v", end, len(log), err)
			}
			return idx, bad
		}
		idx, _ := replay(log)
		moved := idx.inLogOrder() // writeLog moves each to where it copies it
		var rewritten bytes.Buffer
		size, err := writeLog(&rewritten, bytes.NewReader(log), moved, idx.pointers)
		if err != nil || size != int64(rewritten.Len()) {
			t.Fatalf("rewrite: %d bytes of %d written, %v", size, rewritten.Len(), err)
		}
		again, bad := replay(rewritten.Bytes())
		if len(bad) != 0 || len(again.items) != len(idx.items) || len(again.pointers) != len(idx.pointers) {
			t.Fatalf("rewritten log replays to %d replicas and %d pointers (%d bad), want %d and %d",
				len(again.items), len(again.pointers), len(bad), len(idx.items), len(idx.pointers))
		}
		for i, got := range again.inLogOrder() {
			if want := moved[i]; got != want {
				t.Fatalf("replica %s differs after the rewrite, or sits at %v, not %v", want.file.Short(), got.at(), want.at())
			}
		}
		for f, h := range idx.pointers {
			if again.pointers[f] != h {
				t.Fatalf("pointer %s differs after the rewrite", f.Short())
			}
		}
	})
}

// FuzzRecordRead overwrites an indexed put record in the log with
// arbitrary bytes of its length, as bit rot or a stray writer would, and
// serves it: the read either returns exactly the bytes of the record it
// found — which the record's CRC-32C and fileId vouch for — or fails
// closed, leaving the buffer it was handed as it was, quarantining those
// bytes and dropping the replica from the index, while its neighbours
// are served intact.
func FuzzRecordRead(f *testing.F) {
	before, victim, after := diskItem(1, 64), divertedItem(2, 512), diskItem(3, 64)
	good := putRec(f, victim)
	flip := func(at int) []byte { b := bytes.Clone(good); b[at] ^= 0x20; return b }
	f.Add(good)
	f.Add(flip(2))                     // the length: not read, the index knows it
	f.Add(flip(recHeader + 3))         // the fileId
	f.Add(flip(len(good) - 100))       // the content
	f.Add(flip(len(good) - 1))         // Diverted, past what is served
	f.Add(putRec(f, diskItem(4, 512))) // another replica's record, CRC and all
	f.Add(make([]byte, len(good)))     // zeroed
	f.Add([]byte("short"))             // padded with the record's own tail
	want, err := wire.AppendReplica(nil, wire.ReplicaStore{Cert: victim.Cert, Data: victim.Data})
	if err != nil {
		f.Fatal(err)
	}
	want = want[:wire.ReplicaPrefixLen(&victim.Cert, len(victim.Data))]
	f.Fuzz(func(t *testing.T, region []byte) {
		dir := t.TempDir()
		ds, err := OpenDiskStore(dir, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close() //nolint:errcheck // test teardown
		for _, it := range []Item{before, victim, after} {
			if err := ds.Put(it); err != nil {
				t.Fatal(err)
			}
		}
		it, err := ds.Serve(victim.Cert.FileID)
		if err != nil {
			t.Fatal(err)
		}
		rec := it.Body.(*Record)
		region = append(bytes.Clone(region[:min(len(region), len(good))]), good[min(len(region), len(good)):]...)
		overwrite(t, filepath.Join(dir, logName), rec.off, region)
		body := region[recHeader+1:]
		got, err := it.Body.AppendTo([]byte("dst:"))
		switch {
		case err == nil && bytes.Equal(got[4:], want):
		case err == nil:
			if crc32.Update(putCRC, castagnoli, body) != rec.crc || !bytes.Equal(got[4:], body[:int(rec.pre)]) {
				t.Fatalf("served %d bytes the record does not vouch for", len(got)-4)
			}
		case bytes.Equal(body, good[recHeader+1:]):
			t.Fatalf("an intact body failed: %v", err)
		case string(got) != "dst:" || !errors.Is(err, errCorrupt):
			t.Fatalf("a failed read left %q, err %v", got, err)
		case ds.Has(victim.Cert.FileID) || ds.Stats() != (DiskStats{CorruptReads: 1}):
			t.Fatalf("a corrupt replica stayed indexed (%v), stats %+v", ds.Has(victim.Cert.FileID), ds.Stats())
		case !bytes.Equal(readFile(t, filepath.Join(dir, quarantineName)), region):
			t.Fatal("quarantine does not hold the bytes that failed")
		}
		for _, it := range []Item{before, after} {
			got, err := ds.Get(it.Cert.FileID)
			if err != nil || !bytes.Equal(got.Data, it.Data) {
				t.Fatalf("neighbour %s: %v", it.Cert.FileID.Short(), err)
			}
		}
	})
}

// BenchmarkDiskStorePut: the 256k row's B/op guards "no garbage the size
// of the body per put".
func BenchmarkDiskStorePut(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"4k", 4 << 10}, {"256k", 256 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			ds, err := OpenDiskStore(b.TempDir(), 1<<50)
			if err != nil {
				b.Fatal(err)
			}
			defer ds.Close() //nolint:errcheck // benchmark teardown
			it := diskItem(1, bc.size)
			const live = 64 // records indexed at once; deleted off the clock
			b.ReportAllocs()
			b.SetBytes(int64(bc.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(it.Cert.FileID[:], uint64(i))
				if err := ds.Put(it); err != nil {
					b.Fatal(err)
				}
				if i%live == live-1 {
					b.StopTimer()
					for j := i - live + 1; j <= i; j++ {
						binary.BigEndian.PutUint64(it.Cert.FileID[:], uint64(j))
						if _, err := ds.Delete(it.Cert.FileID); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkOpenDiskStoreVerify reopens a log of 256 4 KiB replicas,
// hashing each one as the node's boot recovery does.
func BenchmarkOpenDiskStoreVerify(b *testing.B) {
	const files = 256
	dir := b.TempDir()
	ds, err := OpenDiskStore(dir, 1<<50)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < files; i++ {
		if err := ds.Put(diskItem(uint64(i), 4<<10)); err != nil {
			b.Fatal(err)
		}
	}
	ds.Close() //nolint:errcheck // reopened below
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, rep, err := OpenDiskStoreVerify(dir, 1<<50, verifyHash)
		if err != nil || rep.Recovered != files || rep.Quarantined != 0 {
			b.Fatalf("report %+v, err %v", rep, err)
		}
		ds.Close() //nolint:errcheck // reopened next round
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*files), "ns/file")
}
