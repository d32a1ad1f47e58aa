package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
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

func mustRecord(t testing.TB, it Item) []byte {
	t.Helper()
	rec, err := appendRecord(nil, it)
	if err != nil {
		t.Fatal(err)
	}
	return rec
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
	if !ds.Has(it.Cert.FileID) || len(ds.Files()) != 1 {
		t.Fatal("index wrong")
	}
	freed, err := ds.Delete(it.Cert.FileID)
	if err != nil || freed != 100 {
		t.Fatalf("Delete: %d %v", freed, err)
	}
	if ds.Has(it.Cert.FileID) {
		t.Fatal("still present")
	}
	// One record per replica, so one unlink leaves nothing behind: no
	// half-deleted pair for the next boot to quarantine.
	if names := dirNames(t, ds.Dir()); len(names) != 0 {
		t.Fatalf("entries left on disk after Delete: %v", names)
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
	// Reopen: everything must come back, including diversion metadata.
	ds2, rep, err := OpenDiskStoreVerify(dir, 1<<20, verifyHash)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 3 || rep.Quarantined != 0 || ds2.Mem().Used() != 64+128 {
		t.Fatalf("after restart: report %+v, used %d", rep, ds2.Mem().Used())
	}
	for _, want := range items {
		got, err := ds2.Get(want.Cert.FileID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Diverted != want.Diverted || got.Primary != want.Primary {
			t.Fatal("diversion metadata lost across restart")
		}
		if !bytes.Equal(got.Data, want.Data) || !bytes.Equal(got.Cert.Sig, want.Cert.Sig) || got.Cert.ContentHash != want.Cert.ContentHash {
			t.Fatal("content or certificate corrupted across restart")
		}
	}
}

// A 256 KiB diverted record round-trips, and the decoded content is a
// capped window onto the buffer that was read — no copy, and an append by
// the holder cannot run into the bytes that follow it.
func TestRecordRoundTripAliasesReadBuffer(t *testing.T) {
	want := divertedItem(7, 256<<10)
	rec := mustRecord(t, want)
	got, err := decodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Diverted || got.Primary != want.Primary || got.Cert.FileID != want.Cert.FileID || !bytes.Equal(got.Data, want.Data) {
		t.Fatal("record did not round-trip")
	}
	if cap(got.Data) != len(got.Data) {
		t.Fatalf("Data has cap %d, len %d: not capped to its own length", cap(got.Data), len(got.Data))
	}
	off := bytes.Index(rec, want.Data)
	if off < 0 || &got.Data[0] != &rec[off] {
		t.Fatal("Data does not alias the read buffer")
	}
	if re := mustRecord(t, got); !bytes.Equal(re, rec) {
		t.Fatal("re-encoding differs")
	}
}

// A hostileRecord must never be served: what is written under which name,
// and why it is bad.
type hostileRecord struct {
	why  string
	name string
	rec  []byte
}

// hostileRecords is the table the quarantine test drives through
// OpenDiskStoreVerify and the fuzz target is seeded from.
func hostileRecords(t testing.TB, victim Item) []hostileRecord {
	good := mustRecord(t, victim)
	name := victim.Cert.FileID.String()
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	wrongSize := victim
	wrongSize.Cert.Size++
	withReqID, err := wire.AppendFrame([]byte{recordV1}, "", wire.ReplicaStore{Cert: victim.Cert, Data: victim.Data, ReqID: 9})
	if err != nil {
		t.Fatal(err)
	}
	otherMsg, err := wire.AppendFrame([]byte{recordV1}, "", wire.Heartbeat{})
	if err != nil {
		t.Fatal(err)
	}
	return []hostileRecord{
		{"empty file", name, nil},
		{"zeroed tail", name, mutate(func(b []byte) []byte { clear(b[len(b)-100:]); return b })},
		{"flipped content byte", name, mutate(func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b })},
		{"trailing garbage", name, mutate(func(b []byte) []byte { return append(b, "junk"...) })},
		{"unknown format byte", name, mutate(func(b []byte) []byte { b[0] = recordV1 + 1; return b })},
		{"size differs from Cert.Size", name, mustRecord(t, wrongSize)},
		{"name differs from Cert.FileID", id.RandFile(99).String(), good},
		{"request fields set", name, withReqID},
		{"another message type", name, otherMsg},
	}
}

func TestDiskStoreQuarantinesHostileRecords(t *testing.T) {
	good, victim := diskItem(1, 4096), diskItem(2, 4096)
	const hookRejects = "verify hook rejects" // a well-formed record only the hook can fault
	cases := append(hostileRecords(t, victim), hostileRecord{hookRejects, victim.Cert.FileID.String(), mustRecord(t, victim)})
	for _, tc := range cases {
		t.Run(tc.why, func(t *testing.T) {
			dir := t.TempDir()
			ds, err := OpenDiskStore(dir, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Put(good); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, tc.rec, 0o644); err != nil {
				t.Fatal(err)
			}
			verify := verifyHash
			if tc.why == hookRejects {
				verify = func(c wire.FileCertificate, data []byte) error {
					if c.FileID == victim.Cert.FileID {
						return errors.New("certificate no longer checks out")
					}
					return verifyHash(c, data)
				}
			}
			ds2, rep, err := OpenDiskStoreVerify(dir, 1<<20, verify)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Recovered != 1 || rep.Quarantined != 1 {
				t.Fatalf("report = %+v, want 1 recovered / 1 quarantined", rep)
			}
			if !ds2.Has(good.Cert.FileID) || len(ds2.Files()) != 1 {
				t.Fatalf("indexed %v, want only the good record", ds2.Files())
			}
			if _, err := ds2.Get(victim.Cert.FileID); err != ErrNotFound {
				t.Fatalf("hostile record served: %v", err)
			}
			// Set aside with one rename, not deleted, and not resurrected.
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("quarantined record missing: %v", err)
			}
			if len(dirNames(t, dir)) != 2 {
				t.Fatalf("directory holds %v", dirNames(t, dir))
			}
			_, rep, err = OpenDiskStoreVerify(dir, 1<<20, verify)
			if err != nil || rep.Recovered != 1 || rep.Quarantined != 0 {
				t.Fatalf("second open: report %+v, err %v", rep, err)
			}
		})
	}
}

// A crash mid-write tears a record at any byte. Every strict prefix of a
// valid 4 KiB record is quarantined at open, whatever the verify hook.
func TestDiskStoreQuarantinesEveryTornRecord(t *testing.T) {
	victim := diskItem(2, 4096)
	rec := mustRecord(t, victim)
	dir := t.TempDir()
	path := filepath.Join(dir, victim.Cert.FileID.String())
	for n := 0; n < len(rec); n++ {
		if err := os.WriteFile(path, rec[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		ds, rep, err := OpenDiskStoreVerify(dir, 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Recovered != 0 || rep.Quarantined != 1 || ds.Has(victim.Cert.FileID) {
			t.Fatalf("%d-byte prefix: report %+v, served %v", n, rep, ds.Has(victim.Cert.FileID))
		}
		if err := os.Remove(path + ".corrupt"); err != nil {
			t.Fatalf("%d-byte prefix: %v", n, err)
		}
	}
}

// A kill between the temp write and the rename leaves <name>.tmp behind:
// it is removed at open and never indexed, even when it is a whole record.
func TestDiskStoreSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	it := diskItem(4, 512)
	tmp := filepath.Join(dir, it.Cert.FileID.String()+".tmp")
	if err := os.WriteFile(tmp, mustRecord(t, it), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, rep, err := OpenDiskStoreVerify(dir, 1<<20, verifyHash)
	if err != nil {
		t.Fatal(err)
	}
	if rep != (RecoveryReport{}) || ds.Has(it.Cert.FileID) {
		t.Fatalf("temp debris indexed: report %+v", rep)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("temp debris not swept: %v", names)
	}
}

func TestDiskStoreRefusesOldLayout(t *testing.T) {
	for _, old := range []string{"0123abcd.json", "0123abcd.bin"} {
		dir := t.TempDir()
		ds, _ := OpenDiskStore(dir, 1<<20)
		if err := ds.Put(diskItem(1, 64)); err != nil {
			t.Fatal(err)
		}
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

func TestDiskStoreCapacity(t *testing.T) {
	ds, _ := OpenDiskStore(t.TempDir(), 100)
	if err := ds.Put(diskItem(1, 60)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(diskItem(2, 60)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overflow accepted: %v", err)
	}
	if err := ds.Put(diskItem(1, 10)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate accepted: %v", err)
	}
	// A refused put writes nothing.
	if names := dirNames(t, ds.Dir()); len(names) != 1 {
		t.Fatalf("directory holds %v, want one record", names)
	}
}

func TestDiskStoreNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	ds, _ := OpenDiskStore(dir, 1<<20)
	want := map[string]bool{}
	for i := 0; i < 5; i++ {
		it := diskItem(uint64(i), 32)
		if err := ds.Put(it); err != nil {
			t.Fatal(err)
		}
		want[it.Cert.FileID.String()] = true
	}
	// Exactly one entry per replica, named by its fileId.
	names := dirNames(t, dir)
	if len(names) != 5 {
		t.Fatalf("expected 5 entries, found %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected entry %s", n)
		}
	}
}

// FuzzDiskRecord: arbitrary bytes never panic the record decoder, and
// whatever decodes re-encodes to the very same bytes.
func FuzzDiskRecord(f *testing.F) {
	f.Add(mustRecord(f, diskItem(1, 4096)))
	f.Add(mustRecord(f, divertedItem(2, 64)))
	f.Add(mustRecord(f, diskItem(3, 0)))
	for _, tc := range hostileRecords(f, diskItem(2, 4096)) {
		f.Add(tc.rec)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		it, err := decodeRecord(b)
		if err != nil {
			return
		}
		if re := mustRecord(t, it); !bytes.Equal(re, b) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", b, re)
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
			it := diskItem(1, bc.size)
			const live = 64 // records on disk at once; deleted off the clock
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
					for _, f := range ds.Files() {
						if _, err := ds.Delete(f); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkOpenDiskStoreVerify reopens a directory of 256 4 KiB replicas,
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := OpenDiskStoreVerify(dir, 1<<50, verifyHash)
		if err != nil || rep.Recovered != files || rep.Quarantined != 0 {
			b.Fatalf("report %+v, err %v", rep, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*files), "ns/file")
}
