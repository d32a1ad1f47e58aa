package storage

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"past/internal/id"
	"past/internal/wire"
)

// A replica served by reference encodes to the frame the same replica in
// memory encodes to, in each of the three messages that carry one, and
// FrameLen agrees; the content read for local use is the content stored.
func TestRecordEncodesAsMaterialised(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close() //nolint:errcheck // test teardown
	const from = "127.0.0.1:7001"
	ref := wire.NodeRef{ID: id.Rand(9), Addr: from}
	for _, want := range []Item{diskItem(1, 0), divertedItem(2, 4096), diskItem(3, 256<<10)} {
		if err := ds.Put(want); err != nil {
			t.Fatal(err)
		}
		it, err := ds.Serve(want.Cert.FileID)
		if err != nil || it.Data != nil || it.Body == nil {
			t.Fatalf("served item: Data %d bytes, Body %v (%v)", len(it.Data), it.Body, err)
		}
		for _, m := range []struct{ byRef, inMem wire.Msg }{
			{wire.LookupReply{Cert: it.Cert, Body: it.Body, From: ref, ReqID: 7, Hops: 2, Distance: 1.5, Cached: true},
				wire.LookupReply{Cert: want.Cert, Data: want.Data, From: ref, ReqID: 7, Hops: 2, Distance: 1.5, Cached: true}},
			{wire.Replicate{Cert: it.Cert, Body: it.Body, From: ref}, wire.Replicate{Cert: want.Cert, Data: want.Data, From: ref}},
			{wire.CacheCopy{Cert: it.Cert, Body: it.Body}, wire.CacheCopy{Cert: want.Cert, Data: want.Data}},
		} {
			got, err := wire.AppendFrame([]byte("len:"), from, m.byRef)
			if err != nil {
				t.Fatal(err)
			}
			exp, err := wire.AppendFrame([]byte("len:"), from, m.inMem)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, exp) {
				t.Fatalf("%s of %d bytes: the frame read from the log differs from the one in memory", m.byRef.Kind(), len(want.Data))
			}
			if n, mn := wire.FrameLen(from, m.byRef), wire.FrameLen(from, m.inMem); n != len(exp)-4 || mn != n {
				t.Fatalf("%s: FrameLen %d by reference, %d in memory, frame %d", m.byRef.Kind(), n, mn, len(exp)-4)
			}
		}
		whole, err := ds.Get(want.Cert.FileID)
		if err != nil || !bytes.Equal(putRec(t, whole), putRec(t, want)) || cap(whole.Data) != len(whole.Data) || whole.Body != nil {
			t.Fatalf("Get: %d bytes (cap %d), Body %v, %v", len(whole.Data), cap(whole.Data), whole.Body, err)
		}
	}
	if ds.Stats() != (DiskStats{}) {
		t.Fatalf("stats %+v after clean reads", ds.Stats())
	}
}

// Serving and reading replicas races the deletes that compact the log
// under them: every read returns the replica's bytes or fails closed as
// stale, none is taken for corruption, and the replicas kept are served
// intact from the rewritten log.
func TestDiskStoreReadsRaceCompaction(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()           //nolint:errcheck // test teardown
	items := make([]Item, 160) // 10 MiB; deleting 9 in 10 leaves past compactSlack dead
	frames := map[id.File][]byte{}
	for i := range items {
		items[i] = diskItem(uint64(100+i), 64<<10)
		if err := ds.Put(items[i]); err != nil {
			t.Fatal(err)
		}
		frame, err := wire.AppendFrame(nil, "r", wire.LookupReply{Cert: items[i].Cert, Data: items[i].Data, ReqID: 1})
		if err != nil {
			t.Fatal(err)
		}
		frames[items[i].Cert.FileID] = frame
	}
	appended := ds.size
	done := make(chan struct{})
	var wg sync.WaitGroup
	var served, stale [2]int
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				want := items[(round*7+g)%len(items)]
				var it Item
				var err error
				if g == 0 {
					if it, err = ds.Serve(want.Cert.FileID); err != nil {
						continue // deleted
					}
					buf, err = wire.AppendFrame(buf[:0], "r", wire.LookupReply{Cert: it.Cert, Body: it.Body, ReqID: 1})
					if err == nil && !bytes.Equal(buf, frames[want.Cert.FileID]) {
						t.Errorf("served frame of %s differs", want.Cert.FileID.Short())
					}
				} else {
					if it, err = ds.Get(want.Cert.FileID); errors.Is(err, ErrNotFound) {
						continue // deleted
					}
					if err == nil && !bytes.Equal(it.Data, want.Data) {
						t.Errorf("content of %s differs", want.Cert.FileID.Short())
					}
				}
				switch {
				case err == nil:
					served[g]++
				case errors.Is(err, errStale):
					stale[g]++
				default:
					t.Errorf("read of %s: %v", want.Cert.FileID.Short(), err)
				}
			}
		}()
	}
	var kept []Item
	for i, it := range items {
		if i%10 == 0 {
			kept = append(kept, it)
			continue
		}
		if _, err := ds.Delete(it.Cert.FileID); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if ds.size >= appended {
		t.Fatalf("log is %d bytes after deleting 90%% of %d: never compacted", ds.size, appended)
	}
	if s := ds.Stats(); s.CorruptReads != 0 || s.StaleReads != int64(stale[0]+stale[1]) {
		t.Fatalf("stats %+v, %d stale reads seen", s, stale[0]+stale[1])
	}
	t.Logf("served %v, stale %v", served, stale)
	wantServed(t, ds, kept, nil)
}

// Reopening a store holding 64 MiB of replicas keeps their content on
// disk: the heap grows by the index, not by the bytes.
func TestDiskStoreReopenHoldsNoContent(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 64 MiB")
	}
	const size, n = 256 << 10, 256
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if err := ds.Put(diskItem(uint64(i), size)); err != nil {
			t.Fatal(err)
		}
	}
	ds.Close() //nolint:errcheck // reopened below
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds, rep, err := OpenDiskStoreVerify(dir, 1<<40, verifyHash)
	if err != nil || rep.Recovered != n {
		t.Fatalf("reopen: %+v %v", rep, err)
	}
	defer ds.Close() //nolint:errcheck // test teardown
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > n*size/10 {
		t.Fatalf("reopening %d MiB of replicas grew the heap by %.1f MiB", n*size>>20, float64(grew)/(1<<20))
	}
}
