package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"past/internal/id"
	"past/internal/wire"
)

// The index keeps a replica in one fixed-size entry the collector never
// marks: 20k 4 KiB replicas cost at most 128 B of heap each, map slot
// included, where an Item, its Record and a compact copy of its
// certificate per replica cost ~600.
func TestDiskIndexHeapPerReplica(t *testing.T) {
	const n = 20000
	ds, err := OpenDiskStore(t.TempDir(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close() //nolint:errcheck // test teardown
	it := divertedItem(1, 4<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range n {
		binary.BigEndian.PutUint64(it.Cert.FileID[:], uint64(i))
		if err := ds.Put(it); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perReplica := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B of heap per replica", perReplica)
	if perReplica > 128 {
		t.Fatalf("the index costs %.1f B of heap per replica, want at most 128", perReplica)
	}
	walked := 0
	if allocs := testing.AllocsPerRun(1, func() { ds.Walk(func(id.File, int64, int, bool) { walked++ }) }); allocs != 0 || walked != 2*n {
		t.Fatalf("a walk over %d replicas allocates %.0f times and yields %d", n, allocs, walked/2)
	}
}

// An index entry holds no pointer, so the collector has nothing in the
// index to mark.
func TestDiskIndexEntryHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return true
		case reflect.Array:
			return walk(t.Elem())
		case reflect.Struct:
			for i := range t.NumField() {
				if walk(t.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[slot](), reflect.TypeFor[id.File]()} {
		if walk(typ) {
			t.Fatalf("%v holds a pointer", typ)
		}
	}
}

// FuzzDiskIndexOps drives a DiskStore through a random run of puts,
// deletes, pointer sets and deletes, forced compactions and reopens, each
// op two bytes, against a reference map. After every op the store must
// agree with the reference: Has, Free, Pointer, the walk, what a serve
// encodes and every replica read back whole from its record; after a
// reopen, Recovered too.
func FuzzDiskIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 4, 0, 1, 1, 5, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 5, 0})
	f.Add([]byte{0, 3, 2, 3, 2, 11, 1, 3, 3, 3, 4, 0, 5, 0, 0, 3})
	f.Add([]byte{0, 6, 0, 6, 1, 6, 1, 6, 0, 7, 4, 0, 0, 6, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 4096
		dir := t.TempDir()
		ds, err := OpenDiskStore(dir, capacity)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { ds.Close() }() //nolint:errcheck // test teardown
		items := map[id.File]Item{}
		pointers := map[id.File]wire.NodeRef{}
		var used int64
		for i := 0; i+1 < len(ops) && i < 128; i += 2 {
			op, arg := ops[i]%6, ops[i+1]
			it := modelItem(arg)
			f := it.Cert.FileID
			switch op {
			case 0:
				err := ds.Put(it)
				_, dup := items[f]
				switch {
				case dup:
					if !errors.Is(err, ErrDuplicate) {
						t.Fatalf("op %d: put of a stored replica: %v", i/2, err)
					}
				case used+it.Cert.Size > capacity:
					if !errors.Is(err, ErrNoSpace) {
						t.Fatalf("op %d: put past the capacity: %v", i/2, err)
					}
				case err != nil:
					t.Fatalf("op %d: put: %v", i/2, err)
				default:
					items[f] = it
					used += it.Cert.Size
				}
			case 1:
				freed, err := ds.Delete(f)
				if want, ok := items[f]; !ok {
					if err != ErrNotFound {
						t.Fatalf("op %d: delete of an absent replica: %v", i/2, err)
					}
				} else if err != nil || freed != want.Cert.Size {
					t.Fatalf("op %d: delete freed %d, %v", i/2, freed, err)
				} else {
					delete(items, f)
					used -= freed
				}
			case 2:
				h := wire.NodeRef{ID: id.Rand(uint64(arg >> 3)), Addr: fmt.Sprintf("127.0.0.1:%d", 7000+int(arg>>3))}
				if err := ds.SetPointer(f, h); err != nil {
					t.Fatal(err)
				}
				pointers[f] = h
			case 3:
				_, want := pointers[f]
				if had, err := ds.DeletePointer(f); had != want || err != nil {
					t.Fatalf("op %d: DeletePointer %v, %v; want %v", i/2, had, err, want)
				}
				delete(pointers, f)
			case 4:
				ds.mu.Lock()
				err := ds.rewriteLocked()
				ds.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			case 5:
				ds.Close() //nolint:errcheck // reopened next
				var rep RecoveryReport
				if ds, rep, err = OpenDiskStoreVerify(dir, capacity, verifyHash); err != nil {
					t.Fatal(err)
				}
				if rep != (RecoveryReport{Recovered: len(items)}) {
					t.Fatalf("op %d: reopen reports %+v, want %d recovered", i/2, rep, len(items))
				}
			}
			agrees(t, ds, items, pointers, capacity-used)
		}
	})
}

// modelItem is one of eight replicas, picked by arg's low bits: sizes from
// 0 to 1.5 KiB, some diverted, and replication factors that include ones
// past what an entry holds.
func modelItem(arg byte) Item {
	seed := uint64(arg & 7)
	it := diskItem(seed+1, int(seed)*200)
	if seed%3 == 0 {
		it = divertedItem(seed+1, int(seed)*200)
	}
	it.Cert.Replicas = []int{3, 1, 0, -2, 1 << 40, 5, 2, 3}[seed]
	return it
}

// agrees fails unless ds holds exactly items and pointers and has free
// bytes free.
func agrees(t *testing.T, ds *DiskStore, items map[id.File]Item, pointers map[id.File]wire.NodeRef, free int64) {
	t.Helper()
	if got := ds.Free(); got != free {
		t.Fatalf("Free %d, want %d", got, free)
	}
	walked := 0
	ds.Walk(func(f id.File, size int64, replicas int, diverted bool) {
		walked++
		want, ok := items[f]
		clamped := max(min(want.Cert.Replicas, math.MaxInt32), math.MinInt32)
		if !ok || size != want.Cert.Size || replicas != clamped || diverted != want.Diverted {
			t.Errorf("walk yields %s: %d bytes, %d replicas, diverted %v", f.Short(), size, replicas, diverted)
		}
	})
	if walked != len(items) || ds.Len() != len(items) {
		t.Fatalf("walk yields %d replicas, Len %d, want %d", walked, ds.Len(), len(items))
	}
	for seed := range byte(8) {
		want := modelItem(seed)
		f := want.Cert.FileID
		_, held := items[f]
		if ds.Has(f) != held {
			t.Fatalf("Has(%s) = %v, want %v", f.Short(), !held, held)
		}
		h, ok := ds.Pointer(f)
		if wantH, wantOK := pointers[f]; ok != wantOK || h != wantH {
			t.Fatalf("Pointer(%s) = %v %v, want %v %v", f.Short(), h, ok, wantH, wantOK)
		}
		got, err := ds.Get(f)
		if !held {
			if err != ErrNotFound {
				t.Fatalf("Get of an absent replica: %v", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(putRec(t, got), putRec(t, want)) {
			t.Fatalf("replica %s read back from its record differs (%v)", f.Short(), err)
		}
		served, err := ds.Serve(f)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := served.Body.AppendTo(nil)
		body, _ := wire.AppendReplica(nil, wire.ReplicaStore{Cert: want.Cert, Data: want.Data})
		if err != nil || !bytes.Equal(frame, body[:wire.ReplicaPrefixLen(&want.Cert, len(want.Data))]) || served.Cert.FileID != f || served.Cert.Size != want.Cert.Size || served.Diverted != want.Diverted {
			t.Fatalf("replica %s serves differently (%v)", f.Short(), err)
		}
	}
}

// A walk does not hold the index while it calls fn, so puts and deletes
// race it: every replica stored throughout is still yielded exactly once,
// and fn may call the store.
func TestDiskStoreWalkRacesMutations(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close() //nolint:errcheck // test teardown
	kept := map[id.File]bool{}
	for i := range 200 {
		it := diskItem(uint64(i), 64)
		if err := ds.Put(it); err != nil {
			t.Fatal(err)
		}
		kept[it.Cert.FileID] = true
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 2000 {
			it := diskItem(uint64(1000+i%300), 64)
			ds.Put(it)                //nolint:errcheck // a duplicate is refused
			ds.Delete(it.Cert.FileID) //nolint:errcheck // may be absent
		}
	}()
	for walks := 0; ; walks++ {
		select {
		case <-done:
			t.Logf("%d walks", walks)
			return
		default:
		}
		seen := map[id.File]int{}
		ds.Walk(func(f id.File, _ int64, _ int, _ bool) {
			seen[f]++
			ds.Has(f)
		})
		for f := range kept {
			if seen[f] != 1 {
				t.Fatalf("walk %d yields %s %d times", walks, f.Short(), seen[f])
			}
		}
	}
}
