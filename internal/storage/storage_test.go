package storage

import (
	"errors"
	"testing"
	"testing/quick"

	"past/internal/id"
	"past/internal/wire"
)

func item(seed uint64, size int) Item {
	return Item{
		Cert: wire.FileCertificate{FileID: id.RandFile(seed), Size: int64(size)},
		Data: make([]byte, size),
	}
}

func TestStorePutGetDelete(t *testing.T) {
	s := NewStore(100)
	it := item(1, 40)
	if err := s.Put(it); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if s.Used() != 40 || s.Free() != 60 || s.Len() != 1 {
		t.Fatalf("accounting: used=%d free=%d len=%d", s.Used(), s.Free(), s.Len())
	}
	got, err := s.Get(it.Cert.FileID)
	if err != nil || len(got.Data) != 40 {
		t.Fatalf("Get: %v", err)
	}
	if !s.Has(it.Cert.FileID) {
		t.Fatal("Has false")
	}
	freed, err := s.Delete(it.Cert.FileID)
	if err != nil || freed != 40 {
		t.Fatalf("Delete: %d, %v", freed, err)
	}
	if s.Used() != 0 || s.Has(it.Cert.FileID) {
		t.Fatal("delete did not free")
	}
	if _, err := s.Get(it.Cert.FileID); !errors.Is(err, ErrNotFound) {
		t.Fatal("Get after delete should be ErrNotFound")
	}
	if _, err := s.Delete(it.Cert.FileID); !errors.Is(err, ErrNotFound) {
		t.Fatal("double delete should be ErrNotFound")
	}
}

func TestStoreCapacityEnforced(t *testing.T) {
	s := NewStore(100)
	if err := s.Put(item(1, 60)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(item(2, 50)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overflow accepted: %v", err)
	}
	if err := s.Put(item(3, 40)); err != nil {
		t.Fatalf("fitting file rejected: %v", err)
	}
	if s.Used() != s.Capacity() {
		t.Fatalf("used = %d of %d", s.Used(), s.Capacity())
	}
}

func TestStoreDuplicateRejected(t *testing.T) {
	s := NewStore(100)
	it := item(1, 10)
	if err := s.Put(it); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(it); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate accepted: %v", err)
	}
	// The immutability guarantee of section 1: same fileId cannot be
	// inserted twice, so stored content never changes.
}

func TestStoreDataZeroCopy(t *testing.T) {
	// Put takes ownership of the slice without copying: all replicas of an
	// insert share one backing array, and the caller must treat the bytes
	// as immutable afterwards (the wire "immutable after Send" rule).
	s := NewStore(100)
	data := []byte{1, 2, 3}
	it := Item{Cert: wire.FileCertificate{FileID: id.RandFile(9)}, Data: data}
	s.Put(it)
	got, _ := s.Get(it.Cert.FileID)
	if len(got.Data) != 3 || &got.Data[0] != &data[0] {
		t.Fatal("store should alias the caller's buffer (zero-copy ownership transfer)")
	}
}

func TestStoreFilesSorted(t *testing.T) {
	s := NewStore(1000)
	for i := 0; i < 20; i++ {
		s.Put(item(uint64(i), 1))
	}
	files := s.Files()
	if len(files) != 20 {
		t.Fatalf("len = %d", len(files))
	}
	for i := 1; i < len(files); i++ {
		if files[i-1].String() >= files[i].String() {
			t.Fatal("Files not sorted")
		}
	}
	if len(s.Items()) != 20 {
		t.Fatal("Items length mismatch")
	}
}

func TestStorePointers(t *testing.T) {
	s := NewStore(10)
	f := id.RandFile(1)
	holder := wire.NodeRef{ID: id.Rand(2), Addr: "sim:3"}
	if _, ok := s.Pointer(f); ok {
		t.Fatal("pointer present before set")
	}
	if err := s.SetPointer(f, holder); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Pointer(f)
	if !ok || got.ID != holder.ID {
		t.Fatal("pointer lost")
	}
	if had, err := s.DeletePointer(f); !had || err != nil {
		t.Fatal("DeletePointer of a pointer held")
	}
	if had, _ := s.DeletePointer(f); had {
		t.Fatal("second DeletePointer found it")
	}
}

func TestQuickStoreAccountingInvariant(t *testing.T) {
	// Property: used == sum of stored sizes, never exceeds capacity.
	f := func(ops []uint16) bool {
		s := NewStore(1 << 16)
		live := map[uint64]int64{}
		for i, op := range ops {
			seed := uint64(op % 32)
			size := int(op%977) + 1
			if op%3 == 0 {
				if _, err := s.Delete(id.RandFile(seed)); err == nil {
					delete(live, seed)
				}
			} else {
				if err := s.Put(item(seed, size)); err == nil {
					live[seed] = int64(size)
				}
			}
			var sum int64
			for _, v := range live {
				sum += v
			}
			if s.Used() != sum || s.Used() > s.Capacity() {
				t.Logf("op %d: used=%d sum=%d", i, s.Used(), sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Cache

func TestCachePutGet(t *testing.T) {
	c := NewCache(100)
	it := item(1, 30)
	if !c.Put(it, 10) {
		t.Fatal("Put rejected")
	}
	got, ok := c.Get(it.Cert.FileID)
	if !ok || len(got.Data) != 30 {
		t.Fatal("Get missed")
	}
	if _, ok := c.Get(id.RandFile(99)); ok {
		t.Fatal("phantom hit")
	}
}

func TestCacheRejectsOversizeAndEmpty(t *testing.T) {
	c := NewCache(100)
	if c.Put(item(1, 200), 1) {
		t.Fatal("oversize cached")
	}
	if c.Put(item(2, 0), 1) {
		t.Fatal("empty file cached")
	}
}

func TestCacheEvictsLowestWeight(t *testing.T) {
	c := NewCache(100)
	cheap := item(1, 50)
	dear := item(2, 50)
	c.Put(cheap, 1)   // weight 1/50
	c.Put(dear, 1000) // weight 20
	// Inserting a mid-value file forces one eviction: cheap must go.
	mid := item(3, 50)
	if !c.Put(mid, 100) { // weight 2 > cheap's, fits after evicting cheap
		t.Fatal("mid-value insert rejected")
	}
	if c.Has(cheap.Cert.FileID) {
		t.Fatal("cheap entry survived")
	}
	if !c.Has(dear.Cert.FileID) {
		t.Fatal("dear entry evicted")
	}
}

func TestCacheAdmissionRefusesWorthless(t *testing.T) {
	c := NewCache(100)
	c.Put(item(1, 50), 1000)
	c.Put(item(2, 50), 1000)
	// A low-value newcomer must not displace high-value residents.
	if c.Put(item(3, 50), 1) {
		t.Fatal("worthless newcomer displaced valuable entries")
	}
}

func TestCacheHitProtectsFromEviction(t *testing.T) {
	c := NewCache(100)
	a := item(1, 50)
	b := item(2, 50)
	c.Put(a, 10)
	c.Put(b, 10)
	// Hit `a` several times; when pressure comes, b should be evicted.
	for i := 0; i < 3; i++ {
		c.Get(a.Cert.FileID)
	}
	c.Put(item(3, 50), 10)
	if !c.Has(a.Cert.FileID) {
		t.Fatal("frequently hit entry evicted")
	}
}

func TestCacheResize(t *testing.T) {
	c := NewCache(100)
	c.Put(item(1, 40), 1)
	c.Put(item(2, 40), 2)
	c.Resize(50)
	if c.Used() > 50 {
		t.Fatalf("used %d after shrink", c.Used())
	}
	if c.Len() != 1 {
		t.Fatalf("len %d after shrink", c.Len())
	}
	c.Resize(-5)
	if c.Capacity() != 0 || c.Len() != 0 {
		t.Fatal("negative resize should clamp to zero and flush")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(100)
	it := item(1, 10)
	c.Put(it, 1)
	if !c.Invalidate(it.Cert.FileID) {
		t.Fatal("invalidate missed")
	}
	if c.Invalidate(it.Cert.FileID) {
		t.Fatal("double invalidate")
	}
	if c.Used() != 0 {
		t.Fatal("used after invalidate")
	}
}

func TestCacheReinsertRefreshesWeight(t *testing.T) {
	c := NewCache(100)
	it := item(1, 50)
	c.Put(it, 1)
	if !c.Put(it, 1000) {
		t.Fatal("re-put rejected")
	}
	if c.Len() != 1 || c.Used() != 50 {
		t.Fatal("re-put duplicated entry")
	}
	// Now it should survive pressure from a mid-value newcomer.
	if c.Put(item(2, 60), 10) {
		t.Fatal("newcomer should not fit without evicting the refreshed entry")
	}
}

func TestQuickCacheNeverOverflows(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache(1 << 12)
		for _, op := range ops {
			seed := uint64(op % 64)
			size := int(op%1500) + 1
			switch op % 4 {
			case 0:
				c.Get(id.RandFile(seed))
			case 1:
				c.Invalidate(id.RandFile(seed))
			case 2:
				c.Resize(int64(op%5000) + 1)
			default:
				c.Put(item(seed, size), float64(op%100))
			}
			if c.Used() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCachePutGet(b *testing.B) {
	c := NewCache(1 << 20)
	items := make([]Item, 256)
	for i := range items {
		items[i] = item(uint64(i), 1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%256]
		c.Put(it, float64(i%37))
		c.Get(it.Cert.FileID)
	}
}

func BenchmarkStorePut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStore(1 << 30)
		_ = s.Put(item(uint64(i), 4096))
	}
}
