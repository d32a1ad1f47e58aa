package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func build(t *testing.T, n int) *Topology {
	t.Helper()
	top := New(1)
	for i := 0; i < n; i++ {
		top.Place()
	}
	return top
}

func TestDeterministic(t *testing.T) {
	a := build(t, 100)
	b := build(t, 100)
	for i := 0; i < 100; i += 7 {
		for j := 0; j < 100; j += 11 {
			if a.Distance(i, j) != b.Distance(i, j) {
				t.Fatalf("same seed gave different distances at (%d,%d)", i, j)
			}
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	top := build(t, 200)
	for i := 0; i < 200; i += 5 {
		if top.Distance(i, i) != 0 {
			t.Fatalf("Distance(%d,%d) != 0", i, i)
		}
		for j := 0; j < 200; j += 13 {
			d := top.Distance(i, j)
			if d != top.Distance(j, i) {
				t.Fatalf("asymmetric distance (%d,%d)", i, j)
			}
			if i != j && d <= 0 {
				t.Fatalf("non-positive distance %f between distinct nodes", d)
			}
			if d > top.MaxDistance() {
				t.Fatalf("distance %f exceeds MaxDistance %f", d, top.MaxDistance())
			}
		}
	}
}

func TestHierarchicalClustering(t *testing.T) {
	// Nodes in the same stub must on average be much closer than nodes in
	// different transit domains.
	top := New(7)
	a := top.PlaceAt(0)
	b := top.PlaceAt(0)
	// Stub in a different transit domain.
	far := stubsPerTransit * (transits - 1)
	c := top.PlaceAt(far)
	if top.Distance(a, b) >= top.Distance(a, c) {
		t.Fatalf("intra-stub %.2f should be < cross-transit %.2f",
			top.Distance(a, b), top.Distance(a, c))
	}
	if top.Distance(a, b) > 2*stubMax {
		t.Fatalf("intra-stub distance %.2f exceeds bound", top.Distance(a, b))
	}
	if top.Distance(a, c) < transitMin {
		t.Fatalf("cross-transit distance %.2f below transit floor", top.Distance(a, c))
	}
}

func TestPlaceAtBounds(t *testing.T) {
	top := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("PlaceAt out of range should panic")
		}
	}()
	top.PlaceAt(top.NumStubs())
}

func TestStubAccessor(t *testing.T) {
	top := New(1)
	n := top.PlaceAt(3)
	if top.Stub(n) != 3 {
		t.Fatalf("Stub = %d, want 3", top.Stub(n))
	}
	if top.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", top.NumNodes())
	}
}

func TestQuickDistanceSymmetricNonNegative(t *testing.T) {
	top := build(t, 500)
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		i := rng.Intn(500)
		j := rng.Intn(500)
		d := top.Distance(i, j)
		return d >= 0 && d == top.Distance(j, i) && (i != j || d == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDistance(b *testing.B) {
	top := New(1)
	for i := 0; i < 1000; i++ {
		top.Place()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = top.Distance(i%1000, (i*7)%1000)
	}
}

// TestDistancePinned hashes the bits of Distance over every ordered pair
// of 2,000 nodes placed on New(1), one FNV-1a hash per kind of pair (same
// stub, same transit domain, across transit domains). The values were
// recorded before the per-node record replaced the per-node stub and hop
// arrays; any change to a float operation or its order moves them.
func TestDistancePinned(t *testing.T) {
	top := build(t, 2000)
	const (
		sameStub = iota
		sameTransit
		crossTransit
	)
	var (
		hashes [3]uint64
		pairs  [3]int
	)
	for k := range hashes {
		hashes[k] = 14695981039346656037
	}
	for i := 0; i < top.NumNodes(); i++ {
		for j := 0; j < top.NumNodes(); j++ {
			if i == j {
				continue
			}
			k := crossTransit
			if top.Stub(i) == top.Stub(j) {
				k = sameStub
			} else if top.Transit(i) == top.Transit(j) {
				k = sameTransit
			}
			pairs[k]++
			bits := math.Float64bits(top.Distance(i, j))
			for b := 0; b < 64; b += 8 {
				hashes[k] = (hashes[k] ^ (bits >> b & 0xff)) * 1099511628211
			}
		}
	}
	wantPairs := [3]int{31058, 470488, 3496454}
	wantHashes := [3]uint64{0xe70c9970c1b348b5, 0x7568853c39ebea65, 0x3c1251df5fc026b5}
	if pairs != wantPairs || hashes != wantHashes {
		t.Fatalf("pairs %v, hashes %#x; want pairs %v, hashes %#x", pairs, hashes, wantPairs, wantHashes)
	}
}
