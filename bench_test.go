// Microbenchmarks of the core operations on a prebuilt simulated network:
//
//	go test -run='^$' -bench=. -benchmem
//
// The paper's tables and figures are regenerated by cmd/pastsim and
// asserted by internal/experiments' claim tests; the gated end-to-end
// benchmark is bench/ (bash bench/run.sh).
package past_test

import (
	"fmt"
	"testing"

	"past"
)

func benchNetwork(b *testing.B, n int) *past.Network {
	b.Helper()
	cfg := past.DefaultStorageConfig()
	cfg.K = 3
	cfg.Capacity = 64 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{N: n, Seed: 7, Storage: cfg})
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

func BenchmarkInsert4KiB(b *testing.B) {
	nw := benchNetwork(b, 64)
	data := make([]byte, 4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Insert(i%64, nil, fmt.Sprintf("bench-%d", i), data, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup4KiB(b *testing.B) {
	nw := benchNetwork(b, 64)
	ins, err := nw.Insert(0, nil, "bench-lookup", make([]byte, 4096), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Lookup(i%64, ins.FileID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertReclaimCycle(b *testing.B) {
	nw := benchNetwork(b, 32)
	data := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins, err := nw.Insert(i%32, nil, fmt.Sprintf("cycle-%d", i), data, 3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nw.Reclaim(i%32, nil, ins.FileID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkBuild64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := past.DefaultStorageConfig()
		cfg.Capacity = 1 << 20
		if _, err := past.NewNetwork(past.NetworkConfig{N: 64, Seed: int64(i), Storage: cfg}); err != nil {
			b.Fatal(err)
		}
	}
}
