package pastry

import (
	"testing"

	"past/internal/id"
	"past/internal/wire"
)

// benchLeafSets are the two shapes that matter: 17 members in l = 32 (the
// 18-peer bench/ cluster: the ring wraps, 15 nodes sit in both halves) and
// 32 distinct members (any network larger than l).
func benchLeafSets() map[string]*LeafSet {
	sets := map[string]*LeafSet{}
	for name, others := range map[string]int{"17of32": 17, "32of32": 64} {
		s := NewLeafSet(id.Rand(1), 32)
		for i := 0; i < others; i++ {
			s.Consider(ref(uint64(100 + i)))
		}
		sets[name] = s
	}
	return sets
}

var (
	sinkRef  wire.NodeRef
	sinkRefs []wire.NodeRef
)

func BenchmarkLeafSetClosest(b *testing.B) {
	for name, s := range benchLeafSets() {
		b.Run(name, func(b *testing.B) {
			keys := make([]id.Node, 256)
			for i := range keys {
				keys[i] = id.Rand(uint64(9000 + i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRef, _ = s.Closest(keys[i%len(keys)])
			}
		})
	}
}

func BenchmarkLeafSetMembers(b *testing.B) {
	for name, s := range benchLeafSets() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRefs = s.Members()
			}
		})
	}
}
