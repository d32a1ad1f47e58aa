package past_test

import (
	"encoding/binary"
	"testing"

	"past/internal/id"
	"past/internal/past"
	"past/internal/storage"
	"past/internal/wire"
)

// An anti-entropy sweep walks the store in place: over 10k replicas it
// allocates no more than over 1k but for the digests' own growth — no
// copy of an item and no replica set per replica.
func TestSweepAllocatesOnlyTheOffers(t *testing.T) {
	sweep := func(n int) (allocs float64, offers int) {
		node := buildPAST(t, 16, 300, defaultCfg(), nil).Node(0)
		for i := range n {
			var f id.File
			binary.BigEndian.PutUint64(f[:], uint64(i)*0x9e3779b97f4a7c15)
			cert := wire.FileCertificate{FileID: f, Size: 1, Replicas: 3}
			if err := node.Store().Put(storage.Item{Cert: cert, Data: []byte{1}}); err != nil {
				t.Fatal(err)
			}
		}
		before := node.Stats().SyncOffers
		allocs = testing.AllocsPerRun(3, func() { past.ReReplicate(node) })
		return allocs, (node.Stats().SyncOffers - before) / 4
	}
	small, offers := sweep(1000)
	large, _ := sweep(10000)
	t.Logf("a sweep over 1k replicas allocates %.0f times, over 10k %.0f (%d digests)", small, large, offers)
	// append grows a long slice by at least 1.25×, so each digest's two
	// slices reallocate at most 12 more times each at ten times the length.
	if large-small > float64(24*offers) {
		t.Fatalf("a sweep over 10k replicas allocates %.0f times, over 1k %.0f: %d digests account for %d more",
			large, small, offers, 24*offers)
	}
}
