package experiments

import (
	"fmt"
	"testing"

	"past/internal/cluster"
	"past/internal/past"
)

// TestAnalyticReplicaPlacement completes the bulk-construction validation
// argument at the storage layer: the same inserts, issued from the same
// entry nodes into a protocol-built and an analytically-built PAST
// network, must land every replica on the same k nodes — and those must
// be the k numerically closest live nodes per the oracle. (Routing-layer
// equivalence — leaf sets, table occupancy, destinations — is pinned by
// cluster.TestAnalyticEquivalence.)
func TestAnalyticReplicaPlacement(t *testing.T) {
	const (
		n     = 64
		seed  = 21
		files = 24
		k     = 5
	)
	cfg := past.DefaultConfig()
	cfg.K = k
	cfg.Caching = false

	build := func(analytic bool) *cluster.PAST {
		return mustPAST(n, seed, cfg, nil, func(o *cluster.Options) { o.Analytic = analytic })
	}
	pp := build(false)
	pa := build(true)

	for i := 0; i < files; i++ {
		name := fmt.Sprintf("equiv-%d", i)
		// All inserts enter at node 0: fileIds include a salt drawn from
		// the entry node's random stream, and node 0 is the only node
		// whose stream offset is construction-independent (it bootstraps,
		// so it draws no join nonce in the protocol build). Same salts →
		// same fileIds → placements are directly comparable.
		const entry = 0
		data := make([]byte, 256)
		rp := pp.Insert(entry, pp.Card(0), name, data, k)
		ra := pa.Insert(entry, pa.Card(0), name, data, k)
		if rp.Err != nil || ra.Err != nil {
			t.Fatalf("file %d: insert errs protocol=%v analytic=%v", i, rp.Err, ra.Err)
		}
		if rp.FileID != ra.FileID {
			t.Fatalf("file %d: ids differ (same card, same name — should be impossible)", i)
		}
		var hp, ha []int
		for j := 0; j < n; j++ {
			if pp.Node(j).Store().Has(rp.FileID) {
				hp = append(hp, j)
			}
			if pa.Node(j).Store().Has(ra.FileID) {
				ha = append(ha, j)
			}
		}
		if fmt.Sprint(hp) != fmt.Sprint(ha) {
			t.Fatalf("file %d: holder sets differ\nprotocol: %v\nanalytic: %v", i, hp, ha)
		}
		want := map[int]bool{}
		for _, ref := range pa.KClosest(rp.FileID.Key(), k) {
			want[pa.IndexByID(ref.ID)] = true
		}
		for _, h := range ha {
			if !want[h] {
				t.Fatalf("file %d: node %d holds a replica but is not among the %d numerically closest", i, h, k)
			}
		}
		if len(ha) != k {
			t.Fatalf("file %d: %d replicas, want %d", i, len(ha), k)
		}
	}
}
