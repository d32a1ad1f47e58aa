package wire

import (
	"testing"

	"past/internal/id"
)

// allMsgs is the one table of every message type in the package; the
// codec tests, the benchmark seeds and the fuzz corpus all start from it,
// and TestTableIsComplete fails when a type with a Kind method is missing.
var allMsgs = []Msg{
	Routed{}, JoinRequest{}, RouteRows{}, LeafSetReply{}, LeafSetRequest{},
	NeighborhoodReply{}, Announce{}, Heartbeat{}, Ping{}, Pong{},
	RTRepairRequest{}, RTRepairReply{}, FileCertificate{}, ReclaimCertificate{},
	InsertRequest{}, ReplicaStore{}, StoreReceipt{}, InsertReject{}, DivertReject{},
	LookupRequest{}, LookupReply{}, LookupMiss{}, LookupAbort{},
	ReclaimRequest{}, ReclaimForward{}, ReclaimReceipt{}, Replicate{},
	SyncOffer{}, SyncRequest{}, Depart{}, CacheCopy{}, FetchRequest{},
	AuditChallenge{}, AuditResponse{},
}

func TestNodeRef(t *testing.T) {
	var zero NodeRef
	if !zero.IsZero() {
		t.Fatal("zero ref not zero")
	}
	r := NodeRef{ID: id.Rand(1), Addr: "sim:3"}
	if r.IsZero() {
		t.Fatal("populated ref reported zero")
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestKindsAreUniqueAndStable(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range allMsgs {
		k := m.Kind()
		if k == "" {
			t.Fatalf("%T has empty Kind", m)
		}
		if seen[k] {
			t.Fatalf("duplicate kind %q", k)
		}
		seen[k] = true
	}
}
