package past_test

import (
	"fmt"
	"slices"
	"testing"

	"past/internal/id"
	"past/internal/past"
	"past/internal/seccrypt"
	"past/internal/wire"
)

// TestForgedReceiptDroppedOnArrival puts a Mischief.ForgeReceipts node in
// an insert's replica set and holds every store receipt back from the
// client, then hands them over in a chosen order: the forged one first.
// The client must count it on arrival — before the k-th receipt — and
// must not let it take the forger's slot: the forger's genuinely signed
// receipt, handed over next, counts, and the insert completes exactly
// when the k-th valid receipt is in. A second insert through the same
// forger gets no such help and must divert.
func TestForgedReceiptDroppedOnArrival(t *testing.T) {
	const n, k = 24, 3
	pc := buildPAST(t, n, 150, defaultCfg(), nil)
	data := []byte("a file one of whose holders forges its receipt")
	salt := []byte("arrival")

	replicaSet := func(name string, card *seccrypt.Smartcard, salt []byte) []wire.NodeRef {
		return pc.KClosest(id.HashFile(name, card.PublicKey(), salt).Key(), k)
	}
	holds := func(set []wire.NodeRef, node id.Node) bool {
		return slices.ContainsFunc(set, func(ref wire.NodeRef) bool { return ref.ID == node })
	}

	// The client is a node outside the replica set, so every receipt
	// reaches it over the network.
	c := 0
	for holds(replicaSet("forged.bin", pc.Card(c), salt), pc.Nodes[c].ID()) {
		c++
	}
	card := pc.Card(c)
	set := replicaSet("forged.bin", card, salt)
	client, clientAddr := pc.Node(c), pc.Nodes[c].Ref().Addr
	forger := pc.IndexByID(set[0].ID)
	forgerRef := pc.Nodes[forger].Ref()
	pc.Node(forger).SetMischief(past.Mischief{ForgeReceipts: true})

	held := map[id.Node]wire.StoreReceipt{}
	for _, ref := range set {
		pc.Eps[pc.IndexByID(ref.ID)].SetSendFilter(func(to string, m wire.Msg) bool {
			r, ok := m.(wire.StoreReceipt)
			if ok && to == clientAddr {
				held[r.StoredBy.ID] = r
			}
			return ok && to == clientAddr
		})
	}
	dropped := func() int { return client.Stats().ForgedReceiptsDropped }

	var res *past.InsertResult
	client.InsertSalted(card, "forged.bin", data, k, salt, func(r past.InsertResult) { res = &r })
	if !pc.Await(func() bool { return len(held) == k }) {
		t.Fatalf("only %d of %d holders sent a receipt", len(held), k)
	}
	forged := held[forgerRef.ID]
	genuine := forged
	pc.Card(forger).SignStoreReceipt(&genuine)
	order := []wire.StoreReceipt{forged, genuine, held[set[1].ID], held[set[2].ID]}
	for i, r := range order {
		if res != nil {
			t.Fatalf("insert ended after %d of %d receipts: %v", i, len(order), res.Err)
		}
		client.HandleDirect(r.StoredBy, r)
		if i == 0 && dropped() != 1 {
			t.Fatalf("the forged receipt, first of %d, was counted %d times on arrival; want 1", k+1, dropped())
		}
	}
	if res == nil || res.Err != nil || res.Retries != 0 {
		t.Fatalf("insert with the forger's genuine receipt: %+v; want success on the first attempt", res)
	}
	checkReceipts(t, res, k)
	if !holds(receiptSigners(res), forgerRef.ID) {
		t.Fatal("the forger's genuine receipt was refused: its forged receipt held the slot")
	}
	if got := dropped(); got != 1 {
		t.Fatalf("%d receipts dropped, want 1", got)
	}
	for _, ref := range set {
		pc.Eps[pc.IndexByID(ref.ID)].SetSendFilter(nil)
	}

	// Left alone, an attempt through the forger gets k-1 valid receipts
	// and must divert to another fileId.
	var salt2 []byte
	for i := 0; salt2 == nil; i++ {
		s := []byte(fmt.Sprintf("divert-%d", i))
		if set := replicaSet("divert.bin", card, s); holds(set, forgerRef.ID) && !holds(set, pc.Nodes[c].ID()) {
			salt2 = s
		}
	}
	res = nil
	client.InsertSalted(card, "divert.bin", data, k, salt2, func(r past.InsertResult) { res = &r })
	if !pc.Await(func() bool { return res != nil }) {
		t.Fatal("diverted insert never finished")
	}
	if res.Err != nil || res.Retries == 0 {
		t.Fatalf("insert through the forger: %v after %d retries; want success after a diversion", res.Err, res.Retries)
	}
	checkReceipts(t, res, k)
	if holds(receiptSigners(res), forgerRef.ID) {
		t.Fatal("a receipt from the forger counted toward k")
	}
	if got := dropped(); got < 2 {
		t.Fatalf("%d receipts dropped after the diverted insert, want at least 2", got)
	}
}

// checkReceipts asserts res holds k receipts from k distinct nodes, each
// of which verifies.
func checkReceipts(t *testing.T, res *past.InsertResult, k int) {
	t.Helper()
	if len(res.Receipts) != k {
		t.Fatalf("%d receipts, want %d", len(res.Receipts), k)
	}
	seen := map[id.Node]bool{}
	for _, r := range res.Receipts {
		if err := seccrypt.VerifyStoreReceipt(&r); err != nil || seen[r.StoredBy.ID] {
			t.Fatalf("receipt from %s: %v (duplicate %v)", r.StoredBy.ID.Short(), err, seen[r.StoredBy.ID])
		}
		seen[r.StoredBy.ID] = true
	}
}

// receiptSigners lists the nodes res holds receipts from.
func receiptSigners(res *past.InsertResult) []wire.NodeRef {
	var refs []wire.NodeRef
	for _, r := range res.Receipts {
		refs = append(refs, r.StoredBy)
	}
	return refs
}
