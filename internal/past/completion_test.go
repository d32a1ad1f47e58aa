package past

import (
	"errors"
	"sync"
	"testing"

	"past/internal/id"
	"past/internal/pastry"
	"past/internal/seccrypt"
	"past/internal/simnet"
	"past/internal/wire"
)

const completionQuota = 1 << 30

// clientWithInsert builds a lone client node with file diversion off and
// an insert attempt pending under reqID 1 for k receipts, whose result
// cb receives. corrupt, when set, runs on the certificate before the
// attempt is recorded. It returns the node, the owner's card and k
// signed receipts from k distinct storage nodes.
func clientWithInsert(t *testing.T, k int, corrupt func(*wire.FileCertificate), cb func(InsertResult)) (*Node, *seccrypt.Smartcard, []wire.StoreReceipt) {
	t.Helper()
	broker, err := seccrypt.NewBroker(seccrypt.DetRand(1))
	if err != nil {
		t.Fatal(err)
	}
	owner, err := broker.IssueCard(completionQuota, 0, 0, seccrypt.DetRand(2))
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{}, nil)
	pn := pastry.New(pastry.DefaultConfig(), owner.NodeID(), net.NewEndpoint(), net.Clock(), nil)
	cfg := DefaultConfig()
	cfg.FileDiversion = false
	n := NewNode(cfg, pn, owner, broker.PublicKey())
	pn.Bootstrap()

	cert, err := owner.IssueFileCertificate("completion", []byte("completion probe body"), k, []byte{7}, n.nowUnix())
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != nil {
		corrupt(&cert)
	}
	const reqID = 1
	n.pending[reqID] = &pendingOp{kind: opInsert, card: owner, cert: cert, k: k, seen: map[id.Node]bool{}, insertCB: cb}
	var rcpts []wire.StoreReceipt
	for i := 0; i < k; i++ {
		node, err := broker.IssueCard(0, 1<<20, 0, seccrypt.DetRand(uint64(3+i)))
		if err != nil {
			t.Fatal(err)
		}
		r := wire.StoreReceipt{FileID: cert.FileID, StoredBy: wire.NodeRef{ID: node.NodeID()}, Size: cert.Size, ReqID: reqID}
		node.SignStoreReceipt(&r)
		rcpts = append(rcpts, r)
	}
	return n, owner, rcpts
}

// TestFlushVerifRejectsBadCertificate pins the completion check: when the
// insert's own certificate signature is invalid, k receipts that are
// bound and validly signed must still end the attempt in ErrRejected —
// never in success with an unverifiable certificate — without blaming
// the receipts, and with the quota refunded.
func TestFlushVerifRejectsBadCertificate(t *testing.T) {
	var res *InsertResult
	n, owner, rcpts := clientWithInsert(t, 2, func(c *wire.FileCertificate) {
		c.Sig[5] ^= 0xff // defective card: signature does not verify
	}, func(r InsertResult) { res = &r })
	for i, r := range rcpts {
		if res != nil {
			t.Fatalf("attempt ended after %d of %d receipts: %v", i, len(rcpts), res.Err)
		}
		n.HandleDirect(r.StoredBy, r)
	}
	if res == nil || !errors.Is(res.Err, ErrRejected) {
		t.Fatalf("k valid receipts under a corrupted certificate: result %+v, want ErrRejected", res)
	}
	if got := n.Stats().ForgedReceiptsDropped; got != 0 {
		t.Fatalf("%d receipts blamed for the certificate", got)
	}
	if got := owner.RemainingQuota(); got != completionQuota {
		t.Fatalf("quota %d after the rejected attempt, want %d refunded", got, completionQuota)
	}
}

// TestReceiptsVerifiedConcurrently delivers every holder's receipt twice,
// all at once, after one forgery: the signature checks run outside the
// node lock, and the insert must still complete exactly once, on k
// distinct receipts, with the forgery counted once.
func TestReceiptsVerifiedConcurrently(t *testing.T) {
	const k = 5
	results := make(chan InsertResult, 2)
	n, _, rcpts := clientWithInsert(t, k, nil, func(r InsertResult) { results <- r })
	forged := rcpts[0]
	forged.Sig = append([]byte(nil), forged.Sig...)
	forged.Sig[0] ^= 0x80
	n.HandleDirect(forged.StoredBy, forged)

	var wg sync.WaitGroup
	for _, r := range append(rcpts, rcpts...) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.HandleDirect(r.StoredBy, r)
		}()
	}
	wg.Wait()
	if len(results) != 1 {
		t.Fatalf("insert completed %d times, want once", len(results))
	}
	res := <-results
	seen := map[id.Node]bool{}
	for _, r := range res.Receipts {
		seen[r.StoredBy.ID] = true
	}
	if res.Err != nil || len(res.Receipts) != k || len(seen) != k {
		t.Fatalf("result %v with %d receipts from %d nodes, want success on %d distinct", res.Err, len(res.Receipts), len(seen), k)
	}
	if got := n.Stats().ForgedReceiptsDropped; got != 1 {
		t.Fatalf("%d receipts dropped, want the one forgery", got)
	}
}
