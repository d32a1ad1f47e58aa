package seccrypt

// Deferred verification queue.
//
// The insert path accumulates signature checks whose verdicts are not
// needed until the operation completes: the client collects k store
// receipts and only acts once all k are in hand. A Deferred queue holds
// those checks (certificate + k receipts, per the insert protocol) and
// resolves them in ONE cofactored batch at flush time, feeding every
// verdict back through the process-wide verification memo so later
// re-checks of the same signature — at other replicas, on retries, in
// audits — are cache hits exactly as if each had been verified
// individually.
//
// Verdict semantics: a deferred check resolves to the same boolean
// ed25519.Verify would produce for every input the memo handles
// (canonical sizes), except that a batch whose equation holds accepts
// its members under the cofactored relation (a strict superset that
// coincides for honestly generated signatures; see batch.go). On batch
// failure each member is re-verified individually with the stdlib
// equation, so forged members are identified exactly and their negative
// verdicts are bit-compatible with ed25519.Verify. Non-canonical sizes
// (truncated keys or signatures) resolve to false immediately, without
// the panic ed25519.Verify reserves for wrong public-key sizes.

import (
	"crypto/ed25519"
	"crypto/sha256"
	"sync"

	"past/internal/edwards25519"
	"past/internal/wire"
)

// deferredItem is one queued signature check.
type deferredItem struct {
	pub      [ed25519.PublicKeySize]byte
	sig      [ed25519.SignatureSize]byte
	off, ln  int // body bytes within the queue's buffer
	key      memoKey
	resolved bool
	ok       bool
}

// Deferred collects signature checks and resolves them in one batch.
// The zero value is ready to use; NewDeferred draws from a pool to keep
// the hot path allocation-free. A Deferred is not safe for concurrent
// use (PAST nodes use one per pending client operation, under the
// node's lock).
type Deferred struct {
	items []deferredItem
	buf   []byte // concatenated body bytes
}

var deferredPool = sync.Pool{New: func() interface{} { return &Deferred{} }}

// NewDeferred returns an empty queue from the pool.
func NewDeferred() *Deferred {
	return deferredPool.Get().(*Deferred)
}

// Release resets the queue and returns it to the pool. The caller must
// not touch it afterwards.
func (d *Deferred) Release() {
	d.items = d.items[:0]
	d.buf = d.buf[:0]
	deferredPool.Put(d)
}

// Defer enqueues the check "sig is a valid signature by pub over the
// body build serializes" and returns its slot index for Ok. The memo is
// probed immediately, so repeat signatures resolve without joining the
// batch; malformed sizes resolve to false on the spot.
func (d *Deferred) Defer(pub, sig []byte, build func(buf []byte) []byte) int {
	i := len(d.items)
	d.items = append(d.items, deferredItem{})
	it := &d.items[i]
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		it.resolved, it.ok = true, false
		return i
	}
	copy(it.pub[:], pub)
	copy(it.sig[:], sig)
	it.off = len(d.buf)
	d.buf = build(d.buf)
	it.ln = len(d.buf) - it.off

	// Memo probe: the digest commits to pub ‖ sig ‖ body, exactly as
	// memoVerify computes it.
	kb := getBody()
	mat := append((*kb)[:0], pub...)
	mat = append(mat, sig...)
	mat = append(mat, d.buf[it.off:it.off+it.ln]...)
	it.key = memoKey(sha256.Sum256(mat))
	*kb = mat
	putBody(kb)
	if ok, found := memoLookup(it.key); found {
		it.resolved, it.ok = true, ok
	}
	return i
}

// DeferFileCertificate enqueues the certificate's owner signature.
func (d *Deferred) DeferFileCertificate(c *wire.FileCertificate) int {
	return d.Defer(c.OwnerPub, c.Sig, func(buf []byte) []byte {
		return appendFileCertBody(buf, c)
	})
}

// DeferStoreReceipt enqueues the receipt's node signature. Callers must
// separately check the signer binding (VerifyStoreReceiptBinding).
func (d *Deferred) DeferStoreReceipt(r *wire.StoreReceipt) int {
	return d.Defer(r.NodePub, r.Sig, func(buf []byte) []byte {
		return appendStoreReceiptBody(buf, r)
	})
}

// Ok returns slot i's verdict. It is only meaningful after Flush (or
// for slots that resolved at Defer time).
func (d *Deferred) Ok(i int) bool { return d.items[i].ok }

// Flush resolves every queued check: pending items are parsed and run
// through one cofactored batch equation; if it fails (or a member is
// malformed) items are verified individually, identifying the culprit.
// All verdicts are stored in the verification memo. Flush reports
// whether ALL queued checks passed.
func (d *Deferred) Flush() bool {
	sc := batchPool.Get().(*batchScratch)
	if cap(sc.items) < len(d.items) {
		sc.items = make([]batchItem, 0, len(d.items))
	}
	sc.items = sc.items[:0]
	// pending maps batch slots back to queue slots.
	var pendingArr [8]int
	pending := pendingArr[:0]

	for i := range d.items {
		it := &d.items[i]
		if it.resolved {
			continue
		}
		// Re-probe the memo: another node may have verified this very
		// signature between Defer and Flush (the root checks the file
		// certificate while the client is still collecting receipts).
		if ok, found := memoLookup(it.key); found {
			it.resolved, it.ok = true, ok
			continue
		}
		body := d.buf[it.off : it.off+it.ln]
		if !d.parseInto(sc, it, body) {
			// Unparseable signature or key: the stdlib equation can
			// still accept encodings the batch path cannot represent
			// identically, so resolve it individually.
			it.resolved = true
			it.ok = verifySingle(it.pub[:], body, it.sig[:])
			memoStore(it.key, it.ok)
			continue
		}
		pending = append(pending, i)
	}

	switch {
	case len(pending) == 0:
		// Nothing left for the batch.
	case len(pending) == 1 || !verifyBatch(sc):
		// A 1-batch saves nothing over a single check; a failed batch
		// means at least one member is forged — find out which.
		for _, i := range pending {
			it := &d.items[i]
			it.resolved = true
			it.ok = verifySingle(it.pub[:], d.buf[it.off:it.off+it.ln], it.sig[:])
			memoStore(it.key, it.ok)
		}
	default:
		for _, i := range pending {
			it := &d.items[i]
			it.resolved, it.ok = true, true
			memoStore(it.key, true)
		}
	}
	batchPool.Put(sc)

	all := true
	for i := range d.items {
		all = all && d.items[i].ok
	}
	return all
}

// parseInto parses one queued item into batch form: cached public key,
// canonical s, decompressed −R and its table, and the k = H(R‖A‖M)
// scalar. It reports false when any component cannot join the batch.
func (d *Deferred) parseInto(sc *batchScratch, it *deferredItem, body []byte) bool {
	key := cachedPubKey(it.pub[:])
	if key == nil {
		return false
	}
	sc.items = append(sc.items, batchItem{})
	b := &sc.items[len(sc.items)-1]
	b.key = key
	if _, err := b.s.SetCanonicalBytes(it.sig[32:]); err != nil {
		sc.items = sc.items[:len(sc.items)-1]
		return false
	}
	var R edwards25519.Point
	if _, err := R.SetBytes(it.sig[:32]); err != nil {
		sc.items = sc.items[:len(sc.items)-1]
		return false
	}
	b.minusR.Negate(&R)
	b.rTable.Init(&b.minusR)
	hramScalar(&b.k, it.sig[:32], it.pub[:], body)
	return true
}
