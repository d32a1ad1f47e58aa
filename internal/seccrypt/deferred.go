package seccrypt

// Deferred is a record of signature checks whose verdicts are read
// after Flush, which resolves them one by one through the memo. The
// production path verifies each check as it arrives (a receipt on
// arrival, a certificate when it is needed); only bench/ still prices
// "a certificate plus k receipts" through this API.

import (
	"crypto/ed25519"

	"past/internal/wire"
)

// deferredItem is one recorded check; its body is buf[start:end].
type deferredItem struct {
	pub, sig   []byte
	start, end int
	ok         bool
}

// Deferred records signature checks and resolves them at Flush. The
// zero value is ready to use. A Deferred is not safe for concurrent use,
// and the recorded keys and signatures must not change before Flush.
type Deferred struct {
	items []deferredItem
	buf   []byte // concatenated bodies
}

// NewDeferred returns an empty record.
func NewDeferred() *Deferred { return &Deferred{} }

// Release empties the record. The caller must not read verdicts
// afterwards.
func (d *Deferred) Release() {
	d.items = d.items[:0]
	d.buf = d.buf[:0]
}

// Defer records the check "sig is a valid signature by pub over the
// body build serializes" and returns its slot index for Ok.
func (d *Deferred) Defer(pub, sig []byte, build func(buf []byte) []byte) int {
	start := len(d.buf)
	d.buf = build(d.buf)
	d.items = append(d.items, deferredItem{pub: pub, sig: sig, start: start, end: len(d.buf)})
	return len(d.items) - 1
}

// DeferFileCertificate records the certificate's owner signature.
func (d *Deferred) DeferFileCertificate(c *wire.FileCertificate) int {
	return d.Defer(c.OwnerPub, c.Sig, func(buf []byte) []byte {
		return appendFileCertBody(buf, c)
	})
}

// DeferStoreReceipt records the receipt's node signature. Callers must
// separately check the signer binding (VerifyStoreReceiptBinding).
func (d *Deferred) DeferStoreReceipt(r *wire.StoreReceipt) int {
	return d.Defer(r.NodePub, r.Sig, func(buf []byte) []byte {
		return appendStoreReceiptBody(buf, r)
	})
}

// Ok returns slot i's verdict. It is only meaningful after Flush.
func (d *Deferred) Ok(i int) bool { return d.items[i].ok }

// Flush resolves every recorded check through the memo, with exactly
// ed25519.Verify's verdicts, and reports whether all of them passed.
// Keys and signatures of the wrong size resolve to false rather than
// to ed25519.Verify's panic.
func (d *Deferred) Flush() bool {
	all := true
	for i := range d.items {
		it := &d.items[i]
		it.ok = len(it.pub) == ed25519.PublicKeySize && len(it.sig) == ed25519.SignatureSize &&
			memoVerify(it.pub, d.buf[it.start:it.end], it.sig)
		all = all && it.ok
	}
	return all
}
