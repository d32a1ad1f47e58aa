// Package seccrypt implements PAST's security substrate (section 2.1 of
// the paper): Ed25519 key pairs, brokers that certify smartcards,
// smartcards that generate nodeIds, file certificates, reclaim
// certificates and receipts, and the storage-quota ledger the smartcards
// maintain.
//
// A Smartcard here is an in-process struct holding a private key and a
// quota ledger whose exported API is exactly the narrow operation set the
// paper assigns to the tamper-resistant card: issue file certificates
// (debiting quota), issue reclaim certificates, verify receipts (crediting
// quota), and report the node's contributed storage. See ARCHITECTURE.md for
// the substitution rationale.
package seccrypt

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"past/internal/edwards25519"
	"past/internal/id"
	"past/internal/wire"
)

// Errors returned by certificate and quota operations.
var (
	ErrQuotaExceeded   = errors.New("seccrypt: storage quota exceeded")
	ErrBadSignature    = errors.New("seccrypt: bad signature")
	ErrBadCardCert     = errors.New("seccrypt: smartcard not certified by broker")
	ErrWrongOwner      = errors.New("seccrypt: certificate owner mismatch")
	ErrContentMismatch = errors.New("seccrypt: content hash mismatch")
	ErrBadFileID       = errors.New("seccrypt: fileId does not match certificate fields")
	ErrExpired         = errors.New("seccrypt: smartcard expired")
)

// Broker is the third party of section 1 that issues smartcards and
// balances storage supply and demand. Its knowledge is limited to the
// cards it has circulated, their quotas and expiration dates.
type Broker struct {
	pub ed25519.PublicKey
	key *edwards25519.SigningKey

	mu          sync.Mutex
	issued      int
	quotaTotal  int64
	supplyTotal int64
}

// NewBroker creates a broker with a fresh key pair. rng may be nil, in
// which case crypto/rand is used; experiments pass a deterministic reader.
func NewBroker(rng io.Reader) (*Broker, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("seccrypt: broker keygen: %w", err)
	}
	return &Broker{pub: pub, key: signingKey(priv)}, nil
}

// signingKey expands priv once for all the signatures its holder makes.
func signingKey(priv ed25519.PrivateKey) *edwards25519.SigningKey {
	return edwards25519.NewSigningKey((*[ed25519.PrivateKeySize]byte)(priv))
}

// PublicKey returns the broker's certification key. Every node in a PAST
// network is configured with the broker keys it trusts.
func (b *Broker) PublicKey() ed25519.PublicKey { return b.pub }

// CardsIssued returns the number of smartcards the broker has circulated.
func (b *Broker) CardsIssued() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.issued
}

// Balance returns the total usage quota issued and the total storage
// contribution pledged across all cards, which the broker uses to keep
// supply and demand in balance (section 2.1, "System integrity").
func (b *Broker) Balance() (demand, supply int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.quotaTotal, b.supplyTotal
}

// IssueCard creates a smartcard with the given usage quota (bytes the user
// may consume, multiplied out by replication) and contribution (bytes the
// associated node offers to the system; zero for pure clients).
// expiresUnix of zero means no expiry.
func (b *Broker) IssueCard(quota, contribution int64, expiresUnix int64, rng io.Reader) (*Smartcard, error) {
	if quota < 0 || contribution < 0 {
		return nil, fmt.Errorf("seccrypt: negative quota or contribution")
	}
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("seccrypt: card keygen: %w", err)
	}
	cert := b.signCard(pub, expiresUnix)
	b.mu.Lock()
	b.issued++
	b.quotaTotal += quota
	b.supplyTotal += contribution
	b.mu.Unlock()
	return &Smartcard{
		pub:          pub,
		priv:         priv,
		key:          signingKey(priv),
		cardCert:     cert,
		expires:      expiresUnix,
		quota:        quota,
		contribution: contribution,
		brokerPub:    b.pub,
	}, nil
}

// appendCardCertBody serializes the byte string the broker signs — card
// public key plus expiry — into buf, which may come from bodyPool.
func appendCardCertBody(buf []byte, pub ed25519.PublicKey, expiresUnix int64) []byte {
	buf = append(buf, pub...)
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(expiresUnix))
	return append(buf, e[:]...)
}

func cardCertBody(pub ed25519.PublicKey, expiresUnix int64) []byte {
	return appendCardCertBody(make([]byte, 0, len(pub)+8), pub, expiresUnix)
}

func (b *Broker) signCard(pub ed25519.PublicKey, expiresUnix int64) []byte {
	sig := b.key.Sign(cardCertBody(pub, expiresUnix))
	// A card certificate is expiry ‖ signature so verifiers can reproduce
	// the signed body from the card's public key.
	cert := make([]byte, 8+len(sig))
	binary.BigEndian.PutUint64(cert[:8], uint64(expiresUnix))
	copy(cert[8:], sig)
	return cert
}

// VerifyCardCert checks that cardCert certifies pub under brokerPub and
// that the card has not expired at nowUnix.
func VerifyCardCert(brokerPub ed25519.PublicKey, pub, cardCert []byte, nowUnix int64) error {
	if len(cardCert) < 8+ed25519.SignatureSize {
		return ErrBadCardCert
	}
	expires := int64(binary.BigEndian.Uint64(cardCert[:8]))
	if !verifyBody(brokerPub, cardCert[8:], func(buf []byte) []byte {
		return appendCardCertBody(buf, pub, expires)
	}) {
		return ErrBadCardCert
	}
	if expires != 0 && nowUnix > expires {
		return ErrExpired
	}
	return nil
}

// ---------------------------------------------------------------------------
// Smartcard

// Smartcard models the per-user/per-node tamper-resistant card. All
// signing happens "inside" the card; the private key never leaves it
// except through Export.
type Smartcard struct {
	pub          ed25519.PublicKey
	priv         ed25519.PrivateKey // kept for Export only; key signs
	key          *edwards25519.SigningKey
	cardCert     []byte
	expires      int64
	brokerPub    ed25519.PublicKey
	contribution int64

	mu    sync.Mutex
	quota int64 // remaining usable quota in bytes (already × replication)
}

// PublicKey returns the card's public key; the user's pseudonym.
func (c *Smartcard) PublicKey() ed25519.PublicKey { return c.pub }

// CardCert returns the broker's certification of this card.
func (c *Smartcard) CardCert() []byte { return c.cardCert }

// NodeID derives the card's node identifier from a cryptographic hash of
// its public key (section 2.1, "Generation of nodeIds").
func (c *Smartcard) NodeID() id.Node { return id.HashNode(c.pub) }

// Contribution returns the storage the associated node pledged to offer.
func (c *Smartcard) Contribution() int64 { return c.contribution }

// RemainingQuota returns the unspent usage quota in bytes.
func (c *Smartcard) RemainingQuota() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quota
}

// appendFileCertBody serializes the signed portion of a file certificate
// into buf, which may come from bodyPool.
func appendFileCertBody(buf []byte, c *wire.FileCertificate) []byte {
	buf = append(buf, c.FileID[:]...)
	buf = append(buf, c.ContentHash[:]...)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(c.Size))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(c.Replicas))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(c.Issued))
	buf = append(buf, tmp[:]...)
	buf = append(buf, byte(len(c.Salt)))
	buf = append(buf, c.Salt...)
	buf = append(buf, c.OwnerPub...)
	return buf
}

// IssueFileCertificate generates the certificate required before inserting
// a file (section 2.1, "Generation of file certificates"). The card
// computes the fileId from the file's textual name, the owner's public key
// and the salt, debits quota by size × replicas, and signs. The caller
// supplies the content hash, as in the paper ("computed by the client
// node").
func (c *Smartcard) IssueFileCertificate(name string, content []byte, replicas int, salt []byte, nowUnix int64) (wire.FileCertificate, error) {
	var cert wire.FileCertificate
	if replicas <= 0 {
		return cert, fmt.Errorf("seccrypt: replicas must be positive, got %d", replicas)
	}
	if c.expires != 0 && nowUnix > c.expires {
		return cert, ErrExpired
	}
	need := int64(len(content)) * int64(replicas)
	c.mu.Lock()
	if c.quota < need {
		c.mu.Unlock()
		return cert, fmt.Errorf("%w: need %d, have %d", ErrQuotaExceeded, need, c.quota)
	}
	c.quota -= need
	c.mu.Unlock()

	cert = wire.FileCertificate{
		FileID:      id.HashFile(name, c.pub, salt),
		ContentHash: ContentHash(content),
		Size:        int64(len(content)),
		Replicas:    replicas,
		Salt:        append([]byte(nil), salt...),
		Issued:      nowUnix,
		OwnerPub:    append([]byte(nil), c.pub...),
		CardCert:    c.cardCert,
	}
	bp := getBody()
	body := appendFileCertBody((*bp)[:0], &cert)
	cert.Sig = c.key.Sign(body)
	*bp = body
	putBody(bp)
	return cert, nil
}

// RefundFileCertificate credits back the quota debited for a certificate
// whose insertion was rejected by the network (file diversion may exhaust
// its retries; the user must not lose quota for storage never consumed).
func (c *Smartcard) RefundFileCertificate(cert *wire.FileCertificate) {
	c.mu.Lock()
	c.quota += cert.Size * int64(cert.Replicas)
	c.mu.Unlock()
}

// appendReclaimCertBody serializes the signed portion of a reclaim
// certificate into buf, which may come from bodyPool.
func appendReclaimCertBody(buf []byte, c *wire.ReclaimCertificate) []byte {
	buf = append(buf, c.FileID[:]...)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(c.Issued))
	buf = append(buf, tmp[:]...)
	buf = append(buf, c.OwnerPub...)
	return buf
}

func reclaimCertBody(c *wire.ReclaimCertificate) []byte {
	return appendReclaimCertBody(make([]byte, 0, 64+len(c.OwnerPub)), c)
}

// IssueReclaimCertificate authorizes reclaiming the storage of fileID
// (section 2.1, "Generation of reclaim certificates").
func (c *Smartcard) IssueReclaimCertificate(fileID id.File, nowUnix int64) (wire.ReclaimCertificate, error) {
	if c.expires != 0 && nowUnix > c.expires {
		return wire.ReclaimCertificate{}, ErrExpired
	}
	cert := wire.ReclaimCertificate{
		FileID:   fileID,
		Issued:   nowUnix,
		OwnerPub: append([]byte(nil), c.pub...),
		CardCert: c.cardCert,
	}
	cert.Sig = c.key.Sign(reclaimCertBody(&cert))
	return cert, nil
}

// CreditReclaimReceipt verifies a storage node's reclaim receipt and
// credits the freed amount against the user's quota (section 2.1,
// "Storage quotas"). The receipt must be signed by the storage node's
// certified card.
func (c *Smartcard) CreditReclaimReceipt(r *wire.ReclaimReceipt, nowUnix int64) error {
	if err := VerifyReclaimReceipt(c.brokerPub, r, nowUnix); err != nil {
		return err
	}
	c.mu.Lock()
	c.quota += r.Freed
	c.mu.Unlock()
	return nil
}

// SignStoreReceipt makes this (storage node's) card issue a store receipt
// for a file it has stored (section 2.1: "Each storage node that has
// successfully stored a copy of the file then issues and returns a store
// receipt").
func (c *Smartcard) SignStoreReceipt(r *wire.StoreReceipt) {
	r.NodePub = append([]byte(nil), c.pub...)
	r.Sig = c.key.Sign(storeReceiptBody(r))
}

// appendStoreReceiptBody serializes the signed portion of a store receipt
// into buf, which may come from bodyPool.
func appendStoreReceiptBody(buf []byte, r *wire.StoreReceipt) []byte {
	buf = append(buf, r.FileID[:]...)
	buf = append(buf, r.StoredBy.ID[:]...)
	buf = append(buf, r.OnBehalfOf.ID[:]...)
	if r.Diverted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(r.Size))
	buf = append(buf, tmp[:]...)
	return buf
}

func storeReceiptBody(r *wire.StoreReceipt) []byte {
	return appendStoreReceiptBody(make([]byte, 0, 96), r)
}

// VerifyStoreReceipt checks a store receipt's signature and that the
// signing card's nodeId matches the node that claims to have stored.
func VerifyStoreReceipt(r *wire.StoreReceipt) error {
	if err := VerifyStoreReceiptBinding(r); err != nil {
		return err
	}
	if !verifyBody(ed25519.PublicKey(r.NodePub), r.Sig, func(buf []byte) []byte {
		return appendStoreReceiptBody(buf, r)
	}) {
		return ErrBadSignature
	}
	return nil
}

// VerifyStoreReceiptBinding performs the non-cryptographic half of
// VerifyStoreReceipt: the signing key has canonical size and its hash
// matches the node that claims to have stored. A PAST client runs it
// under its node lock and the signature check after releasing it.
func VerifyStoreReceiptBinding(r *wire.StoreReceipt) error {
	if len(r.NodePub) != ed25519.PublicKeySize {
		return ErrBadSignature
	}
	if id.HashNode(r.NodePub) != r.StoredBy.ID {
		return fmt.Errorf("%w: receipt signer is not the storing node", ErrBadSignature)
	}
	return nil
}

// SignReclaimReceipt makes this (storage node's) card issue a reclaim
// receipt for storage it freed.
func (c *Smartcard) SignReclaimReceipt(r *wire.ReclaimReceipt) {
	r.NodePub = append([]byte(nil), c.pub...)
	r.Sig = c.key.Sign(reclaimReceiptBody(r))
}

// appendReclaimReceiptBody serializes the signed portion of a reclaim
// receipt into buf, which may come from bodyPool.
func appendReclaimReceiptBody(buf []byte, r *wire.ReclaimReceipt) []byte {
	buf = append(buf, r.FileID[:]...)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(r.Freed))
	buf = append(buf, tmp[:]...)
	buf = append(buf, r.By.ID[:]...)
	return buf
}

func reclaimReceiptBody(r *wire.ReclaimReceipt) []byte {
	return appendReclaimReceiptBody(make([]byte, 0, 64), r)
}

// VerifyReclaimReceipt checks a reclaim receipt's signature.
func VerifyReclaimReceipt(brokerPub ed25519.PublicKey, r *wire.ReclaimReceipt, nowUnix int64) error {
	if len(r.NodePub) != ed25519.PublicKeySize {
		return ErrBadSignature
	}
	if !verifyBody(ed25519.PublicKey(r.NodePub), r.Sig, func(buf []byte) []byte {
		return appendReclaimReceiptBody(buf, r)
	}) {
		return ErrBadSignature
	}
	if id.HashNode(r.NodePub) != r.By.ID {
		return fmt.Errorf("%w: reclaim receipt signer is not the freeing node", ErrBadSignature)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Verification helpers used by storage nodes and clients

// VerifyFileCertificate performs the checks of section 2.1 that a storing
// node runs on an arriving insert: the owner's card is broker-certified
// and unexpired at nowUnix, and the owner's signature covers the whole
// certificate, its fileId included. That the fileId was derived from the
// name, owner key and salt is NOT proven here — a storage node never
// learns the name; only VerifyFileIDBinding, for owners and auditors,
// checks it. Content is checked separately, by VerifyContent, because
// intermediate nodes hold the certificate without the data.
func VerifyFileCertificate(brokerPub ed25519.PublicKey, cert *wire.FileCertificate, nowUnix int64) error {
	if len(cert.OwnerPub) != ed25519.PublicKeySize {
		return ErrBadSignature
	}
	if err := VerifyCardCert(brokerPub, cert.OwnerPub, cert.CardCert, nowUnix); err != nil {
		return err
	}
	if !verifyBody(ed25519.PublicKey(cert.OwnerPub), cert.Sig, func(buf []byte) []byte {
		return appendFileCertBody(buf, cert)
	}) {
		return ErrBadSignature
	}
	return nil
}

// VerifyContent checks that data matches the certificate's content hash
// and size, detecting en-route corruption by faulty or malicious
// intermediate nodes (section 2.1). The hash is memoized by buffer
// identity (see contentmemo.go): with zero-copy replication the root,
// every replica and every caching node see the same backing buffer, so
// the bytes are hashed once instead of once per hop.
func VerifyContent(cert *wire.FileCertificate, data []byte) error {
	return verifyContentWith(cert, data, ContentHash)
}

// VerifyContentFresh is VerifyContent with the memo bypassed (the bytes
// are rehashed unconditionally). The client-side lookup check uses it:
// it is the integrity verdict handed to the user, so it must reflect
// the bytes as they are NOW, even if a contract-violating caller
// mutated a shared buffer after insert.
func VerifyContentFresh(cert *wire.FileCertificate, data []byte) error {
	return verifyContentWith(cert, data, ContentHashFresh)
}

// VerifyContentOnce is VerifyContent for bytes that are hashed once and
// then dropped — a log record replayed at boot, whose index keeps only
// where it lies — so the memo is neither read nor filled: an entry would
// never be hit, and a replay's worth of them would evict the ones that
// are.
func VerifyContentOnce(cert *wire.FileCertificate, data []byte) error {
	return verifyContentWith(cert, data, sha256.Sum256)
}

func verifyContentWith(cert *wire.FileCertificate, data []byte, h func([]byte) [sha256.Size]byte) error {
	if int64(len(data)) != cert.Size {
		return fmt.Errorf("%w: size %d != certificate size %d", ErrContentMismatch, len(data), cert.Size)
	}
	if h(data) != cert.ContentHash {
		return ErrContentMismatch
	}
	return nil
}

// VerifyFileIDBinding confirms the certificate's fileId was derived from
// the given textual name under the owner's key and salt. Only the owner
// (who knows the name) and auditors use this; storage nodes rely on the
// card having computed the fileId.
func VerifyFileIDBinding(cert *wire.FileCertificate, name string) error {
	if id.HashFile(name, cert.OwnerPub, cert.Salt) != cert.FileID {
		return ErrBadFileID
	}
	return nil
}

// VerifyReclaimAuthorized checks a reclaim certificate against the stored
// file certificate: broker certification, signature, and that the
// reclaimer's key matches the file owner's key ("the smartcard of a
// storage node first verifies that the signature in the reclaim
// certificate matches that in the file certificate", section 2.1).
func VerifyReclaimAuthorized(brokerPub ed25519.PublicKey, rc *wire.ReclaimCertificate, fc *wire.FileCertificate, nowUnix int64) error {
	if len(rc.OwnerPub) != ed25519.PublicKeySize {
		return ErrBadSignature
	}
	if err := VerifyCardCert(brokerPub, rc.OwnerPub, rc.CardCert, nowUnix); err != nil {
		return err
	}
	if !verifyBody(ed25519.PublicKey(rc.OwnerPub), rc.Sig, func(buf []byte) []byte {
		return appendReclaimCertBody(buf, rc)
	}) {
		return ErrBadSignature
	}
	if !bytes.Equal(rc.OwnerPub, fc.OwnerPub) {
		return ErrWrongOwner
	}
	if rc.FileID != fc.FileID {
		return fmt.Errorf("%w: reclaim certificate names a different file", ErrBadFileID)
	}
	return nil
}

// AuditProof computes the proof-of-storage hash for a random audit
// (section 2.1): H(nonce ‖ content). A node that discarded the file cannot
// answer without refetching it, which the auditor can detect by timing or
// by auditing several nodes at once.
func AuditProof(nonce uint64, content []byte) [32]byte {
	h := sha256.New()
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], nonce)
	h.Write(tmp[:])
	h.Write(content)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Export serializes the card (private key, certification, quota state) so
// a user can carry it between sessions — the software analog of the
// physical card changing readers. Guard the bytes like the card itself.
func (c *Smartcard) Export() []byte {
	c.mu.Lock()
	quota := c.quota
	c.mu.Unlock()
	out := make([]byte, 0, 16+len(c.priv)+len(c.cardCert)+len(c.brokerPub))
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(quota))
	out = append(out, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(c.contribution))
	out = append(out, tmp[:]...)
	out = append(out, byte(len(c.priv)))
	out = append(out, c.priv...)
	out = append(out, byte(len(c.cardCert)))
	out = append(out, c.cardCert...)
	out = append(out, c.brokerPub...)
	return out
}

// ImportCard reconstructs a card from Export's output.
func ImportCard(data []byte) (*Smartcard, error) {
	if len(data) < 18 {
		return nil, errors.New("seccrypt: truncated card export")
	}
	quota := int64(binary.BigEndian.Uint64(data[0:8]))
	contribution := int64(binary.BigEndian.Uint64(data[8:16]))
	p := 16
	privLen := int(data[p])
	p++
	if p+privLen > len(data) || privLen != ed25519.PrivateKeySize {
		return nil, errors.New("seccrypt: bad private key in card export")
	}
	// An ed25519 private key is seed ‖ public key. The public half is
	// re-derived, not trusted: a card whose two halves disagree would take
	// its NodeID from one key and sign with the other.
	priv := ed25519.NewKeyFromSeed(data[p : p+ed25519.SeedSize])
	if !bytes.Equal(priv[ed25519.SeedSize:], data[p+ed25519.SeedSize:p+privLen]) {
		return nil, errors.New("seccrypt: card export's public key does not match its private key")
	}
	p += privLen
	if p >= len(data) {
		return nil, errors.New("seccrypt: truncated card export")
	}
	certLen := int(data[p])
	p++
	if p+certLen > len(data) {
		return nil, errors.New("seccrypt: bad certificate in card export")
	}
	cardCert := append([]byte(nil), data[p:p+certLen]...)
	p += certLen
	if len(data)-p != ed25519.PublicKeySize {
		return nil, errors.New("seccrypt: bad broker key in card export")
	}
	brokerPub := ed25519.PublicKey(append([]byte(nil), data[p:]...))
	expires := int64(0)
	if len(cardCert) >= 8 {
		expires = int64(binary.BigEndian.Uint64(cardCert[:8]))
	}
	return &Smartcard{
		pub:          priv.Public().(ed25519.PublicKey),
		priv:         priv,
		key:          signingKey(priv),
		cardCert:     cardCert,
		expires:      expires,
		brokerPub:    brokerPub,
		contribution: contribution,
		quota:        quota,
	}, nil
}

// DetRand returns a deterministic io.Reader for reproducible key
// generation in tests and simulations.
func DetRand(seed uint64) io.Reader { return &detReader{state: seed} }

type detReader struct{ state uint64 }

func (d *detReader) Read(p []byte) (int, error) {
	for i := range p {
		// xorshift64* stream
		d.state ^= d.state >> 12
		d.state ^= d.state << 25
		d.state ^= d.state >> 27
		p[i] = byte((d.state * 2685821657736338717) >> 56)
	}
	return len(p), nil
}
