package seccrypt

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"testing"
	"testing/quick"

	"past/internal/id"
	"past/internal/wire"
)

const now = int64(1_000_000)

var brokerSeed uint64 = 1 << 32

func newBroker(t *testing.T) *Broker {
	t.Helper()
	brokerSeed++
	b, err := NewBroker(DetRand(brokerSeed))
	if err != nil {
		t.Fatalf("NewBroker: %v", err)
	}
	return b
}

var cardSeed uint64

func newCard(t *testing.T, b *Broker, quota int64) *Smartcard {
	t.Helper()
	cardSeed++
	c, err := b.IssueCard(quota, 0, 0, DetRand(cardSeed))
	if err != nil {
		t.Fatalf("IssueCard: %v", err)
	}
	return c
}

func TestBrokerAccounting(t *testing.T) {
	b := newBroker(t)
	if _, err := b.IssueCard(1000, 500, 0, DetRand(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.IssueCard(2000, 0, 0, DetRand(3)); err != nil {
		t.Fatal(err)
	}
	if b.CardsIssued() != 2 {
		t.Fatalf("CardsIssued = %d", b.CardsIssued())
	}
	demand, supply := b.Balance()
	if demand != 3000 || supply != 500 {
		t.Fatalf("Balance = %d, %d", demand, supply)
	}
}

func TestBrokerRejectsNegative(t *testing.T) {
	b := newBroker(t)
	if _, err := b.IssueCard(-1, 0, 0, DetRand(1)); err == nil {
		t.Fatal("negative quota accepted")
	}
	if _, err := b.IssueCard(0, -1, 0, DetRand(1)); err == nil {
		t.Fatal("negative contribution accepted")
	}
}

func TestNodeIDFromCard(t *testing.T) {
	b := newBroker(t)
	c := newCard(t, b, 100)
	if c.NodeID() != id.HashNode(c.PublicKey()) {
		t.Fatal("NodeID must be hash of card public key")
	}
	c2 := newCard(t, b, 200)
	if c.NodeID() == c2.NodeID() {
		t.Fatal("distinct cards share a nodeId")
	}
}

func TestCardCertVerifies(t *testing.T) {
	b := newBroker(t)
	c := newCard(t, b, 100)
	if err := VerifyCardCert(b.PublicKey(), c.PublicKey(), c.CardCert(), now); err != nil {
		t.Fatalf("genuine card rejected: %v", err)
	}
	// Wrong broker.
	b2 := newBroker(t)
	if err := VerifyCardCert(b2.PublicKey(), c.PublicKey(), c.CardCert(), now); !errors.Is(err, ErrBadCardCert) {
		t.Fatalf("foreign broker accepted: %v", err)
	}
	// Truncated cert.
	if err := VerifyCardCert(b.PublicKey(), c.PublicKey(), c.CardCert()[:4], now); !errors.Is(err, ErrBadCardCert) {
		t.Fatalf("truncated cert accepted: %v", err)
	}
}

func TestCardExpiry(t *testing.T) {
	b := newBroker(t)
	c, err := b.IssueCard(1000, 0, now-1, DetRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCardCert(b.PublicKey(), c.PublicKey(), c.CardCert(), now); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired card passed verification: %v", err)
	}
	if _, err := c.IssueFileCertificate("f", []byte("x"), 1, []byte{1}, now); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired card issued certificate: %v", err)
	}
	if _, err := c.IssueReclaimCertificate(id.RandFile(1), now); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired card issued reclaim certificate: %v", err)
	}
}

func TestFileCertificateLifecycle(t *testing.T) {
	b := newBroker(t)
	c := newCard(t, b, 10_000)
	content := []byte("the quick brown fox")
	cert, err := c.IssueFileCertificate("report.txt", content, 3, []byte{9, 9}, now)
	if err != nil {
		t.Fatalf("IssueFileCertificate: %v", err)
	}
	if cert.Size != int64(len(content)) || cert.Replicas != 3 {
		t.Fatal("certificate fields wrong")
	}
	// Quota debited by size × replicas.
	want := int64(10_000) - int64(len(content))*3
	if c.RemainingQuota() != want {
		t.Fatalf("quota = %d, want %d", c.RemainingQuota(), want)
	}
	if err := VerifyFileCertificate(b.PublicKey(), &cert, now); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	if err := VerifyContent(&cert, content); err != nil {
		t.Fatalf("content check failed: %v", err)
	}
	if err := VerifyFileIDBinding(&cert, "report.txt"); err != nil {
		t.Fatalf("fileId binding failed: %v", err)
	}
	if err := VerifyFileIDBinding(&cert, "other.txt"); !errors.Is(err, ErrBadFileID) {
		t.Fatal("wrong name accepted")
	}
}

func TestFileCertificateTamperDetected(t *testing.T) {
	b := newBroker(t)
	c := newCard(t, b, 10_000)
	cert, err := c.IssueFileCertificate("f", []byte("data"), 2, []byte{1}, now)
	if err != nil {
		t.Fatal(err)
	}
	// Tampered size.
	bad := cert
	bad.Size = 1
	if err := VerifyFileCertificate(b.PublicKey(), &bad, now); !errors.Is(err, ErrBadSignature) {
		t.Fatal("tampered size accepted")
	}
	// Tampered fileId (the DoS attack of section 2.1: attacker picks a
	// fileId adjacent to a victim node).
	bad = cert
	bad.FileID = id.RandFile(666)
	if err := VerifyFileCertificate(b.PublicKey(), &bad, now); !errors.Is(err, ErrBadSignature) {
		t.Fatal("tampered fileId accepted")
	}
	// Corrupted content en route.
	if err := VerifyContent(&cert, []byte("dat4")); !errors.Is(err, ErrContentMismatch) {
		t.Fatal("corrupted content accepted")
	}
	if err := VerifyContent(&cert, []byte("data!")); !errors.Is(err, ErrContentMismatch) {
		t.Fatal("wrong-size content accepted")
	}
}

func TestQuotaExhaustion(t *testing.T) {
	b := newBroker(t)
	c := newCard(t, b, 100)
	// 40 bytes × 3 replicas = 120 > 100.
	if _, err := c.IssueFileCertificate("f", make([]byte, 40), 3, nil, now); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota insert allowed: %v", err)
	}
	// 30 × 3 = 90 fits.
	cert, err := c.IssueFileCertificate("f", make([]byte, 30), 3, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if c.RemainingQuota() != 10 {
		t.Fatalf("quota = %d", c.RemainingQuota())
	}
	// Refund on rejected insert restores quota.
	c.RefundFileCertificate(&cert)
	if c.RemainingQuota() != 100 {
		t.Fatalf("refund gave %d", c.RemainingQuota())
	}
}

func TestReplicasMustBePositive(t *testing.T) {
	b := newBroker(t)
	c := newCard(t, b, 100)
	if _, err := c.IssueFileCertificate("f", []byte("x"), 0, nil, now); err == nil {
		t.Fatal("zero replicas accepted")
	}
}

func TestReclaimFlow(t *testing.T) {
	b := newBroker(t)
	owner := newCard(t, b, 1000)
	storer := newCard(t, b, 0)
	content := []byte("hello world")
	fc, err := owner.IssueFileCertificate("f", content, 2, []byte{1}, now)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := owner.IssueReclaimCertificate(fc.FileID, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReclaimAuthorized(b.PublicKey(), &rc, &fc, now); err != nil {
		t.Fatalf("owner's reclaim rejected: %v", err)
	}
	// A different user cannot reclaim.
	thief := newCard(t, b, 1000)
	rcBad, err := thief.IssueReclaimCertificate(fc.FileID, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReclaimAuthorized(b.PublicKey(), &rcBad, &fc, now); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("thief reclaim allowed: %v", err)
	}
	// Reclaim certificate for a different file is rejected.
	rcOther, _ := owner.IssueReclaimCertificate(id.RandFile(3), now)
	if err := VerifyReclaimAuthorized(b.PublicKey(), &rcOther, &fc, now); err == nil {
		t.Fatal("reclaim for other file accepted")
	}
	// Storage node frees space and issues receipt; owner credits quota.
	receipt := wire.ReclaimReceipt{
		FileID: fc.FileID,
		Freed:  fc.Size,
		By:     wire.NodeRef{ID: storer.NodeID(), Addr: "sim:0"},
	}
	storer.SignReclaimReceipt(&receipt)
	if err := VerifyReclaimReceipt(b.PublicKey(), &receipt, now); err != nil {
		t.Fatalf("genuine reclaim receipt rejected: %v", err)
	}
	before := owner.RemainingQuota()
	if err := owner.CreditReclaimReceipt(&receipt, now); err != nil {
		t.Fatal(err)
	}
	if owner.RemainingQuota() != before+fc.Size {
		t.Fatal("quota not credited")
	}
}

func TestStoreReceipt(t *testing.T) {
	b := newBroker(t)
	storer := newCard(t, b, 0)
	r := wire.StoreReceipt{
		FileID:   id.RandFile(1),
		StoredBy: wire.NodeRef{ID: storer.NodeID(), Addr: "sim:5"},
		Size:     128,
	}
	storer.SignStoreReceipt(&r)
	if err := VerifyStoreReceipt(&r); err != nil {
		t.Fatalf("genuine receipt rejected: %v", err)
	}
	// Forged StoredBy: signer's nodeId must match.
	r2 := r
	r2.StoredBy = wire.NodeRef{ID: id.Rand(99), Addr: "sim:6"}
	storer.SignStoreReceipt(&r2)
	if err := VerifyStoreReceipt(&r2); err == nil {
		t.Fatal("receipt claiming foreign nodeId accepted")
	}
	// Tampered size.
	r3 := r
	r3.Size = 4096
	if err := VerifyStoreReceipt(&r3); !errors.Is(err, ErrBadSignature) {
		t.Fatal("tampered receipt accepted")
	}
	// Diverted flag is covered by the signature.
	r4 := r
	r4.Diverted = true
	if err := VerifyStoreReceipt(&r4); !errors.Is(err, ErrBadSignature) {
		t.Fatal("flipped diverted flag accepted")
	}
}

func TestAuditProof(t *testing.T) {
	content := []byte("stored bytes")
	p1 := AuditProof(1, content)
	p2 := AuditProof(1, content)
	p3 := AuditProof(2, content)
	p4 := AuditProof(1, []byte("other bytes!"))
	if p1 != p2 {
		t.Fatal("proof not deterministic")
	}
	if p1 == p3 {
		t.Fatal("nonce ignored")
	}
	if p1 == p4 {
		t.Fatal("content ignored")
	}
}

func TestDetRandDeterministic(t *testing.T) {
	a := make([]byte, 32)
	b := make([]byte, 32)
	DetRand(5).Read(a)
	DetRand(5).Read(b)
	if string(a) != string(b) {
		t.Fatal("DetRand not deterministic")
	}
	DetRand(6).Read(b)
	if string(a) == string(b) {
		t.Fatal("DetRand seeds collide")
	}
}

func TestQuickQuotaNeverNegative(t *testing.T) {
	// Property: no interleaving of issue/refund can drive quota negative,
	// and refunds never exceed what was debited.
	b := newBroker(t)
	f := func(sizes []uint16, replicas uint8) bool {
		card, err := b.IssueCard(1<<20, 0, 0, DetRand(77))
		if err != nil {
			return false
		}
		k := int(replicas%4) + 1
		var issued []wire.FileCertificate
		for _, s := range sizes {
			cert, err := card.IssueFileCertificate("f", make([]byte, int(s)), k, nil, now)
			if err == nil {
				issued = append(issued, cert)
			}
			if card.RemainingQuota() < 0 {
				return false
			}
		}
		for i := range issued {
			card.RefundFileCertificate(&issued[i])
		}
		return card.RemainingQuota() == 1<<20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIssueFileCertificate(b *testing.B) {
	br, _ := NewBroker(DetRand(1))
	card, _ := br.IssueCard(1<<40, 0, 0, DetRand(2))
	content := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert, err := card.IssueFileCertificate("bench", content, 3, nil, now)
		if err != nil {
			b.Fatal(err)
		}
		card.RefundFileCertificate(&cert)
	}
}

func BenchmarkVerifyFileCertificate(b *testing.B) {
	br, _ := NewBroker(DetRand(1))
	card, _ := br.IssueCard(1<<40, 0, 0, DetRand(2))
	cert, _ := card.IssueFileCertificate("bench", make([]byte, 4096), 3, nil, now)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyFileCertificate(br.PublicKey(), &cert, now); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	b := newBroker(t)
	c, err := b.IssueCard(5000, 777, now+1000, DetRand(31))
	if err != nil {
		t.Fatal(err)
	}
	// Spend some quota first so the ledger state travels too.
	cert, err := c.IssueFileCertificate("f", make([]byte, 100), 2, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportCard(c.Export())
	if err != nil {
		t.Fatalf("ImportCard: %v", err)
	}
	if back.NodeID() != c.NodeID() {
		t.Fatal("identity changed across export")
	}
	if back.RemainingQuota() != c.RemainingQuota() || back.RemainingQuota() != 4800 {
		t.Fatalf("quota = %d, want %d", back.RemainingQuota(), c.RemainingQuota())
	}
	if back.Contribution() != 777 {
		t.Fatal("contribution lost")
	}
	if err := VerifyCardCert(b.PublicKey(), back.PublicKey(), back.CardCert(), now); err != nil {
		t.Fatalf("imported card not certified: %v", err)
	}
	// The imported card can still sign valid reclaim certificates.
	rc, err := back.IssueReclaimCertificate(cert.FileID, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReclaimAuthorized(b.PublicKey(), &rc, &cert, now); err != nil {
		t.Fatalf("imported card signature rejected: %v", err)
	}
	// The imported card signs exactly as the original: the same
	// certificate body yields the same signature.
	orig, err := c.IssueFileCertificate("h", []byte("same bytes"), 1, []byte("salt"), now)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.IssueFileCertificate("h", []byte("same bytes"), 1, []byte("salt"), now)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Sig, again.Sig) {
		t.Fatalf("imported card signs %x, original %x", again.Sig, orig.Sig)
	}
	// Expiry survives export.
	if _, err := back.IssueFileCertificate("g", []byte("x"), 1, nil, now+2000); !errors.Is(err, ErrExpired) {
		t.Fatal("expiry lost in export")
	}
}

func TestImportCardRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {1, 2, 3}, make([]byte, 17), make([]byte, 200)} {
		if _, err := ImportCard(data); err == nil {
			t.Fatalf("garbage of len %d accepted", len(data))
		}
	}
	// Truncated genuine export.
	b := newBroker(t)
	c, _ := b.IssueCard(1, 0, 0, DetRand(32))
	exp := c.Export()
	if _, err := ImportCard(exp[:len(exp)-5]); err == nil {
		t.Fatal("truncated export accepted")
	}
}

// TestImportCardRejectsMismatchedKeyHalves flips one byte in each half of
// the exported private key (seed ‖ public key). Either flip leaves a card
// whose NodeID comes from one key and whose signatures from another, so
// nothing would verify its receipts; both must be refused.
func TestImportCardRejectsMismatchedKeyHalves(t *testing.T) {
	b := newBroker(t)
	c, err := b.IssueCard(1000, 0, now+1000, DetRand(33))
	if err != nil {
		t.Fatal(err)
	}
	exp := c.Export()
	const privAt = 17 // quota, contribution, key length byte
	for _, off := range []int{0, ed25519.SeedSize, ed25519.PrivateKeySize - 1} {
		bad := bytes.Clone(exp)
		bad[privAt+off] ^= 0x01
		if _, err := ImportCard(bad); err == nil {
			t.Fatalf("card with byte %d of its private key flipped accepted", off)
		}
	}
	if _, err := ImportCard(exp); err != nil {
		t.Fatalf("genuine export refused: %v", err)
	}
}

// FuzzImportCard: on any bytes ImportCard never panics; a card it accepts
// exports back to the same bytes, and its public key is the one its
// private seed derives.
func FuzzImportCard(f *testing.F) {
	br, err := NewBroker(DetRand(7))
	if err != nil {
		f.Fatal(err)
	}
	c, err := br.IssueCard(5000, 777, now+1000, DetRand(34))
	if err != nil {
		f.Fatal(err)
	}
	exp := c.Export()
	f.Add(exp)
	f.Add(exp[:len(exp)-5])
	flipped := bytes.Clone(exp)
	flipped[17+ed25519.SeedSize] ^= 0x01
	f.Add(flipped)
	for _, garbage := range [][]byte{nil, {1, 2, 3}, make([]byte, 17), make([]byte, 200)} {
		f.Add(garbage)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		card, err := ImportCard(data)
		if err != nil {
			return
		}
		if back := card.Export(); !bytes.Equal(back, data) {
			t.Fatalf("accepted export re-exports differently:\n in %x\nout %x", data, back)
		}
		want := ed25519.NewKeyFromSeed(card.priv.Seed()).Public().(ed25519.PublicKey)
		if !want.Equal(card.PublicKey()) {
			t.Fatalf("card's public key %x, its seed derives %x", card.PublicKey(), want)
		}
	})
}
