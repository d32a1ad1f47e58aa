package seccrypt

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"past/internal/id"
	"past/internal/wire"
)

func testCard(t *testing.T) (*Broker, *Smartcard) {
	t.Helper()
	broker, err := NewBroker(DetRand(0xfeed))
	if err != nil {
		t.Fatal(err)
	}
	card, err := broker.IssueCard(1<<30, 1<<30, 0, DetRand(0xbeef))
	if err != nil {
		t.Fatal(err)
	}
	return broker, card
}

// TestMemoNeverServesStalePositive is the safety property of the
// verification memo: once a certificate has verified successfully (and
// the outcome is cached), any mutation of the signed body or of the
// signature must miss the cache and fail verification — the cached
// positive can never leak onto different bytes.
func TestMemoNeverServesStalePositive(t *testing.T) {
	broker, card := testCard(t)
	cert, err := card.IssueFileCertificate("stale.bin", []byte("content"), 3, []byte{1, 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the memo and confirm a hit on re-verification.
	for i := 0; i < 3; i++ {
		if err := VerifyFileCertificate(broker.PublicKey(), &cert, 100); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	h0, _ := MemoStats()
	if err := VerifyFileCertificate(broker.PublicKey(), &cert, 100); err != nil {
		t.Fatal(err)
	}
	if h1, _ := MemoStats(); h1 <= h0 {
		t.Fatal("repeated verification should hit the memo")
	}

	// Mutate each signed body field in turn: every mutation must fail.
	mutations := []func(c *wire.FileCertificate){
		func(c *wire.FileCertificate) { c.Size++ },
		func(c *wire.FileCertificate) { c.Replicas++ },
		func(c *wire.FileCertificate) { c.Issued++ },
		func(c *wire.FileCertificate) { c.FileID[0] ^= 0xff },
		func(c *wire.FileCertificate) { c.ContentHash[0] ^= 0xff },
		func(c *wire.FileCertificate) { c.Salt = append([]byte(nil), 9, 9) },
	}
	for i, mutate := range mutations {
		bad := cert
		mutate(&bad)
		if err := VerifyFileCertificate(broker.PublicKey(), &bad, 100); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("mutation %d: want ErrBadSignature, got %v", i, err)
		}
	}
	// Mutated signature must fail even though the body is cached-valid.
	bad := cert
	bad.Sig = append([]byte(nil), cert.Sig...)
	bad.Sig[0] ^= 1
	if err := VerifyFileCertificate(broker.PublicKey(), &bad, 100); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("mutated sig: want ErrBadSignature, got %v", err)
	}
	// Mutated card certification must fail.
	bad = cert
	bad.CardCert = append([]byte(nil), cert.CardCert...)
	bad.CardCert[len(bad.CardCert)-1] ^= 1
	if err := VerifyFileCertificate(broker.PublicKey(), &bad, 100); !errors.Is(err, ErrBadCardCert) {
		t.Fatalf("mutated card cert: want ErrBadCardCert, got %v", err)
	}
	// The original still verifies after all the poisoned probes.
	if err := VerifyFileCertificate(broker.PublicKey(), &cert, 100); err != nil {
		t.Fatalf("original after probes: %v", err)
	}
}

// TestMemoNegativeCached checks that invalid outcomes are also memoized
// and stay invalid.
func TestMemoNegativeCached(t *testing.T) {
	broker, card := testCard(t)
	cert, err := card.IssueFileCertificate("neg.bin", []byte("x"), 1, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	bad := cert
	bad.Sig = append([]byte(nil), cert.Sig...)
	bad.Sig[10] ^= 0x40
	for i := 0; i < 3; i++ {
		if err := VerifyFileCertificate(broker.PublicKey(), &bad, 100); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("pass %d: want ErrBadSignature, got %v", i, err)
		}
	}
}

// TestMemoExpiryNotCached confirms time-dependent verdicts stay outside
// the memo: the same card certification verifies before expiry and fails
// after, regardless of caching.
func TestMemoExpiryNotCached(t *testing.T) {
	broker, err := NewBroker(DetRand(7))
	if err != nil {
		t.Fatal(err)
	}
	card, err := broker.IssueCard(1<<20, 0, 500, DetRand(8))
	if err != nil {
		t.Fatal(err)
	}
	pub := card.PublicKey()
	if err := VerifyCardCert(broker.PublicKey(), pub, card.CardCert(), 100); err != nil {
		t.Fatalf("before expiry: %v", err)
	}
	if err := VerifyCardCert(broker.PublicKey(), pub, card.CardCert(), 100); err != nil {
		t.Fatalf("before expiry (cached): %v", err)
	}
	if err := VerifyCardCert(broker.PublicKey(), pub, card.CardCert(), 501); !errors.Is(err, ErrExpired) {
		t.Fatalf("after expiry: want ErrExpired, got %v", err)
	}
}

// TestMemoKeepsRecheckedThroughOneShotFlood re-checks certificates
// round-robin while three one-shot verdicts per re-check stream through
// the memo: 10,000 distinct verdicts a round, and 75,000 over the test,
// more than the whole table. After the first round every re-check must
// be a hit (an exact LRU of 8,192 verdicts hits none of them).
func TestMemoKeepsRecheckedThroughOneShotFlood(t *testing.T) {
	const rechecked, oneShots, rounds = 2500, 3, 10
	m := newVerifyMemo(make([]memoSet, memoStripeCount*memoSets))
	_, priv, err := ed25519.GenerateKey(DetRand(44))
	if err != nil {
		t.Fatal(err)
	}
	pub := priv.Public().(ed25519.PublicKey)
	msgs, sigs := make([][]byte, rechecked), make([][]byte, rechecked)
	for i := range msgs {
		msgs[i] = binary.BigEndian.AppendUint64([]byte("re-checked "), uint64(i))
		sigs[i] = ed25519.Sign(priv, msgs[i])
	}
	// s >= l is refused before any curve arithmetic: a one-shot verdict
	// costs a hash.
	junk := make([]byte, ed25519.SignatureSize)
	junk[63] = 0xff
	body := make([]byte, 8)
	n := uint64(0)
	for round := range rounds {
		h0 := m.hits.Load()
		for i := range msgs {
			if !m.verify(pub, msgs[i], sigs[i]) {
				t.Fatalf("round %d: certificate %d rejected", round, i)
			}
			for range oneShots {
				n++
				binary.BigEndian.PutUint64(body, n)
				if m.verify(pub, body, junk) {
					t.Fatalf("one-shot %d accepted", n)
				}
			}
		}
		if hits := m.hits.Load() - h0; round > 0 && hits != rechecked {
			t.Errorf("round %d: %d of %d re-checks hit", round, hits, rechecked)
		}
	}
}

// TestMemoHitAllocatesNothing: a hit hashes the triple on the stack and
// reads the table in place.
func TestMemoHitAllocatesNothing(t *testing.T) {
	_, priv, err := ed25519.GenerateKey(DetRand(45))
	if err != nil {
		t.Fatal(err)
	}
	pub := priv.Public().(ed25519.PublicKey)
	msg := make([]byte, 200)
	sig := ed25519.Sign(priv, msg)
	m := newVerifyMemo(make([]memoSet, memoStripeCount*memoSets))
	if !m.verify(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	h0 := m.hits.Load()
	if a := testing.AllocsPerRun(100, func() { m.verify(pub, msg, sig) }); a != 0 {
		t.Fatalf("%v allocations per hit", a)
	}
	if m.hits.Load() == h0 {
		t.Fatal("the re-checks missed")
	}
}

// TestMemoTableHoldsNoPointer: the table is one pointer-free allocation
// per stripe, which the garbage collector never scans, within 2.5 MiB.
func TestMemoTableHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return true
		case reflect.Array:
			return walk(t.Elem())
		case reflect.Struct:
			for i := range t.NumField() {
				if walk(t.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if walk(reflect.TypeFor[memoSet]()) {
		t.Fatal("memoSet holds a pointer")
	}
	if size := unsafe.Sizeof(memoSet{}) * memoSets * memoStripeCount; size > 2.5*(1<<20) {
		t.Fatalf("the table holds %.2f MiB, want at most 2.5", float64(size)/(1<<20))
	}
}

// TestMemoSharedSetsConcurrently has 8 goroutines hit, miss and evict in
// a memo of one set per stripe: valid and tampered triples shared by all
// of them, and one-shot verdicts of their own. Every verdict must be
// right (CI runs it under -race).
func TestMemoSharedSetsConcurrently(t *testing.T) {
	_, priv, err := ed25519.GenerateKey(DetRand(46))
	if err != nil {
		t.Fatal(err)
	}
	pub := priv.Public().(ed25519.PublicKey)
	const shared = 48
	msgs, sigs, bad := make([][]byte, shared), make([][]byte, shared), make([][]byte, shared)
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
		sigs[i] = ed25519.Sign(priv, msgs[i])
		bad[i] = append([]byte(nil), sigs[i]...)
		bad[i][5] ^= 4
	}
	junk := make([]byte, ed25519.SignatureSize)
	junk[63] = 0xff
	m := newVerifyMemo(make([]memoSet, memoStripeCount))
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := make([]byte, 9)
			body[0] = byte(g)
			for i := range 400 {
				j := (i*7 + g) % shared
				if !m.verify(pub, msgs[j], sigs[j]) {
					t.Errorf("goroutine %d: valid triple %d rejected", g, j)
				}
				if m.verify(pub, msgs[j], bad[j]) {
					t.Errorf("goroutine %d: tampered triple %d accepted", g, j)
				}
				binary.BigEndian.PutUint64(body[1:], uint64(i))
				if m.verify(pub, body, junk) {
					t.Errorf("goroutine %d: one-shot %d accepted", g, i)
				}
			}
		}()
	}
	wg.Wait()
	if h, n := m.hits.Load(), m.misses.Load(); h == 0 || n <= 2*shared {
		t.Fatalf("%d hits, %d misses: want both, and evictions", h, n)
	}
}

// FuzzMemoMatchesStdlib drives a memo of one set per stripe (16
// verdicts a stripe, so sets collide and evict within a few calls)
// through an interleaving of valid, tampered and repeated (pub, msg,
// sig) triples under three keys, each op two bytes. Every verdict must
// equal crypto/ed25519.Verify's: a tampered triple right after its valid
// twin was stored, a repeat of an evicted one, and bursts of one-shot
// verdicts that flush the sets.
func FuzzMemoMatchesStdlib(f *testing.F) {
	privs := make([]ed25519.PrivateKey, 3)
	for i := range privs {
		_, privs[i], _ = ed25519.GenerateKey(DetRand(uint64(50 + i)))
	}
	f.Add([]byte{0, 1, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0, 7, 1, 3, 0, 7, 2, 0, 3, 40, 2, 0, 1, 5})
	f.Add([]byte{4, 9, 5, 9, 1, 64, 3, 255, 2, 1, 2, 0, 1, 130})
	junk := make([]byte, ed25519.SignatureSize)
	junk[63] = 0xff
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newVerifyMemo(make([]memoSet, memoStripeCount))
		type triple struct{ pub, msg, sig []byte }
		var seen []triple
		check := func(tr triple) {
			if got, want := m.verify(tr.pub, tr.msg, tr.sig), ed25519.Verify(tr.pub, tr.msg, tr.sig); got != want {
				t.Fatalf("memo=%v ed25519.Verify=%v for pub %x msg %x sig %x", got, want, tr.pub, tr.msg, tr.sig)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 4 {
			case 0: // a new valid triple
				priv := privs[int(op/4)%len(privs)]
				msg := []byte{op, arg, byte(i), byte(i >> 8)}
				seen = append(seen, triple{priv.Public().(ed25519.PublicKey), msg, ed25519.Sign(priv, msg)})
				check(seen[len(seen)-1])
			case 1: // the latest triple, one bit of its key, message or signature flipped
				if len(seen) == 0 {
					continue
				}
				last := seen[len(seen)-1]
				tr := triple{slices.Clone(last.pub), slices.Clone(last.msg), slices.Clone(last.sig)}
				field := [][]byte{tr.pub, tr.msg, tr.sig}[int(arg)%3]
				field[int(arg/3)%len(field)] ^= 1 << (op / 4 % 8)
				seen = append(seen, tr)
				check(tr)
			case 2: // a repeat
				if len(seen) > 0 {
					check(seen[int(arg)%len(seen)])
				}
			case 3: // a burst of one-shot verdicts
				body := []byte{byte(i), byte(i >> 8), 0}
				for j := range int(arg % 64) {
					body[2] = byte(j)
					check(triple{privs[0].Public().(ed25519.PublicKey), body, junk})
				}
			}
		}
	})
}

// TestStoreReceiptMemo covers the receipt verification path: valid
// receipts verify repeatedly, and tampering with the signed fields fails.
func TestStoreReceiptMemo(t *testing.T) {
	_, card := testCard(t)
	ref := wire.NodeRef{ID: card.NodeID(), Addr: "sim:0"}
	rcpt := wire.StoreReceipt{
		FileID:     id.RandFile(1),
		StoredBy:   ref,
		OnBehalfOf: ref,
		Size:       128,
	}
	card.SignStoreReceipt(&rcpt)
	for i := 0; i < 2; i++ {
		if err := VerifyStoreReceipt(&rcpt); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	bad := rcpt
	bad.Size++
	if err := VerifyStoreReceipt(&bad); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered receipt: want ErrBadSignature, got %v", err)
	}
}
