package seccrypt

import (
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"math/big"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"past/internal/edwards25519"
	"past/internal/id"
	"past/internal/wire"
)

// TestVerifySingleMatchesStdlib property-tests the table-cached single
// verifier against crypto/ed25519.Verify over valid, corrupted and
// non-canonical inputs.
func TestVerifySingleMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pub, priv, err := ed25519.GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 1+rng.Intn(300))
		rng.Read(msg)
		sig := ed25519.Sign(priv, msg)
		mutate := func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[rng.Intn(len(out))] ^= 1 << uint(rng.Intn(8))
			return out
		}
		cases := []struct {
			name          string
			pub, msg, sig []byte
		}{
			{"valid", pub, msg, sig},
			{"bad-sig", pub, msg, mutate(sig)},
			{"bad-msg", pub, mutate(msg), sig},
			{"bad-pub", mutate(pub), msg, sig},
			{"high-s", pub, msg, func() []byte {
				out := append([]byte(nil), sig...)
				out[63] |= 0xe0 // push s out of canonical range
				return out
			}()},
		}
		for _, c := range cases {
			want := ed25519.Verify(c.pub, c.msg, c.sig)
			if got := verifySingle(c.pub, c.msg, c.sig); got != want {
				t.Fatalf("trial %d %s: verifySingle=%v stdlib=%v", trial, c.name, got, want)
			}
		}
	}
}

// TestDeferredMemoFeedback asserts a flush finds the forged member
// exactly, resolves truncated inputs to false, and leaves its verdicts in
// the memo: a later memoVerify of the same triple must hit, with the
// verdict the flush produced.
func TestDeferredMemoFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("memo-feedback-nonce-v1")
	sig := ed25519.Sign(priv, msg)
	forged := append([]byte(nil), sig...)
	forged[10] ^= 0x40

	body := func(buf []byte) []byte { return append(buf, msg...) }
	d := NewDeferred()
	i := d.Defer(pub, sig, body)
	j := d.Defer(pub, forged, body)
	// Truncated keys and signatures resolve to false, not to a panic.
	short := []int{d.Defer(pub[:16], sig, body), d.Defer(pub, sig[:32], body)}
	if d.Flush() {
		t.Fatal("flush with a forged member reported all-ok")
	}
	if !d.Ok(i) || d.Ok(j) || d.Ok(short[0]) || d.Ok(short[1]) {
		t.Fatalf("verdicts: valid=%v forged=%v short key=%v short sig=%v", d.Ok(i), d.Ok(j), d.Ok(short[0]), d.Ok(short[1]))
	}
	d.Release()

	h0, _ := MemoStats()
	if !memoVerify(pub, msg, sig) {
		t.Fatal("memoVerify rejected a signature the flush verified")
	}
	if memoVerify(pub, msg, forged) {
		t.Fatal("memoVerify accepted the forged signature")
	}
	h1, _ := MemoStats()
	if h1 != h0+2 {
		t.Fatalf("expected two memo hits after flush feedback (hits %d -> %d)", h0, h1)
	}
}

func BenchmarkVerifySingleCached(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pub, priv, _ := ed25519.GenerateKey(rng)
	msg := make([]byte, 200)
	rng.Read(msg)
	sig := ed25519.Sign(priv, msg)
	if !verifySingle(pub, msg, sig) {
		b.Fatal("bad fixture")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifySingle(pub, msg, sig)
	}
}

// smallOrder are the encodings of the eight points of order dividing 8,
// the identity first.
var smallOrder = []string{
	"0100000000000000000000000000000000000000000000000000000000000000",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0000000000000000000000000000000000000000000000000000000000000080",
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
}

// TestSmallOrderSeeds checks the fuzz seeds' premise: each encoding
// decodes to a point whose eighth multiple is the identity.
func TestSmallOrderSeeds(t *testing.T) {
	for _, h := range smallOrder {
		b, _ := hex.DecodeString(h)
		p, err := new(edwards25519.Point).SetBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		for i := 0; i < 3; i++ {
			p.Add(p, p)
		}
		if p.Equal(edwards25519.NewIdentityPoint()) != 1 {
			t.Fatalf("%s: 8P is not the identity", h)
		}
	}
}

// leBytes encodes 0 <= x < 2^256 in 32 little-endian bytes.
func leBytes(x *big.Int) []byte {
	b := x.FillBytes(make([]byte, 32))
	slices.Reverse(b)
	return b
}

// FuzzVerifyMatchesStdlib holds verifySingle to crypto/ed25519.Verify on
// arbitrary keys, signatures and messages: the same verdict, and never a
// panic. Inputs are cut or zero-padded to 32-byte keys and 64-byte
// signatures, the sizes verifySingle is called with.
func FuzzVerifyMatchesStdlib(f *testing.F) {
	one := big.NewInt(1)
	l, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	p := new(big.Int).Sub(new(big.Int).Lsh(one, 255), big.NewInt(19))
	yPlusP := func(y int64) []byte { return leBytes(new(big.Int).Add(p, big.NewInt(y))) }

	rng := rand.New(rand.NewSource(6))
	pub, priv, _ := ed25519.GenerateKey(rng)
	msg := []byte("fuzz seed message")
	sig := ed25519.Sign(priv, msg)
	with := func(r, s []byte) []byte { return append(append([]byte(nil), r...), s...) }

	f.Add([]byte(pub), sig, msg)
	f.Add([]byte(pub), sig, []byte{})
	// s >= l: the same signature with l added to s.
	s := slices.Clone(sig[32:])
	slices.Reverse(s)
	f.Add([]byte(pub), with(sig[:32], leBytes(new(big.Int).Add(new(big.Int).SetBytes(s), l))), msg)
	f.Add([]byte(pub), with(sig[:32], leBytes(l)), msg)
	// Non-canonical encodings: y >= p for A and for R (p + 1 is the
	// identity's y), and the identity with its sign bit set.
	negZero := make([]byte, 32)
	negZero[0], negZero[31] = 1, 0x80
	for _, enc := range [][]byte{yPlusP(1), yPlusP(0), yPlusP(18), negZero} {
		f.Add(enc, sig, msg)
		f.Add([]byte(pub), with(enc, sig[32:]), msg)
		f.Add(enc, with(enc, make([]byte, 32)), msg)
	}
	// Small-order keys and commitments, with s = 0 and with a real s.
	for _, h := range smallOrder {
		t, _ := hex.DecodeString(h)
		f.Add(t, with(t, make([]byte, 32)), msg)
		f.Add(t, sig, msg)
		f.Add([]byte(pub), with(t, sig[32:]), msg)
	}
	// A mixed-order key: the honest key plus a point of order 8.
	A, _ := new(edwards25519.Point).SetBytes(pub)
	T, _ := hex.DecodeString(smallOrder[4])
	T8, _ := new(edwards25519.Point).SetBytes(T)
	f.Add(A.Add(A, T8).Bytes(), sig, msg)

	f.Fuzz(func(t *testing.T, pub, sig, msg []byte) {
		pub32, sig64 := make([]byte, ed25519.PublicKeySize), make([]byte, ed25519.SignatureSize)
		copy(pub32, pub)
		copy(sig64, sig)
		if got, want := verifySingle(pub32, msg, sig64), ed25519.Verify(pub32, msg, sig64); got != want {
			t.Fatalf("verifySingle=%v ed25519.Verify=%v for pub %x sig %x msg %x", got, want, pub32, sig64, msg)
		}
	})
}

// benchNonce makes every benchmark message unique across b.N rounds and
// -count runs, so no verification is a memo hit.
var benchNonce atomic.Uint64

// BenchmarkVerifyReceipts prices what a client verifies per insert: k = 3
// fresh store receipts from three storage nodes whose keys are already
// cached, each through VerifyStoreReceipt.
func BenchmarkVerifyReceipts(b *testing.B) {
	const k = 3
	broker, err := NewBroker(DetRand(7))
	if err != nil {
		b.Fatal(err)
	}
	var nodes [k]*Smartcard
	for i := range nodes {
		if nodes[i], err = broker.IssueCard(0, 1<<20, 0, DetRand(uint64(100+i))); err != nil {
			b.Fatal(err)
		}
	}
	rcpts := make([]wire.StoreReceipt, k*(b.N+1))
	for i := range rcpts {
		node := nodes[i%k]
		rcpts[i] = wire.StoreReceipt{FileID: id.RandFile(benchNonce.Add(1)), StoredBy: wire.NodeRef{ID: node.NodeID()}, Size: 4096}
		node.SignStoreReceipt(&rcpts[i])
	}
	for i := range nodes {
		if err := VerifyStoreReceipt(&rcpts[i]); err != nil { // warm the key cache
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := k; i < len(rcpts); i++ {
		if err := VerifyStoreReceipt(&rcpts[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyFirstSight prices a key's first signature: point
// decompression, the split-table build and one verification.
func BenchmarkVerifyFirstSight(b *testing.B) {
	pubs := make([]ed25519.PublicKey, b.N)
	sigs := make([][]byte, b.N)
	msg := []byte("first sight")
	for i := range pubs {
		var seed [ed25519.SeedSize]byte
		binary.LittleEndian.PutUint64(seed[:], benchNonce.Add(1))
		copy(seed[8:], "first-sight benchmark key")
		priv := ed25519.NewKeyFromSeed(seed[:])
		pubs[i], sigs[i] = priv.Public().(ed25519.PublicKey), ed25519.Sign(priv, msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range pubs {
		if !verifySingle(pubs[i], msg, sigs[i]) {
			b.Fatal("valid signature rejected")
		}
	}
}
