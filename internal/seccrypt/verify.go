package seccrypt

// Signature verification.
//
// After the memo, every DISTINCT certificate or receipt still costs one
// full ed25519 verification, and an insert needs k + 1 of them (the file
// certificate at the root plus k store receipts at the client). The keys
// that sign PAST's hot-path traffic recur heavily — a user signs all of
// their certificates with one card, and every storage node signs each
// receipt it returns with its own — so the decompressed point and a
// split table of it are computed once per key and reused. The split
// table (edwards25519.VarTimeTable, eight ways) cuts a verification's
// doubling chain from 256 steps to 32; the additions stay as they were.
// The signing side is edwards25519.SigningKey, one per broker and card.
//
// Semantics: verifySingle is exactly crypto/ed25519.Verify's check — the
// cofactorless equation and the canonical-s requirement — so every
// verdict fed into the memo is bit-compatible with the stdlib
// (FuzzVerifyMatchesStdlib).

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"sync"

	"past/internal/edwards25519"
)

// pubKeyCacheCap bounds the cache; one entry is a 10 KiB split table, so
// the cache tops out around 5 MiB (TestPubKeyCacheCeiling). Long churn
// runs mint cards continuously; when the cap is hit the map is simply
// cleared (a rebuild costs a few cached verifications, which a key that
// signs repeatedly soon repays).
const pubKeyCacheCap = 512

var pubKeys struct {
	sync.RWMutex
	m map[[ed25519.PublicKeySize]byte]*edwards25519.VarTimeTable
}

// cachedPubKey returns the split table of −A for the key A that pub
// encodes (verification computes k(−A) + sB), building and caching it on
// first sight. It returns nil when pub is not a valid point encoding
// (ed25519.Verify returns false for such keys; callers must do the
// same). pub must be exactly ed25519.PublicKeySize bytes.
func cachedPubKey(pub []byte) *edwards25519.VarTimeTable {
	var k [ed25519.PublicKeySize]byte
	copy(k[:], pub)
	pubKeys.RLock()
	e, ok := pubKeys.m[k]
	pubKeys.RUnlock()
	if ok {
		return e // may be nil: invalid encodings are cached too
	}
	var A edwards25519.Point
	if _, err := A.SetBytes(pub); err != nil {
		e = nil
	} else {
		e = new(edwards25519.VarTimeTable)
		e.Init(A.Negate(&A))
	}
	pubKeys.Lock()
	if pubKeys.m == nil || len(pubKeys.m) >= pubKeyCacheCap {
		pubKeys.m = make(map[[ed25519.PublicKeySize]byte]*edwards25519.VarTimeTable, 64)
	}
	pubKeys.m[k] = e
	pubKeys.Unlock()
	return e
}

// hramScalar computes k = SHA-512(R ‖ A ‖ M) mod l into out. The
// concatenation goes through a pooled buffer and the one-shot Sum512,
// which the compiler keeps off the heap (an incremental hash.Hash makes
// the output slice escape).
func hramScalar(out *edwards25519.Scalar, r, pub, msg []byte) {
	bp := getBody()
	buf := append((*bp)[:0], r...)
	buf = append(buf, pub...)
	buf = append(buf, msg...)
	digest := sha512.Sum512(buf)
	*bp = buf
	putBody(bp)
	out.SetUniformBytes(digest[:]) //nolint:errcheck // length is fixed at 64
}

// verifySingle checks one ed25519 signature with exactly
// crypto/ed25519.Verify's semantics (cofactorless equation, canonical-s
// requirement), using the per-key precomputation cache. pub and sig
// must already have canonical sizes.
func verifySingle(pub, msg, sig []byte) bool {
	table := cachedPubKey(pub)
	if table == nil {
		return false
	}
	var s edwards25519.Scalar
	if _, err := s.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	var k edwards25519.Scalar
	hramScalar(&k, sig[:32], pub, msg)
	// R' = k(-A) + sB; valid iff R' re-encodes to the signature's R.
	var R edwards25519.Point
	R.VarTimeDoubleBaseMultTable(&k, table, &s)
	var buf [32]byte
	return bytes.Equal(R.BytesInto(&buf), sig[:32])
}
