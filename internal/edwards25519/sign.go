package edwards25519

import "crypto/sha512"

// Ed25519 signing (RFC 8032 §5.1.6) on the vendored group, from a key
// expanded once. crypto/ed25519.Sign rebuilds the expanded key from the
// seed on every call (one SHA-512 of the seed) and encodes R twice, once
// for the hash and once for the signature, each encoding a field
// inversion. A SigningKey hashes the seed once, when it is built, and
// encodes R once per signature. Its signatures are byte-identical to
// crypto/ed25519's (FuzzSignMatchesStdlib).

// SigningKey is an Ed25519 private key expanded for signing.
//
// Its secrets are handled in constant time: the secret scalar, the
// prefix and the nonce r pass only through SHA-512, SetUniformBytes,
// ScalarBaseMult (whose table reads all go through
// affineLookupTable.SelectInto), the fiat scalar arithmetic and the point
// and scalar encodings. None of them reaches nonAdjacentForm, a VarTime*
// routine or a table index chosen by a secret; R is public once it is
// encoded.
type SigningKey struct {
	s      Scalar   // the clamped secret scalar
	prefix [32]byte // the upper half of SHA-512(seed), which keys the nonce
	pub    [32]byte // the encoded public key A
}

// NewSigningKey expands priv, an Ed25519 private key laid out as
// crypto/ed25519.PrivateKey is: seed ‖ public key. As crypto/ed25519.Sign
// does, it takes the public half as given.
func NewSigningKey(priv *[64]byte) *SigningKey {
	h := sha512.Sum512(priv[:32])
	k := &SigningKey{}
	// Clamping sets the 2^254 bit, so the clamped value needs the wide
	// reduction, exactly as crypto/ed25519's SetBytesWithClamping does.
	var wide [64]byte
	copy(wide[:], h[:32])
	wide[0] &= 248
	wide[31] &= 63
	wide[31] |= 64
	k.s.SetUniformBytes(wide[:]) //nolint:errcheck // length is fixed at 64
	copy(k.prefix[:], h[32:])
	copy(k.pub[:], priv[32:])
	return k
}

// Sign returns the 64-byte Ed25519 signature of msg. It is outlined from
// sign so that it inlines and the signature is allocated in the caller.
func (k *SigningKey) Sign(msg []byte) []byte {
	sig := make([]byte, 64)
	k.sign((*[64]byte)(sig), msg)
	return sig
}

func (k *SigningKey) sign(sig *[64]byte, msg []byte) {
	// Both hash inputs are assembled in one stack buffer and hashed with
	// the one-shot Sum512, which keeps them off the heap for the short
	// bodies PAST signs; a longer message spills to one allocation.
	var scratch [256]byte
	buf := append(append(scratch[:0], k.prefix[:]...), msg...)
	digest := sha512.Sum512(buf)
	var r Scalar
	r.SetUniformBytes(digest[:]) //nolint:errcheck // length is fixed at 64

	var R Point
	R.ScalarBaseMult(&r)
	R.bytes((*[32]byte)(sig[:32]))

	buf = append(append(append(buf[:0], sig[:32]...), k.pub[:]...), msg...)
	digest = sha512.Sum512(buf)
	var h Scalar
	h.SetUniformBytes(digest[:]) //nolint:errcheck // length is fixed at 64

	// S = h·s + r, as Multiply then Add: what crypto/ed25519's
	// MultiplyAdd computes.
	var S Scalar
	S.Multiply(&h, &k.s).Add(&S, &r)
	S.bytes((*[32]byte)(sig[32:]))
}
