// Package id implements the identifier spaces used by PAST and Pastry.
//
// Nodes carry 128-bit identifiers (nodeIds) and files carry 160-bit
// identifiers (fileIds), as specified in section 2 of the PAST paper.
// Routing operates on the 128 most significant bits of a fileId, which this
// package exposes as File.Key. Identifiers are interpreted as unsigned
// big-endian integers on a circular space modulo 2^128; all distance and
// comparison helpers respect the ring topology.
package id

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
)

// NodeBits is the size of a node identifier in bits.
const NodeBits = 128

// FileBits is the size of a file identifier in bits.
const FileBits = 160

// NodeBytes is the size of a node identifier in bytes.
const NodeBytes = NodeBits / 8

// FileBytes is the size of a file identifier in bytes.
const FileBytes = FileBits / 8

// Node is a 128-bit Pastry node identifier, big-endian.
type Node [NodeBytes]byte

// File is a 160-bit PAST file identifier, big-endian.
type File [FileBytes]byte

// Zero is the all-zero node identifier.
var Zero Node

// ErrBadLength reports an attempt to parse an identifier of the wrong size.
var ErrBadLength = errors.New("id: bad identifier length")

// NodeFromBytes parses a 16-byte big-endian node identifier.
func NodeFromBytes(p []byte) (Node, error) {
	var n Node
	if len(p) != NodeBytes {
		return n, fmt.Errorf("%w: got %d bytes, want %d", ErrBadLength, len(p), NodeBytes)
	}
	copy(n[:], p)
	return n, nil
}

// FileFromBytes parses a 20-byte big-endian file identifier.
func FileFromBytes(p []byte) (File, error) {
	var f File
	if len(p) != FileBytes {
		return f, fmt.Errorf("%w: got %d bytes, want %d", ErrBadLength, len(p), FileBytes)
	}
	copy(f[:], p)
	return f, nil
}

// ParseNode parses a 32-character hex string into a node identifier.
func ParseNode(s string) (Node, error) {
	var n Node
	b, err := hex.DecodeString(s)
	if err != nil {
		return n, fmt.Errorf("id: parse node: %w", err)
	}
	return NodeFromBytes(b)
}

// ParseFile parses a 40-character hex string into a file identifier.
func ParseFile(s string) (File, error) {
	var f File
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("id: parse file: %w", err)
	}
	return FileFromBytes(b)
}

// HashNode derives a node identifier from arbitrary material (typically a
// smartcard public key) using a cryptographic hash, per section 2.1 of the
// paper ("the nodeId is based on a cryptographic hash of the smartcard's
// public key").
func HashNode(material []byte) Node {
	sum := sha256.Sum256(material)
	var n Node
	copy(n[:], sum[:NodeBytes])
	return n
}

// HashFile derives a file identifier from the file's textual name, the
// owner's public key and a random salt, per section 2 of the paper.
func HashFile(name string, ownerPub []byte, salt []byte) File {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(ownerPub)
	h.Write([]byte{0})
	h.Write(salt)
	var f File
	copy(f[:], h.Sum(nil)[:FileBytes])
	return f
}

// Key returns the 128 most significant bits of the file identifier, the
// value Pastry routes on.
func (f File) Key() Node {
	var n Node
	copy(n[:], f[:NodeBytes])
	return n
}

// String renders the node identifier as lowercase hex.
func (n Node) String() string { return hex.EncodeToString(n[:]) }

// String renders the file identifier as lowercase hex.
func (f File) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first eight hex digits, for logs.
func (n Node) Short() string { return hex.EncodeToString(n[:4]) }

// Short returns the first eight hex digits, for logs.
func (f File) Short() string { return hex.EncodeToString(f[:4]) }

// IsZero reports whether n is the all-zero identifier.
func (n Node) IsZero() bool { return n == Zero }

// hi and lo decompose a node identifier into two 64-bit big-endian words.
func (n Node) hi() uint64 { return binary.BigEndian.Uint64(n[0:8]) }
func (n Node) lo() uint64 { return binary.BigEndian.Uint64(n[8:16]) }

func fromWords(hi, lo uint64) Node {
	var n Node
	binary.BigEndian.PutUint64(n[0:8], hi)
	binary.BigEndian.PutUint64(n[8:16], lo)
	return n
}

// Cmp compares two identifiers as 128-bit unsigned integers.
// It returns -1 if n < m, 0 if equal, +1 if n > m.
func (n Node) Cmp(m Node) int {
	switch {
	case n.hi() < m.hi():
		return -1
	case n.hi() > m.hi():
		return 1
	case n.lo() < m.lo():
		return -1
	case n.lo() > m.lo():
		return 1
	default:
		return 0
	}
}

// Less reports n < m as unsigned integers.
func (n Node) Less(m Node) bool { return n.Cmp(m) < 0 }

// Add returns n+m mod 2^128.
func (n Node) Add(m Node) Node {
	lo, carry := bits.Add64(n.lo(), m.lo(), 0)
	hi, _ := bits.Add64(n.hi(), m.hi(), carry)
	return fromWords(hi, lo)
}

// Sub returns n-m mod 2^128 (the clockwise distance from m to n).
func (n Node) Sub(m Node) Node {
	d := n.Words().Sub(m.Words())
	return fromWords(d.Hi, d.Lo)
}

// Offset is a distance around the ring in two machine words, value
// Hi·2^64 + Lo: what CW, CCW and Dist compute, without the 16-byte Node
// each of them builds and Cmp takes apart again. Routing state compares
// offsets on every message it handles; this package stays the only one
// that reads an identifier's bytes.
type Offset struct{ Hi, Lo uint64 }

// Words returns n as an offset: its clockwise distance from Zero.
func (n Node) Words() Offset { return Offset{n.hi(), n.lo()} }

// Sub returns a-b mod 2^128: between two offsets from one origin, the
// clockwise distance from b's point to a's.
func (a Offset) Sub(b Offset) Offset {
	lo, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	hi, _ := bits.Sub64(a.Hi, b.Hi, borrow)
	return Offset{hi, lo}
}

// Less reports a < b.
func (a Offset) Less(b Offset) bool { return a.Hi < b.Hi || a.Hi == b.Hi && a.Lo < b.Lo }

// Arc returns the shorter way round between two offsets taken from one
// origin in one direction: the ring distance (Dist) between the
// identifiers they stand for.
func (a Offset) Arc(b Offset) Offset {
	d, back := a.Sub(b), b.Sub(a)
	if back.Less(d) {
		return back
	}
	return d
}

// Dist returns the ring distance between n and m: the minimum of the
// clockwise and counter-clockwise distances on the circular 2^128 space.
// This is the "numerical closeness" metric of the paper.
func (n Node) Dist(m Node) Node {
	d := n.Words().Arc(m.Words())
	return fromWords(d.Hi, d.Lo)
}

// Closer reports whether a is strictly numerically closer to target than b,
// using ring distance. Ties (equidistant on opposite sides) are broken in
// favour of the numerically smaller identifier so that "the numerically
// closest node" is a total order, which routing termination relies on.
func Closer(target, a, b Node) bool {
	da := a.Dist(target)
	db := b.Dist(target)
	switch da.Cmp(db) {
	case -1:
		return true
	case 1:
		return false
	default:
		return a.Cmp(b) < 0
	}
}

// CW returns the clockwise distance from n to m (i.e. m-n mod 2^128).
func (n Node) CW(m Node) Node { return m.Sub(n) }

// CCW returns the counter-clockwise distance from n to m (i.e. n-m mod 2^128).
func (n Node) CCW(m Node) Node { return n.Sub(m) }

// Between reports whether x lies on the clockwise arc (a, b], exclusive of
// a and inclusive of b. With a == b the arc is the full ring minus a.
func Between(x, a, b Node) bool {
	if a == b {
		return x != a
	}
	return a.CW(x) != Zero && a.CW(x).Cmp(a.CW(b)) <= 0
}

// Digit returns the i-th base-2^b digit of the identifier (digit 0 is the
// most significant). b must divide into the bit width sensibly; Pastry uses
// b in 1..8. The default b=4 takes a nibble fast path.
func (n Node) Digit(i, b int) int {
	if b == 4 {
		return nibbleAt(n[:], i, b)
	}
	return digit(n[:], i, b)
}

// Digit returns the i-th base-2^b digit of the file identifier.
func (f File) Digit(i, b int) int {
	if b == 4 {
		return nibbleAt(f[:], i, b)
	}
	return digit(f[:], i, b)
}

// nibbleAt extracts hex digit i directly from the backing byte: digit 2k
// is the high nibble of byte k, digit 2k+1 the low nibble. It matches
// digit(p, i, 4) bit for bit (see TestDigitFastPathMatchesGeneric).
func nibbleAt(p []byte, i, b int) int {
	if uint(i) >= uint(len(p)*2) {
		panic(fmt.Sprintf("id: digit %d with b=%d out of range for %d-bit id", i, b, len(p)*8))
	}
	shift := uint(4 * (1 - i&1))
	return int(p[i>>1] >> shift & 0xf)
}

// digit is the generic any-b extraction path, kept as the reference
// implementation the fast paths are property-tested against.
func digit(p []byte, i, b int) int {
	start := i * b
	end := start + b
	if end > len(p)*8 {
		panic(fmt.Sprintf("id: digit %d with b=%d out of range for %d-bit id", i, b, len(p)*8))
	}
	v := 0
	for bit := start; bit < end; bit++ {
		byteIdx := bit / 8
		bitIdx := 7 - bit%8
		v = v<<1 | int(p[byteIdx]>>bitIdx&1)
	}
	return v
}

// SetDigit returns a copy of n with the i-th base-2^b digit set to v.
// The default b=4 takes a nibble fast path.
func (n Node) SetDigit(i, b, v int) Node {
	if b == 4 {
		shift := uint(4 * (1 - i&1))
		n[i>>1] = n[i>>1]&^(0xf<<shift) | byte(v&0xf)<<shift
		return n
	}
	return n.setDigitGeneric(i, b, v)
}

// setDigitGeneric is the any-b reference implementation.
func (n Node) setDigitGeneric(i, b, v int) Node {
	start := i * b
	for k := 0; k < b; k++ {
		bit := start + k
		byteIdx := bit / 8
		bitIdx := 7 - bit%8
		mask := byte(1) << bitIdx
		if v>>(b-1-k)&1 == 1 {
			n[byteIdx] |= mask
		} else {
			n[byteIdx] &^= mask
		}
	}
	return n
}

// CommonPrefix returns the number of leading base-2^b digits shared by n
// and m. The maximum is NodeBits/b (rounded down). It compares the two
// 64-bit halves directly instead of walking bytes; routing calls this on
// every hop for every candidate.
func CommonPrefix(n, m Node, b int) int {
	var bitsSame int
	if x := n.hi() ^ m.hi(); x != 0 {
		bitsSame = bits.LeadingZeros64(x)
	} else if y := n.lo() ^ m.lo(); y != 0 {
		bitsSame = 64 + bits.LeadingZeros64(y)
	} else {
		bitsSame = NodeBits
	}
	return bitsSame / b
}

// commonPrefixGeneric is the byte-walking reference implementation kept
// for property tests.
func commonPrefixGeneric(n, m Node, b int) int {
	bitsSame := 0
	for i := 0; i < NodeBytes; i++ {
		x := n[i] ^ m[i]
		if x == 0 {
			bitsSame += 8
			continue
		}
		bitsSame += bits.LeadingZeros8(x)
		break
	}
	return bitsSame / b
}

// NumDigits returns the number of base-2^b digits in a node identifier.
func NumDigits(b int) int { return NodeBits / b }

// Rand derives a pseudo-random node identifier from a 64-bit seed stream
// value. It is deterministic: the same input always yields the same
// identifier. Experiments use it so runs are reproducible.
func Rand(seed uint64) Node {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	return HashNode(buf[:])
}

// RandFile derives a pseudo-random file identifier from a 64-bit seed.
func RandFile(seed uint64) File {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	sum := sha256.Sum256(buf[:])
	var f File
	copy(f[:], sum[:FileBytes])
	return f
}

// Mid returns the identifier halfway along the clockwise arc from a to b.
// It is used by tests to construct adversarial placements.
func Mid(a, b Node) Node {
	d := a.CW(b)
	half := d.Rsh1()
	return a.Add(half)
}

// Rsh1 returns n >> 1.
func (n Node) Rsh1() Node {
	hi := n.hi()
	lo := n.lo()
	return fromWords(hi>>1, lo>>1|hi<<63)
}
