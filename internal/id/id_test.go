package id

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNodeFromBytes(t *testing.T) {
	b := make([]byte, NodeBytes)
	for i := range b {
		b[i] = byte(i)
	}
	n, err := NodeFromBytes(b)
	if err != nil {
		t.Fatalf("NodeFromBytes: %v", err)
	}
	for i := range b {
		if n[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, n[i], i)
		}
	}
}

func TestNodeFromBytesBadLength(t *testing.T) {
	if _, err := NodeFromBytes(make([]byte, 5)); err == nil {
		t.Fatal("want error for short input")
	}
	if _, err := NodeFromBytes(make([]byte, 17)); err == nil {
		t.Fatal("want error for long input")
	}
}

func TestFileFromBytesBadLength(t *testing.T) {
	if _, err := FileFromBytes(make([]byte, 19)); err == nil {
		t.Fatal("want error for short input")
	}
}

func TestParseRoundTrip(t *testing.T) {
	n := Rand(42)
	got, err := ParseNode(n.String())
	if err != nil {
		t.Fatalf("ParseNode: %v", err)
	}
	if got != n {
		t.Fatalf("round trip mismatch: %v != %v", got, n)
	}
	f := RandFile(42)
	gf, err := ParseFile(f.String())
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if gf != f {
		t.Fatalf("file round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseNode("zz"); err == nil {
		t.Fatal("want error for non-hex")
	}
	if _, err := ParseNode("abcd"); err == nil {
		t.Fatal("want error for short hex")
	}
	if _, err := ParseFile("1234"); err == nil {
		t.Fatal("want error for short file hex")
	}
}

// FuzzParseID holds ParseNode and ParseFile to their contract: each accepts
// exactly the strings of 32 (node) or 40 (file) hex digits, either case,
// and String gives an accepted input back lower-cased.
func FuzzParseID(f *testing.F) {
	f.Add(Rand(42).String())
	f.Add(RandFile(42).String())
	f.Add(strings.ToUpper(RandFile(7).String()))
	for _, bad := range []string{"", "zz", "abcd", "1234", "0x" + Rand(1).String()[2:], Rand(1).String() + "0", " " + Rand(1).String()[1:], RandFile(1).String()[:39] + "g"} {
		f.Add(bad)
	}
	hexDigits := func(s string) bool {
		return strings.Trim(s, "0123456789abcdefABCDEF") == ""
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseNode(s)
		if want := len(s) == 2*NodeBytes && hexDigits(s); (err == nil) != want {
			t.Fatalf("ParseNode(%q) error %v, want accepted %v", s, err, want)
		}
		if err == nil && n.String() != strings.ToLower(s) {
			t.Fatalf("ParseNode(%q).String() = %q", s, n.String())
		}
		fl, err := ParseFile(s)
		if want := len(s) == 2*FileBytes && hexDigits(s); (err == nil) != want {
			t.Fatalf("ParseFile(%q) error %v, want accepted %v", s, err, want)
		}
		if err == nil && fl.String() != strings.ToLower(s) {
			t.Fatalf("ParseFile(%q).String() = %q", s, fl.String())
		}
	})
}

func TestHashNodeDeterministic(t *testing.T) {
	a := HashNode([]byte("hello"))
	b := HashNode([]byte("hello"))
	c := HashNode([]byte("world"))
	if a != b {
		t.Fatal("HashNode not deterministic")
	}
	if a == c {
		t.Fatal("HashNode collision on distinct inputs")
	}
}

func TestHashFileSaltMatters(t *testing.T) {
	pub := []byte("owner-public-key")
	a := HashFile("report.txt", pub, []byte{1})
	b := HashFile("report.txt", pub, []byte{2})
	if a == b {
		t.Fatal("different salts must give different fileIds")
	}
	c := HashFile("report.txt", []byte("other"), []byte{1})
	if a == c {
		t.Fatal("different owners must give different fileIds")
	}
}

func TestFileKeyPrefix(t *testing.T) {
	f := RandFile(7)
	k := f.Key()
	for i := 0; i < NodeBytes; i++ {
		if k[i] != f[i] {
			t.Fatalf("Key byte %d mismatch", i)
		}
	}
}

func TestCmp(t *testing.T) {
	zero := Node{}
	one := Node{}
	one[NodeBytes-1] = 1
	big := Node{}
	big[0] = 0x80
	if zero.Cmp(one) != -1 || one.Cmp(zero) != 1 || zero.Cmp(zero) != 0 {
		t.Fatal("basic Cmp wrong")
	}
	if one.Cmp(big) != -1 {
		t.Fatal("msb comparison wrong")
	}
	if !zero.Less(one) || one.Less(zero) {
		t.Fatal("Less wrong")
	}
}

func TestAddSub(t *testing.T) {
	a := Rand(1)
	b := Rand(2)
	if a.Add(b).Sub(b) != a {
		t.Fatal("(a+b)-b != a")
	}
	if a.Sub(a) != Zero {
		t.Fatal("a-a != 0")
	}
	// Carry across the 64-bit boundary.
	var low Node
	for i := 8; i < NodeBytes; i++ {
		low[i] = 0xff
	}
	one := Node{}
	one[NodeBytes-1] = 1
	sum := low.Add(one)
	want := Node{}
	want[7] = 1
	if sum != want {
		t.Fatalf("carry: got %v want %v", sum, want)
	}
}

func TestSubWraps(t *testing.T) {
	one := Node{}
	one[NodeBytes-1] = 1
	got := Zero.Sub(one)
	var want Node
	for i := range want {
		want[i] = 0xff
	}
	if got != want {
		t.Fatalf("0-1 should wrap to all-ones, got %v", got)
	}
}

func TestDistSymmetric(t *testing.T) {
	a := Rand(10)
	b := Rand(11)
	if a.Dist(b) != b.Dist(a) {
		t.Fatal("Dist not symmetric")
	}
	if a.Dist(a) != Zero {
		t.Fatal("Dist(a,a) != 0")
	}
}

func TestDistTakesShortWay(t *testing.T) {
	// 1 and 2^128-1 are distance 2 apart around the ring.
	one := Node{}
	one[NodeBytes-1] = 1
	var max Node
	for i := range max {
		max[i] = 0xff
	}
	d := one.Dist(max)
	two := Node{}
	two[NodeBytes-1] = 2
	if d != two {
		t.Fatalf("ring distance 1..max = %v, want 2", d)
	}
}

func TestCloserTotalOrder(t *testing.T) {
	target := Rand(100)
	a := Rand(101)
	b := Rand(102)
	if Closer(target, a, b) && Closer(target, b, a) {
		t.Fatal("Closer cannot hold both ways")
	}
	if Closer(target, a, a) {
		t.Fatal("Closer(x,x) must be false")
	}
}

func TestCloserTieBreak(t *testing.T) {
	// a and b equidistant on opposite sides of target.
	target := Rand(55)
	delta := Node{}
	delta[NodeBytes-1] = 9
	a := target.Add(delta)
	b := target.Sub(delta)
	// Exactly one of Closer(t,a,b), Closer(t,b,a) must hold.
	x := Closer(target, a, b)
	y := Closer(target, b, a)
	if x == y {
		t.Fatalf("tie break must pick exactly one: %v %v", x, y)
	}
	// And it must pick the numerically smaller one.
	if a.Less(b) && !x {
		t.Fatal("tie should favour a (smaller)")
	}
	if b.Less(a) && !y {
		t.Fatal("tie should favour b (smaller)")
	}
}

func TestBetween(t *testing.T) {
	a := Rand(1)
	b := a.Add(Rand(2).Rsh1()) // some point clockwise of a
	mid := Mid(a, b)
	if !Between(mid, a, b) {
		t.Fatal("midpoint must be between")
	}
	if !Between(b, a, b) {
		t.Fatal("arc is inclusive of b")
	}
	if Between(a, a, b) {
		t.Fatal("arc is exclusive of a")
	}
	if Between(b.Add(Rand(9)), a, b) == Between(a, a, b) && Between(b.Add(Rand(9)), a, b) {
		t.Log("point past b may wrap; just ensure no panic")
	}
}

func TestBetweenFullRing(t *testing.T) {
	a := Rand(3)
	if Between(a, a, a) {
		t.Fatal("a not in (a,a]")
	}
	if !Between(a.Add(Rand(4)), a, a) {
		t.Fatal("everything else is in (a,a]")
	}
}

func TestDigit(t *testing.T) {
	var n Node
	n[0] = 0xAB // digits base16: A, B
	n[1] = 0xCD
	if n.Digit(0, 4) != 0xA || n.Digit(1, 4) != 0xB || n.Digit(2, 4) != 0xC || n.Digit(3, 4) != 0xD {
		t.Fatalf("base-16 digits wrong: %x %x %x %x", n.Digit(0, 4), n.Digit(1, 4), n.Digit(2, 4), n.Digit(3, 4))
	}
	// Base 2: bits of 0xAB = 10101011
	wantBits := []int{1, 0, 1, 0, 1, 0, 1, 1}
	for i, w := range wantBits {
		if n.Digit(i, 1) != w {
			t.Fatalf("bit %d = %d want %d", i, n.Digit(i, 1), w)
		}
	}
	// Base 4: 0xAB -> 10 10 10 11 -> 2,2,2,3
	want4 := []int{2, 2, 2, 3}
	for i, w := range want4 {
		if n.Digit(i, 2) != w {
			t.Fatalf("base-4 digit %d = %d want %d", i, n.Digit(i, 2), w)
		}
	}
}

func TestDigitFile(t *testing.T) {
	var f File
	f[0] = 0x5E
	if f.Digit(0, 4) != 0x5 || f.Digit(1, 4) != 0xE {
		t.Fatal("file digit extraction wrong")
	}
}

func TestSetDigit(t *testing.T) {
	n := Rand(77)
	for b := 1; b <= 8; b *= 2 {
		for i := 0; i < NumDigits(b); i += 3 {
			v := (i * 7) % (1 << b)
			m := n.SetDigit(i, b, v)
			if m.Digit(i, b) != v {
				t.Fatalf("SetDigit(%d, b=%d, %d) readback = %d", i, b, v, m.Digit(i, b))
			}
			// Other digits unchanged.
			for j := 0; j < NumDigits(b); j++ {
				if j != i && m.Digit(j, b) != n.Digit(j, b) {
					t.Fatalf("SetDigit disturbed digit %d", j)
				}
			}
		}
	}
}

func TestCommonPrefix(t *testing.T) {
	a := Rand(5)
	if CommonPrefix(a, a, 4) != NumDigits(4) {
		t.Fatal("identical ids share all digits")
	}
	b := a
	b[0] ^= 0x80 // flip the very first bit
	if CommonPrefix(a, b, 4) != 0 {
		t.Fatal("first-bit flip means zero shared digits")
	}
	c := a
	c[2] ^= 0x01 // flip bit 23 -> 23/4 = 5 shared hex digits
	if got := CommonPrefix(a, c, 4); got != 5 {
		t.Fatalf("CommonPrefix = %d, want 5", got)
	}
}

func TestCommonPrefixConsistentWithDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 200; iter++ {
		a := Rand(rng.Uint64())
		b := Rand(rng.Uint64())
		for _, bb := range []int{1, 2, 4, 8} {
			p := CommonPrefix(a, b, bb)
			for i := 0; i < p; i++ {
				if a.Digit(i, bb) != b.Digit(i, bb) {
					t.Fatalf("prefix claims digit %d equal but differs (b=%d)", i, bb)
				}
			}
			if p < NumDigits(bb) && a.Digit(p, bb) == b.Digit(p, bb) {
				t.Fatalf("digit %d equal but prefix stopped (b=%d)", p, bb)
			}
		}
	}
}

func TestMid(t *testing.T) {
	a := Rand(1)
	d := Node{}
	d[NodeBytes-1] = 100
	b := a.Add(d)
	m := Mid(a, b)
	want := a.Add(Node{}.SetDigit(NumDigits(4)-2, 4, 3).SetDigit(NumDigits(4)-1, 4, 2)) // 0x32 = 50
	if m != want {
		t.Fatalf("Mid = %v want %v", m, want)
	}
}

func TestRandDeterministic(t *testing.T) {
	if Rand(9) != Rand(9) {
		t.Fatal("Rand not deterministic")
	}
	if Rand(9) == Rand(10) {
		t.Fatal("Rand seeds collide")
	}
	if RandFile(9) != RandFile(9) {
		t.Fatal("RandFile not deterministic")
	}
}

func TestShortStrings(t *testing.T) {
	n := Rand(1)
	if len(n.Short()) != 8 || len(n.String()) != 32 {
		t.Fatalf("string lengths: %d %d", len(n.Short()), len(n.String()))
	}
	f := RandFile(1)
	if len(f.Short()) != 8 || len(f.String()) != 40 {
		t.Fatalf("file string lengths: %d %d", len(f.Short()), len(f.String()))
	}
}

func TestIsZero(t *testing.T) {
	if !Zero.IsZero() {
		t.Fatal("Zero.IsZero false")
	}
	if Rand(3).IsZero() {
		t.Fatal("random id reported zero")
	}
}

// Property-based tests on the ring arithmetic.

func nodeFromQuick(x, y uint64) Node { return fromWords(x, y) }

func TestQuickAddCommutes(t *testing.T) {
	f := func(a1, a2, b1, b2 uint64) bool {
		a := nodeFromQuick(a1, a2)
		b := nodeFromQuick(b1, b2)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(a1, a2, b1, b2 uint64) bool {
		a := nodeFromQuick(a1, a2)
		b := nodeFromQuick(b1, b2)
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistBounds(t *testing.T) {
	half := fromWords(1<<63, 0)
	f := func(a1, a2, b1, b2 uint64) bool {
		a := nodeFromQuick(a1, a2)
		b := nodeFromQuick(b1, b2)
		d := a.Dist(b)
		// Ring distance is at most 2^127.
		return d.Cmp(half) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistTriangleOnLine(t *testing.T) {
	// For points in order a, a+x, a+x+y with small x,y the clockwise
	// distances add up.
	f := func(a1, a2 uint64, x32, y32 uint32) bool {
		a := nodeFromQuick(a1, a2)
		x := fromWords(0, uint64(x32))
		y := fromWords(0, uint64(y32))
		b := a.Add(x)
		c := b.Add(y)
		return a.CW(c) == a.CW(b).Add(b.CW(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDigitRoundTrip(t *testing.T) {
	f := func(a1, a2 uint64, iRaw, vRaw uint8) bool {
		const b = 4
		n := nodeFromQuick(a1, a2)
		i := int(iRaw) % NumDigits(b)
		v := int(vRaw) % (1 << b)
		return n.SetDigit(i, b, v).Digit(i, b) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBetweenArcPartition(t *testing.T) {
	// Every x != a is either in (a,b] or in (b,a] but not both, when a != b.
	f := func(a1, a2, b1, b2, x1, x2 uint64) bool {
		a := nodeFromQuick(a1, a2)
		b := nodeFromQuick(b1, b2)
		x := nodeFromQuick(x1, x2)
		if a == b {
			return true
		}
		in1 := Between(x, a, b)
		in2 := Between(x, b, a)
		if x == a {
			return !in1 && in2 || x == b
		}
		if x == b {
			return in1 && !in2
		}
		return in1 != in2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDigit(b *testing.B) {
	n := Rand(1)
	for i := 0; i < b.N; i++ {
		_ = n.Digit(i%32, 4)
	}
}

func BenchmarkCommonPrefix(b *testing.B) {
	x := Rand(1)
	y := Rand(2)
	for i := 0; i < b.N; i++ {
		_ = CommonPrefix(x, y, 4)
	}
}

func BenchmarkDist(b *testing.B) {
	x := Rand(1)
	y := Rand(2)
	for i := 0; i < b.N; i++ {
		_ = x.Dist(y)
	}
}
