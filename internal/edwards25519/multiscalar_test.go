package edwards25519

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// randScalar derives a uniformly distributed scalar from the test RNG.
func randScalar(t *testing.T, rng *rand.Rand) *Scalar {
	t.Helper()
	var buf [64]byte
	rng.Read(buf[:])
	s, err := new(Scalar).SetUniformBytes(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randPoint returns a random multiple of the basepoint.
func randPoint(t *testing.T, rng *rand.Rand) *Point {
	t.Helper()
	return new(Point).ScalarBaseMult(randScalar(t, rng))
}

// scalarFromBig encodes 0 <= x < l as a Scalar.
func scalarFromBig(t *testing.T, x *big.Int) *Scalar {
	t.Helper()
	buf := x.FillBytes(make([]byte, 32))
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	s, err := new(Scalar).SetCanonicalBytes(buf)
	if err != nil {
		t.Fatalf("scalar %v: %v", x, err)
	}
	return s
}

// edgeScalars are scalars whose NAF digits sit on or straddle the edges
// of the split table's splitBits-bit chunks: for each edge 2^e, the
// values 2^e − 1, 2^e and 2^e + 1, where a carry out of one chunk lands
// as the lowest digit of the next; plus 0, 1 and l − 1.
func edgeScalars(t *testing.T) []*Scalar {
	t.Helper()
	one := big.NewInt(1)
	l, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	xs := []*big.Int{big.NewInt(0), one, new(big.Int).Sub(l, one)}
	for j := 1; j < splitWays; j++ {
		edge := new(big.Int).Lsh(one, uint(j*splitBits))
		xs = append(xs, new(big.Int).Sub(edge, one), edge, new(big.Int).Add(edge, one))
	}
	var out []*Scalar
	for _, x := range xs {
		out = append(out, scalarFromBig(t, x))
	}
	return out
}

// TestVarTimeDoubleBaseMultTable pins the split-table double-scalar
// multiplication against the vendored VarTimeDoubleScalarBaseMult, on
// random inputs and on every pairing of the chunk-edge scalars, with the
// identity among the points.
func TestVarTimeDoubleBaseMultTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, a *Scalar, A *Point, b *Scalar) {
		t.Helper()
		want := new(Point).VarTimeDoubleScalarBaseMult(a, A, b)
		var table VarTimeTable
		table.Init(A)
		got := new(Point).VarTimeDoubleBaseMultTable(a, &table, b)
		if got.Equal(want) != 1 {
			t.Fatalf("%s: table path diverges from VarTimeDoubleScalarBaseMult", name)
		}
	}
	for trial := 0; trial < 50; trial++ {
		check(fmt.Sprintf("trial %d", trial), randScalar(t, rng), randPoint(t, rng), randScalar(t, rng))
	}
	edges := edgeScalars(t)
	for _, A := range []*Point{randPoint(t, rng), NewIdentityPoint(), NewGeneratorPoint()} {
		for i, a := range edges {
			for j, b := range edges {
				check(fmt.Sprintf("edge a=%d b=%d", i, j), a, A, b)
			}
			check(fmt.Sprintf("edge a=%d, random b", i), a, A, randScalar(t, rng))
			check(fmt.Sprintf("random a, edge b=%d", i), randScalar(t, rng), A, a)
		}
	}
}

// TestBytesInto checks the allocation-free encoder against Bytes.
func TestBytesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		P := randPoint(t, rng)
		var buf [32]byte
		if !bytes.Equal(P.BytesInto(&buf), P.Bytes()) {
			t.Fatalf("trial %d: BytesInto != Bytes", trial)
		}
	}
}
