package edwards25519

import "sync"

// Local additions to the vendored core: a split table that callers can
// cache per public key, the matching split table of the basepoint, and a
// double-base multiplication that uses both. Everything here is
// variable-time and must only be used with public inputs (signatures,
// public keys), never with secrets.
//
// The split is Lim and Lee's fixed-base precomputation ("More flexible
// exponentiation with precomputation", CRYPTO '94): with tables of P,
// 2^32·P, 2^64·P, …, 2^224·P, the NAF digit of a scalar at bit 32j + i
// is a digit of table j at bit i, so the eight slices share one 32-step
// doubling chain instead of one 256-step chain. The additions do not
// change with the split; each way doubles the tables' memory. Sixteen
// ways would save about 8 % more per cached verification but make a
// key's first sighting about a fifth dearer and halve the keys a fixed
// cache holds.

const (
	splitWays = 8
	splitBits = 256 / splitWays
)

// splitMultiples returns 2^(splitBits·j)·p for j = 0 … splitWays−1.
func splitMultiples(p *Point) (out [splitWays]Point) {
	out[0].Set(p)
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	for j := 1; j < splitWays; j++ {
		tmp2.FromP3(&out[j-1])
		for i := 0; i < splitBits; i++ {
			tmp1.Double(tmp2)
			tmp2.FromP1xP1(tmp1)
		}
		out[j].fromP1xP1(tmp1)
	}
	return out
}

// VarTimeTable is a precomputed split table of a fixed point A: the
// NAF-5 odd multiples of A, 2^32·A, 2^64·A, …, 2^224·A, 8 × 8 entries
// (10 KiB). Building one costs 224 doublings and 64 additions, about
// what two or three verifications with it cost; callers that verify
// repeatedly under the same public key build it once and reuse it (see
// internal/seccrypt's public-key cache).
type VarTimeTable struct {
	tables [splitWays]nafLookupTable5
}

// Init precomputes the table for p.
func (t *VarTimeTable) Init(p *Point) {
	checkInitialized(p)
	multiples := splitMultiples(p)
	for j := range t.tables {
		t.tables[j].FromP3(&multiples[j])
	}
}

// basepointSplitTable holds the NAF-8 tables of B, 2^32·B, 2^64·B, …,
// 2^224·B (60 KiB), built the first time it is used.
func basepointSplitTable() *[splitWays]nafLookupTable8 {
	basepointSplitPrecomp.initOnce.Do(func() {
		multiples := splitMultiples(NewGeneratorPoint())
		for j := range basepointSplitPrecomp.tables {
			basepointSplitPrecomp.tables[j].FromP3(&multiples[j])
		}
	})
	return &basepointSplitPrecomp.tables
}

var basepointSplitPrecomp struct {
	tables   [splitWays]nafLookupTable8
	initOnce sync.Once
}

// VarTimeDoubleBaseMultTable sets v = a * A + b * B, where B is the
// canonical generator and aTable is A's split table, and returns v. It
// computes what VarTimeDoubleScalarBaseMult does with 32 doublings
// instead of 256 and the same additions.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeDoubleBaseMultTable(a *Scalar, aTable *VarTimeTable, b *Scalar) *Point {
	bTables := basepointSplitTable()
	aNaf := a.nonAdjacentForm(5)
	bNaf := b.nonAdjacentForm(8)

	multA := &projCached{}
	multB := &affineCached{}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()

	for i := splitBits - 1; i >= 0; i-- {
		tmp1.Double(tmp2)

		for j := 0; j < splitWays; j++ {
			if d := aNaf[j*splitBits+i]; d > 0 {
				v.fromP1xP1(tmp1)
				aTable.tables[j].SelectInto(multA, d)
				tmp1.Add(v, multA)
			} else if d < 0 {
				v.fromP1xP1(tmp1)
				aTable.tables[j].SelectInto(multA, -d)
				tmp1.Sub(v, multA)
			}

			if d := bNaf[j*splitBits+i]; d > 0 {
				v.fromP1xP1(tmp1)
				bTables[j].SelectInto(multB, d)
				tmp1.AddAffine(v, multB)
			} else if d < 0 {
				v.fromP1xP1(tmp1)
				bTables[j].SelectInto(multB, -d)
				tmp1.SubAffine(v, multB)
			}
		}

		tmp2.FromP1xP1(tmp1)
	}

	v.fromP2(tmp2)
	return v
}

// BytesInto writes the canonical 32-byte encoding of v into buf and
// returns it, avoiding the allocation Bytes incurs when its local
// buffer escapes.
func (v *Point) BytesInto(buf *[32]byte) []byte {
	return v.bytes(buf)
}
