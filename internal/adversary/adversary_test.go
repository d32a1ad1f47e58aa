package adversary

import (
	"sort"
	"testing"
)

// TestPickDeterministic pins the selection contract the adversarial
// experiments rely on: Pick is a pure function of (seed, n, frac) — same
// inputs, same victims — while different seeds pick different sets.
func TestPickDeterministic(t *testing.T) {
	a := Pick(42, 64, 0.3)
	b := Pick(42, 64, 0.3)
	if len(a) != len(b) {
		t.Fatalf("same inputs, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same inputs diverge at %d: %v vs %v", i, a, b)
		}
	}
	c := Pick(43, 64, 0.3)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds picked identical victim sets")
	}
}

// TestPickShape checks rounding, bounds, sortedness and uniqueness.
func TestPickShape(t *testing.T) {
	cases := []struct {
		n     int
		frac  float64
		count int
	}{
		{64, 0, 0},
		{64, 0.3, 19}, // round(19.2)
		{64, 0.4, 26}, // round(25.6)
		{10, 0.05, 1}, // round(0.5) rounds up
		{10, 1.0, 10}, // everyone
		{10, 2.0, 10}, // clamped
		{10, -0.5, 0}, // clamped
	}
	for _, tc := range cases {
		got := Pick(7, tc.n, tc.frac)
		if len(got) != tc.count {
			t.Errorf("Pick(7, %d, %.2f) chose %d victims, want %d", tc.n, tc.frac, len(got), tc.count)
			continue
		}
		if !sort.IntsAreSorted(got) {
			t.Errorf("Pick(7, %d, %.2f) not sorted: %v", tc.n, tc.frac, got)
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Errorf("victim %d out of [0,%d)", v, tc.n)
			}
			if seen[v] {
				t.Errorf("duplicate victim %d", v)
			}
			seen[v] = true
		}
	}
}

// TestRngForIndependentStreams checks per-node streams differ: adjacent
// node indexes must not share an adversarial coin sequence.
func TestRngForIndependentStreams(t *testing.T) {
	a, b := rngFor(42, 3), rngFor(42, 4)
	same := 0
	for i := 0; i < 16; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same == 16 {
		t.Fatal("adjacent node indexes share an adversarial stream")
	}
	// Same (seed, index) replays the same stream.
	c, d := rngFor(42, 3), rngFor(42, 3)
	for i := 0; i < 16; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("same (seed, index) produced different streams")
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		Dropper:   "dropper",
		Misrouter: "misrouter",
		Forger:    "forger",
		FreeRider: "free-rider",
		Policy(9): "unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Policy(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}
