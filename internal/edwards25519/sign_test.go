package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"math/rand"
	"testing"
)

// TestSignMatchesStdlib pins the signer to crypto/ed25519.Sign, byte for
// byte, over random keys and messages of every length around the stack
// buffer's edge.
func TestSignMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		seed := make([]byte, ed25519.SeedSize)
		rng.Read(seed)
		msg := make([]byte, rng.Intn(300))
		rng.Read(msg)
		priv := ed25519.NewKeyFromSeed(seed)
		got := NewSigningKey((*[64]byte)(priv)).Sign(msg)
		if want := ed25519.Sign(priv, msg); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (msg %d B): signature %x, crypto/ed25519 %x", trial, len(msg), got, want)
		}
	}
}

// TestSignAllocs checks that a signature of a short body costs one
// allocation, the returned signature.
func TestSignAllocs(t *testing.T) {
	k := NewSigningKey((*[64]byte)(ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))))
	msg := make([]byte, 150)
	if n := testing.AllocsPerRun(20, func() { signSink = k.Sign(msg) }); n != 1 {
		t.Fatalf("Sign allocates %v times, want 1", n)
	}
}

var signSink []byte

// FuzzSignMatchesStdlib: for any seed and message, the signer's output
// equals crypto/ed25519.Sign's.
func FuzzSignMatchesStdlib(f *testing.F) {
	f.Add(make([]byte, ed25519.SeedSize), []byte(""))
	f.Add(bytes.Repeat([]byte{0xff}, ed25519.SeedSize), []byte("file certificate"))
	f.Add([]byte("0123456789abcdef0123456789abcdef"), bytes.Repeat([]byte{7}, 1000))
	f.Fuzz(func(t *testing.T, seed, msg []byte) {
		var s [ed25519.SeedSize]byte
		copy(s[:], seed)
		priv := ed25519.NewKeyFromSeed(s[:])
		if got, want := NewSigningKey((*[64]byte)(priv)).Sign(msg), ed25519.Sign(priv, msg); !bytes.Equal(got, want) {
			t.Fatalf("seed %x msg %x: signature %x, crypto/ed25519 %x", s, msg, got, want)
		}
	})
}

// BenchmarkSign prices one signature of a certificate-sized body from an
// expanded key; BenchmarkSignStdlib is crypto/ed25519.Sign on the same.
func BenchmarkSign(b *testing.B) {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	k := NewSigningKey((*[64]byte)(priv))
	msg := make([]byte, 150)
	b.ReportAllocs()
	for b.Loop() {
		signSink = k.Sign(msg)
	}
}

func BenchmarkSignStdlib(b *testing.B) {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := make([]byte, 150)
	b.ReportAllocs()
	for b.Loop() {
		signSink = ed25519.Sign(priv, msg)
	}
}
