// Package edwards25519 implements group logic for the twisted Edwards
// curve -x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2 (edwards25519), the
// curve underlying the Ed25519 signature scheme.
//
// The core of this package (point/scalar arithmetic, lookup tables and
// the field subpackage) is vendored from the Go standard library's
// crypto/internal/fips140/edwards25519 — the same code published as
// filippo.io/edwards25519 — with the internal fips140 plumbing replaced
// by crypto/subtle and encoding/binary. It is vendored because PAST's
// hot path needs group-level access that crypto/ed25519 does not
// expose — a precomputed table per public key, so a repeat verification
// skips decompression and three quarters of its doublings (see
// internal/seccrypt) — and this repository builds without external
// module dependencies.
//
// Local additions on top of the vendored core live in multiscalar.go:
// the per-key split table, the basepoint's split table, and the
// double-base multiplication over both.
package edwards25519
