// Package chaos is a deterministic fault-injecting TCP proxy for the
// real-network harness: it sits between pastnode processes (every node
// dials its peers through the proxy via transport.TCPOptions.DialVia) and
// applies a seed-pinned schedule of link faults — per-frame drop
// probability, added latency and jitter, connection resets, bandwidth
// caps, and full bidirectional partitions with timed heal.
//
// Determinism contract: every probabilistic decision is a pure function
// of (schedule seed, link, frame index) — no shared RNG state, no
// wall-clock input — so for a given seed the n-th frame on a link is
// dropped (or jittered by the same fraction) on every run, regardless of
// goroutine scheduling or timing. The proxy's FaultLog serializes those
// decisions per link; Drops recomputes them offline, letting tests assert
// the log replays byte-identically for the same seed.
//
// The proxy understands the transport's framing (4-byte length prefix +
// payload) and drops whole frames, never partial bytes: a dropped frame
// models a lost datagram, exactly matching the silent-loss semantics the
// protocol layer is built to tolerate, while the byte stream around it
// stays decodable.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Link names one direction of one node pair, by the transport addresses
// the nodes announce (the same strings the via preamble carries).
type Link struct {
	From, To string
}

func (l Link) String() string { return l.From + "->" + l.To }

// LinkRule is the steady-state fault set applied to one link direction.
// The zero value is a transparent link.
type LinkRule struct {
	// Drop is the per-frame drop probability in [0, 1).
	Drop float64
	// Latency is added one-way delay per frame (and per connection
	// handshake), Jitter the upper bound of additional delay drawn
	// deterministically per frame in [0, Jitter).
	Latency, Jitter time.Duration
	// ResetEvery, when > 0, hard-resets the connection after every n-th
	// forwarded frame on the link — the repeating-RST gray failure.
	ResetEvery int
	// BytesPerSec, when > 0, caps the link's forwarding rate.
	BytesPerSec int64
}

// Window is a scheduled bidirectional partition: links crossing between
// groups A and B are fully cut from From to Until (relative to the
// proxy's Start), then heal. A node listed in neither group is unaffected.
type Window struct {
	From, Until time.Duration
	A, B        []string
}

// Schedule is the seed-pinned fault plan for one proxy.
type Schedule struct {
	// Seed pins every probabilistic decision; two proxies with the same
	// schedule replay the same fault trajectory.
	Seed int64
	// Default applies to every link without an explicit override.
	Default LinkRule
	// Links overrides the default per directed link.
	Links map[Link]LinkRule
	// Windows are timed partitions relative to Start.
	Windows []Window
}

// RuleFor returns the rule governing one link direction.
func (s *Schedule) RuleFor(l Link) LinkRule {
	if r, ok := s.Links[l]; ok {
		return r
	}
	return s.Default
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix, here used as a stateless hash so fault decisions need no
// shared RNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// linkSeed folds the schedule seed and the link name into one stream seed.
func linkSeed(seed int64, l Link) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64
	for _, b := range []byte(l.String()) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return splitmix64(uint64(seed) ^ h)
}

// frac maps a hash to [0, 1) with 53 bits of precision.
func frac(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// dropFrame reports the deterministic drop decision for frame idx of a
// link stream.
func dropFrame(ls uint64, idx uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	return frac(splitmix64(ls^(idx*0x9e3779b97f4a7c15))) < p
}

// jitterFor returns the deterministic jitter for frame idx in [0, max).
func jitterFor(ls uint64, idx uint64, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(frac(splitmix64(ls^(idx*0x9e3779b97f4a7c15)+1)) * float64(max))
}

// Drops recomputes, offline, which of the first n frames on link l a
// proxy running schedule seed/rule drops. FaultLog is built from exactly
// this function, so a test that counts frames per link can assert the
// live log byte-identically.
func Drops(seed int64, l Link, rule LinkRule, n uint64) []uint64 {
	ls := linkSeed(seed, l)
	var out []uint64
	for i := uint64(0); i < n; i++ {
		if dropFrame(ls, i, rule.Drop) {
			out = append(out, i)
		}
	}
	return out
}

// FormatLinkLog renders one link's fault-log line: the frame count plus
// the exact dropped indexes. Deterministic for a given (seed, link, n).
func FormatLinkLog(seed int64, l Link, rule LinkRule, n uint64) string {
	drops := Drops(seed, l, rule, n)
	var b strings.Builder
	fmt.Fprintf(&b, "link %s frames=%d drops=%d [", l, n, len(drops))
	for i, d := range drops {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte(']')
	return b.String()
}

// ExpectedLog recomputes, offline, the fault log a proxy running sched
// must have produced after forwarding the given per-link frame counts:
// the byte-identical replay oracle. Callers read the counts from
// Proxy.Stats() and compare against Proxy.FaultLog().
func ExpectedLog(sched Schedule, frames map[Link]uint64) string {
	lines := make(map[Link]string, len(frames))
	for l, n := range frames {
		lines[l] = FormatLinkLog(sched.Seed, l, sched.RuleFor(l), n)
	}
	return formatLog(sched.Seed, lines)
}

// cut reports whether the (unordered) node pair crosses the A/B split.
func cut(from, to string, a, b []string) bool {
	in := func(x string, g []string) bool {
		for _, m := range g {
			if m == x {
				return true
			}
		}
		return false
	}
	return (in(from, a) && in(to, b)) || (in(from, b) && in(to, a))
}

// formatLog assembles the full fault log: a seed header plus one line per
// link, sorted by link name so map iteration order never leaks in.
func formatLog(seed int64, lines map[Link]string) string {
	keys := make([]Link, 0, len(lines))
	for l := range lines {
		keys = append(keys, l)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d links=%d\n", seed, len(keys))
	for _, l := range keys {
		b.WriteString(lines[l])
		b.WriteByte('\n')
	}
	return b.String()
}
