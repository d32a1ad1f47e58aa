package transport

import (
	"math"
	"sync/atomic"
	"time"
)

// The dial circuit breaker. After breakerThreshold consecutive failed
// dials to one address the address is open: sends to it are dropped
// without a dial, and Reachable reports false, so routing goes around it.
// The first use of the address after the cooldown dials it again (the
// half-open attempt): a successful dial closes the address, a failed one
// opens it again with the cooldown doubled, up to maxCooldown. So a dead
// address costs one dial per cooldown while something uses it, and none
// once nothing does.
const (
	breakerThreshold = 3
	firstCooldown    = 500 * time.Millisecond
	maxCooldown      = 2 * time.Second
)

// addrRecord is what the transport knows of one peer address beyond a
// connection: the last dial's RTT and the breaker's state. It is written
// under TCP.mu, by the address's one connection attempt at a time; rtt
// and openUntil are atomics so Proximity and Reachable read them bare.
type addrRecord struct {
	rtt       atomic.Uint64 // math.Float64bits of the last dial's RTT in ms; 0 while none succeeded since the last failure
	openUntil atomic.Int64  // UnixNano before which no dial starts; 0 while closed
	fails     int           // consecutive failed dials
	cooldown  time.Duration // the next open period
}

// proximity is the last dial's RTT in milliseconds, or far.
func (r *addrRecord) proximity() float64 {
	if b := r.rtt.Load(); b != 0 {
		return math.Float64frombits(b)
	}
	return far
}

// admit reports whether a dial to the address may start at now. An open
// address whose cooldown is over admits this one dial, the half-open
// attempt, and stays open while it runs, so that uses meanwhile neither
// dial again nor take a lock to learn so.
func (r *addrRecord) admit(now time.Time) bool {
	until := r.openUntil.Load()
	if until == 0 {
		return true
	}
	if now.UnixNano() < until {
		return false
	}
	r.openUntil.Store(now.Add(r.cooldown).UnixNano())
	return true
}

// failed records a failed dial at now and reports whether it opened the
// address: the threshold's failure, or any failure after it (a failed
// half-open attempt).
func (r *addrRecord) failed(now time.Time) bool {
	r.rtt.Store(0)
	r.fails++
	if r.fails < breakerThreshold {
		return false
	}
	r.cooldown = max(r.cooldown, firstCooldown)
	r.openUntil.Store(now.Add(r.cooldown).UnixNano())
	r.cooldown = min(2*r.cooldown, maxCooldown)
	return true
}

// dialled records a successful dial's RTT and closes the address.
func (r *addrRecord) dialled(rtt time.Duration) {
	r.rtt.Store(math.Float64bits(max(float64(rtt)/float64(time.Millisecond), 0.01)))
	r.fails, r.cooldown = 0, 0
	r.openUntil.Store(0)
}
