// Package transport defines the interfaces that decouple the Pastry and
// PAST protocol logic from how messages actually move: a deterministic
// discrete-event simulator (package simnet) for experiments, and a real
// TCP transport (this package's tcp.go) for deployments.
package transport

import (
	"time"

	"past/internal/wire"
)

// Handler receives an inbound message. Handlers must not block; slow work
// should be rescheduled via the Clock.
type Handler func(from string, m wire.Msg)

// Transport sends messages on behalf of one node. Send is asynchronous and
// unreliable (messages may be lost); reliability is the protocol's job.
type Transport interface {
	// Addr returns the local address other nodes use to reach this one.
	Addr() string
	// Send transmits m to the node at addr. It never blocks on the
	// network; delivery failures are silent, like UDP.
	Send(to string, m wire.Msg) error
	// SetHandler installs the inbound message handler. It must be called
	// exactly once before any message can be delivered.
	SetHandler(h Handler)
	// Proximity returns the scalar proximity metric (section 1, footnote:
	// "a scalar metric, such as the number of IP hops, geographic
	// distance...") between this node and addr, in milliseconds. It
	// never blocks: a metric that must be measured is measured in the
	// background, and the answer meanwhile is "far".
	Proximity(to string) float64
	// Close releases resources. After Close, Send returns an error.
	Close() error
}

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the timer; it reports whether the callback was still
	// pending.
	Stop() bool
	// Release returns the handle to its owner's pool for reuse, without
	// cancelling a still-pending callback. Callers that churn through
	// timers (request timeouts, keep-alive ticks) should Release handles
	// they are done with — after Stop, or from inside/after the fired
	// callback — so simulated timers recycle their handles the way the
	// simulator pools its events. A released handle must not be touched
	// again, and Release must be called at most once per handle.
	// Implementations for which pooling is meaningless treat it as a
	// no-op, so calling it is always safe under the contract above.
	Release()
}

// Clock abstracts time so protocol code runs identically under virtual
// (simulated) and wall-clock time.
type Clock interface {
	// Now returns elapsed time since an arbitrary epoch.
	Now() time.Duration
	// AfterFunc schedules f to run after d. In the simulator f runs on
	// the event loop; under the real clock it runs on its own goroutine.
	AfterFunc(d time.Duration, f func()) Timer
}

// RealClock is a Clock backed by package time.
type RealClock struct{ epoch time.Time }

// NewRealClock returns a Clock that reports time elapsed since now.
func NewRealClock() *RealClock { return &RealClock{epoch: time.Now()} }

// Now implements Clock.
func (c *RealClock) Now() time.Duration { return time.Since(c.epoch) }

// AfterFunc implements Clock.
func (c *RealClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }

// Release is a no-op: real timers are garbage collected.
func (r realTimer) Release() {}
