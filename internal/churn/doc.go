// Package churn generates and replays deterministic dynamic-membership
// workloads: the continuous node arrival, graceful departure and silent
// failure under which PAST's storage invariant — k copies on the k
// numerically closest live nodes — must hold (section 2.1,
// "Persistence").
//
// The package has two halves:
//
//   - Trace generation (Generate): a process model with Poisson arrivals
//     of brand-new nodes and heavy-tailed (lognormal or Pareto) session
//     lengths, reduced to a concrete, replayable event sequence by a
//     private seeded random stream. A trace is a pure function of its
//     Config — it does not involve the simulator.
//     Traces serialize to a line-oriented text format (Trace.String /
//     Parse) so recorded or hand-written schedules replay identically.
//
//   - Replay (Driver): applies a trace onto a running cluster. Every
//     membership change executes on the coordinating goroutine between
//     simulation runs — the driver advances the network to the event's
//     virtual time (a window barrier) and calls cluster.AddNode /
//     Leave / Crash there. Because nothing churn-related ever runs
//     inside a window, a replay is as reproducible as the simulator:
//     byte-identical results for a fixed seed (see ARCHITECTURE.md,
//     "Churn engine").
//
// Experiments E15–E17 build on this package: lookup availability vs
// churn rate, anti-entropy vs push-all maintenance bandwidth, and
// replica-count durability over a long horizon.
package churn
