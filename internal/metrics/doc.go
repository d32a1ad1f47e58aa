// Package metrics provides the small statistics toolkit the experiment
// harness uses: streaming summaries (mean/percentiles/max), integer
// histograms, and the fixed-point Table renderer whose output is the
// byte-exact shape of every reproduced figure. Determinism matters more
// here than it may look: experiment tables are compared byte-for-byte
// across runs and parallelism settings (see internal/experiments), so
// rendering must be a pure function of the recorded values — no maps
// iterated in random order, no locale- or time-dependent formatting.
package metrics
