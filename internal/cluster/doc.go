// Package cluster assembles simulated PAST networks: a topology, a
// discrete-event network, and N Pastry nodes built by running the real
// join protocol sequentially (the methodology the Pastry evaluation
// assumes — each node arrives, locates a proximally nearby contact, and
// joins before the next arrival). Tests, benchmarks and the experiment
// harness all build networks through this package so they exercise
// identical code.
//
// Besides construction, the package provides the experiment harness's
// ground-truth oracle (NumericallyClosest/KClosest over live membership,
// "the node whose nodeId is numerically closest ... among all live
// nodes"), the failure model of section 2.2 (Crash/Restart, EnableProbes
// for transport-level failure detection), and deterministic randomness
// shared by a whole experiment run.
//
// Every build wires simnet the same way: the topology's latency floor
// between transit domains becomes the window length (the barrier period
// at which RunUntil stops, telemetry ticks and churn applies), and each
// node runs on its own endpoint's clock so its timers are keyed by it.
//
// BuildPAST (past.go) is the one builder of simulated PAST networks: the
// deterministic broker and smartcard identities, one past.Node per
// overlay node, and the synchronous Insert/Lookup/Reclaim drivers that
// the facade, the experiments, the conformance harness and the tests
// share.
package cluster
