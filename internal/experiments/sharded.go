package experiments

// Shard count of the experiments' simulated networks.
//
// The grid experiments (E1/E6/E7/E10/E11/A1/A2) parallelize across data
// points (see parallel.go). The phase experiments — E2-E5, E8, E9,
// E12-E21 — drive ONE long-lived cluster through sequential phases, so
// the only way to use more than one core is to parallelize inside the
// simulation: the cluster's nodes are partitioned by transit domain and
// each conservative window advances all shards concurrently to a common
// virtual-time horizon. Every experiment builds its cluster through
// clusterOptions, so both kinds take the shard count below.
//
// Because the simulator's event ordering, tiebreaks and randomness are
// derived per endpoint (never from cross-shard scheduling), an
// experiment's tables are byte-identical for any shard count at a fixed
// seed; sharded_test.go asserts this at shards=1,2,4. Shards therefore
// only selects parallelism, and defaults to the core count.

import "runtime"

// Shards is the shard count the experiments request from the simulator.
// Results are byte-identical for any value; cmd/pastsim exposes it as
// -shards, and the determinism test sweeps it.
var Shards = runtime.GOMAXPROCS(0)

// WindowWorkers overrides the simulator's persistent worker pool size
// (cluster.Options.WindowWorkers). Zero — the default — sizes the pool
// automatically from GOMAXPROCS; the worker-pool determinism test forces
// it above 1 so the phased barrier is exercised even on a single-core
// host. Results are byte-identical for any value.
var WindowWorkers = 0
