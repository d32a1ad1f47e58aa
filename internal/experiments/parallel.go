package experiments

// Parallel experiment engine.
//
// Most experiments are grids of fully independent data points: each point
// builds its own cluster (own simnet, own topology, own deterministic RNG
// streams derived from the experiment seed) and measures it. Nothing is
// shared between points except the process-wide seccrypt verification
// memo, which is lock-striped, thread-safe, and invisible to results
// (caching a signature check can never change its outcome). The engine
// below fans those points out over goroutines and reassembles rows in
// grid order, so a run's table is byte-for-byte identical to the
// sequential one regardless of how many cores execute it: determinism is
// per (seed, point), not per schedule.
//
// Experiments whose rows each build a fresh cluster (E15, E16, E18, E19,
// E21) fan their rows out the same way. Experiments that drive one
// long-lived cluster through phases (E2-E5, E8, E9, E12, E17, E20) run on
// one core: a simulation has one event loop.

import (
	"runtime"
	"sync"
)

// MaxParallel bounds how many experiment data points run concurrently.
// It defaults to the number of usable CPUs; tests may lower it to 1 to
// force sequential execution (results are identical either way).
var MaxParallel = runtime.GOMAXPROCS(0)

// Shards is read by nothing; the simulator has one event loop.
var Shards = 1

// forEachPoint runs job(0..n-1) concurrently, at most MaxParallel at a
// time, and returns once all complete. Jobs must be independent: they
// may not share clusters, RNGs or result slots. Callers index into
// preallocated result slices so assembly order never depends on
// scheduling.
func forEachPoint(n int, job func(i int)) {
	limit := MaxParallel
	if limit < 1 {
		limit = 1
	}
	if limit == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		go func(i int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			job(i)
		}(i)
	}
	wg.Wait()
}
