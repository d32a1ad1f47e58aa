package simnet

import (
	"fmt"
	"testing"
	"time"

	"past/internal/wire"
)

// shardTrial builds a 12-endpoint network with 3 regions (intra-region
// distance ~1ms, inter-region >= 10ms, jitter and loss enabled), drives a
// message/timer workload through RunUntil, RunFor and RunUntilIdle, and
// returns a per-endpoint trace of everything each endpoint observed plus
// the global counters. The trace must be byte-identical at any shard
// count.
func shardTrial(t *testing.T, shards int) string {
	t.Helper()
	const nEp = 12
	const regions = 3
	region := func(i int) int { return i % regions }
	dist := func(a, b int) float64 {
		if a == b {
			return 0
		}
		if region(a) == region(b) {
			return 1 + 0.01*float64(a+b)
		}
		return 10 + float64(a%3) + float64(b%5)
	}
	n := New(Config{
		Seed:       7,
		JitterFrac: 0.2,
		DropProb:   0.05,
		Shards:     shards,
		RegionOf:   region,
		Lookahead:  10 * time.Millisecond,
	}, dist)

	logs := make([]string, nEp)
	eps := make([]*Endpoint, nEp)
	for i := 0; i < nEp; i++ {
		eps[i] = n.NewEndpoint()
	}
	// Per-endpoint delivery counters: each is written only by its own
	// shard's worker; the RunUntil condition sums them at window barriers,
	// where all shards are quiescent.
	delivered := make([]int, nEp)
	for i := 0; i < nEp; i++ {
		i := i
		eps[i].SetHandler(func(from string, m wire.Msg) {
			p := m.(testMsg)
			logs[i] += fmt.Sprintf("[%d] t=%v from=%s n=%d\n", i, eps[i].Clock().Now(), from, p.N)
			delivered[i]++
			if p.N > 0 {
				// Forward across (and occasionally within) regions.
				eps[i].Send(Addr((i+p.N)%nEp), testMsg{p.N - 1})
				// And schedule a delayed local echo through the shard clock.
				tm := eps[i].Clock().AfterFunc(time.Duration(p.N)*time.Millisecond, func() {
					eps[i].Send(Addr((i+1)%nEp), testMsg{0})
				})
				if p.N%4 == 0 {
					tm.Stop() // exercise deterministic cancellation
				}
				tm.Release()
			}
		})
	}
	for i := 0; i < nEp; i++ {
		eps[i].Send(Addr((i+5)%nEp), testMsg{6})
	}
	n.RunUntil(func() bool {
		total := 0
		for _, d := range delivered {
			total += d
		}
		return total >= 20
	}, 1_000_000)
	n.RunFor(15 * time.Millisecond)
	n.RunUntilIdle()

	out := fmt.Sprintf("now=%v messages=%d test=%d\n", n.Now(), n.Messages(), n.MessagesByKind()["test"])
	for i := 0; i < nEp; i++ {
		out += logs[i]
	}
	return out
}

// TestShardedWindowInvariance is the engine-level determinism guarantee:
// one workload, one seed, byte-identical per-endpoint histories and
// counters at shards=1,2,3 — with jitter, loss, timers and cancellations
// all in play.
func TestShardedWindowInvariance(t *testing.T) {
	base := shardTrial(t, 1)
	for _, shards := range []int{2, 3} {
		if got := shardTrial(t, shards); got != base {
			t.Fatalf("shards=%d diverged from shards=1:\n--- shards=1:\n%s\n--- shards=%d:\n%s", shards, base, shards, got)
		}
	}
}

// TestShardedLookaheadRequired pins the configuration contract: with
// more than one shard the window bound is what keeps cross-shard arrivals
// out of a shard's past, so it must be given; one shard needs none.
func TestShardedLookaheadRequired(t *testing.T) {
	New(Config{Shards: 1}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Shards>1 with Lookahead<=0 should panic")
		}
	}()
	New(Config{Shards: 2}, nil)
}

// TestShardedCrossShardLatencyFloor documents the safety precondition:
// the workload's cross-region distances must respect the lookahead. (The
// scheduler itself never checks per-message latencies — the topology
// bound is the contract — so this test guards the test harness above.)
func TestShardedCrossShardLatencyFloor(t *testing.T) {
	region := func(i int) int { return i % 3 }
	dist := func(a, b int) float64 {
		if region(a) == region(b) {
			return 1
		}
		return 10
	}
	for a := 0; a < 12; a++ {
		for b := 0; b < 12; b++ {
			if a != b && region(a) != region(b) && dist(a, b) < 10 {
				t.Fatalf("cross-region pair (%d,%d) below lookahead", a, b)
			}
		}
	}
}

// TestTimerReleaseRecycles verifies that released timer handles are
// reused rather than reallocated, and that Release does not cancel a
// pending timer.
func TestTimerReleaseRecycles(t *testing.T) {
	n := New(Config{Seed: 1}, nil)
	fired := 0
	tm := n.AfterFunc(time.Millisecond, func() { fired++ })
	tm.Release() // release without Stop: timer must still fire
	tm2 := n.AfterFunc(2*time.Millisecond, func() { fired++ })
	if tm2 != tm {
		t.Fatal("released handle was not recycled")
	}
	n.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (Release must not cancel)", fired)
	}
	tm2.Release()
	tm2.Release() // double Release is a no-op, not a double free
	tm3 := n.AfterFunc(time.Millisecond, func() {})
	tm4 := n.AfterFunc(time.Millisecond, func() {})
	if tm3 == tm4 {
		t.Fatal("double Release handed the same handle out twice")
	}
}
