package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// render flattens a result into the bytes a report would show: table plus
// notes. Byte equality here is the acceptance bar for the simulator.
func render(r Result) string {
	var b strings.Builder
	b.WriteString(r.Table.String())
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestShardedDeterminism asserts the simulator's guarantee end to end: a
// phase experiment (E4, replica proximity — inserts, lookups, replica
// ranking on one 256-node cluster) and one grid experiment of each family
// (E1 on recorder overlays, E10 on PAST networks, their points fanned out
// by forEachPoint) produce byte-identical tables at shards=1, 2 and 4 for
// a fixed seed. Run under -race in CI, this also proves the cross-shard
// handoff is properly synchronized.
func TestShardedDeterminism(t *testing.T) {
	defer func(old int) { Shards = old }(Shards)

	for _, exp := range []string{"E4", "E1", "E10"} {
		t.Run(exp, func(t *testing.T) {
			if exp != "E4" && testing.Short() {
				t.Skip("short mode")
			}
			var base string
			for _, shards := range []int{1, 2, 4} {
				Shards = shards
				res, err := Run(exp, Small, 42)
				if err != nil {
					t.Fatalf("%s at shards=%d: %v", exp, shards, err)
				}
				got := render(res)
				if shards == 1 {
					base = got
					continue
				}
				if got != base {
					t.Fatalf("%s tables diverge between shards=1 and shards=%d:\n--- shards=1:\n%s\n--- shards=%d:\n%s",
						exp, shards, base, shards, got)
				}
			}
		})
	}
}

// TestShardedDeterminismChurn asserts the churn experiments' acceptance
// bar: E15-E17 — mid-run joins, graceful leaves and silent crashes
// driven by the churn engine, plus anti-entropy replica maintenance —
// produce byte-identical tables at shards=1, 2 and 4 for a fixed seed.
// Run under -race in CI alongside TestChurnStorageInvariant.
func TestShardedDeterminismChurn(t *testing.T) {
	defer func(old int) { Shards = old }(Shards)

	for _, exp := range []string{"E15", "E16", "E17"} {
		t.Run(exp, func(t *testing.T) {
			var base string
			for _, shards := range []int{1, 2, 4} {
				Shards = shards
				res, err := Run(exp, Small, 42)
				if err != nil {
					t.Fatalf("%s at shards=%d: %v", exp, shards, err)
				}
				got := render(res)
				if shards == 1 {
					base = got
					continue
				}
				if got != base {
					t.Fatalf("%s tables diverge between shards=1 and shards=%d:\n--- shards=1:\n%s\n--- shards=%d:\n%s",
						exp, shards, base, shards, got)
				}
			}
		})
	}
}

// TestShardedDeterminismWorkerPool pins the persistent-worker scheduler:
// with the pool FORCED on (WindowWorkers = shards, even on a one-core
// host where the auto heuristic would run windows inline), E4, E9 and
// E15 tables must stay byte-identical at shards=1, 2 and 4 — and
// identical to the inline schedule. Run under -race in CI, this proves
// the phased barrier and the work-stealing shard claims are properly
// synchronized and that worker count never leaks into results.
func TestShardedDeterminismWorkerPool(t *testing.T) {
	defer func(oldS, oldW int) { Shards, WindowWorkers = oldS, oldW }(Shards, WindowWorkers)

	for _, exp := range []string{"E4", "E9", "E15"} {
		t.Run(exp, func(t *testing.T) {
			if exp == "E9" && testing.Short() {
				t.Skip("short mode")
			}
			var base string
			for _, shards := range []int{1, 2, 4} {
				Shards = shards
				// Force the pool (at shards=1 there is nothing to pool;
				// that run doubles as the inline reference schedule).
				WindowWorkers = shards
				res, err := Run(exp, Small, 42)
				if err != nil {
					t.Fatalf("%s at shards=%d: %v", exp, shards, err)
				}
				got := render(res)
				if shards == 1 {
					base = got
					continue
				}
				if got != base {
					t.Fatalf("%s tables diverge between shards=1 and pooled shards=%d:\n--- shards=1:\n%s\n--- shards=%d:\n%s",
						exp, shards, base, shards, got)
				}
			}
		})
	}
}

// TestAntiEntropySavesBandwidth pins E16's headline: at the same churn
// rate, digest-based anti-entropy moves strictly fewer maintenance bytes
// (and messages) than the legacy push-all baseline, while keeping as
// many files at full replication.
func TestAntiEntropySavesBandwidth(t *testing.T) {
	res, err := Run("E16", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("E16 rows = %d, want 2", len(res.Table.Rows))
	}
	parseKiB := func(row []string) float64 {
		var v float64
		if _, err := fmt.Sscanf(row[2], "%f", &v); err != nil {
			t.Fatalf("bad maint KiB cell %q: %v", row[2], err)
		}
		return v
	}
	ae, legacy := parseKiB(res.Table.Rows[0]), parseKiB(res.Table.Rows[1])
	if ae <= 0 || legacy <= 0 {
		t.Fatalf("degenerate measurement: anti-entropy %.1f KiB, legacy %.1f KiB", ae, legacy)
	}
	if ae >= legacy {
		t.Fatalf("anti-entropy used %.1f KiB, not below legacy push-all's %.1f KiB", ae, legacy)
	}
	// The savings must not come from skipping repairs: both schemes must
	// end the run with the same number of fully replicated files.
	if aeHealthy, legacyHealthy := res.Table.Rows[0][6], res.Table.Rows[1][6]; aeHealthy != legacyHealthy {
		t.Fatalf("replication health diverges: anti-entropy %s vs legacy %s files >= k", aeHealthy, legacyHealthy)
	}
}

// TestShardedDeterminismE12 covers a second phase experiment shape — the
// quota walkthrough drives inserts, a reclaim and broker accounting
// — at a different cluster size.
func TestShardedDeterminismE12(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer func(old int) { Shards = old }(Shards)

	var base string
	for _, shards := range []int{1, 3} {
		Shards = shards
		res, err := Run("E12", Small, 42)
		if err != nil {
			t.Fatalf("E12 at shards=%d: %v", shards, err)
		}
		got := render(res)
		if shards == 1 {
			base = got
		} else if got != base {
			t.Fatalf("E12 tables diverge between shards=1 and shards=%d:\n%s\nvs\n%s", shards, base, got)
		}
	}
}
