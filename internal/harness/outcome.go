package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"past/internal/storage"
)

// Outcome is the structural result of running a Spec against one stack
// (simulator or real cluster). Everything in it is derived from protocol
// outputs — receipts, lookup replies, stores — never from internals the
// two stacks don't share.
type Outcome struct {
	// Delivered counts inserts that completed with k verified receipts.
	Delivered int
	// Placement maps fileId hex → sorted holder nodeId hexes, taken from
	// the k store receipts of each successful insert.
	Placement map[string][]string
	// Lookups counts successful retrievals (content verified).
	Lookups int
	// Hops holds the overlay hop count of each successful lookup, in
	// item order (-1 for failed lookups).
	Hops []int
}

// MeanHops averages the successful lookups' hop counts.
func (o Outcome) MeanHops() float64 {
	sum, n := 0, 0
	for _, h := range o.Hops {
		if h >= 0 {
			sum += h
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Compare checks real against sim: delivery count, per-fileId placement,
// and lookup count must match exactly; mean hop counts must agree within
// hopTol. It returns a descriptive error naming every divergence.
func Compare(sim, real Outcome, hopTol float64) error {
	var diffs []string
	if sim.Delivered != real.Delivered {
		diffs = append(diffs, fmt.Sprintf("delivered: sim %d, real %d", sim.Delivered, real.Delivered))
	}
	if sim.Lookups != real.Lookups {
		diffs = append(diffs, fmt.Sprintf("lookups: sim %d, real %d", sim.Lookups, real.Lookups))
	}
	for f, simHolders := range sim.Placement {
		realHolders, ok := real.Placement[f]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("file %s: missing from real placement", f))
			continue
		}
		if strings.Join(simHolders, ",") != strings.Join(realHolders, ",") {
			diffs = append(diffs, fmt.Sprintf("file %s: sim holders %v, real holders %v", f, simHolders, realHolders))
		}
	}
	for f := range real.Placement {
		if _, ok := sim.Placement[f]; !ok {
			diffs = append(diffs, fmt.Sprintf("file %s: missing from sim placement", f))
		}
	}
	if d := math.Abs(sim.MeanHops() - real.MeanHops()); d > hopTol {
		diffs = append(diffs, fmt.Sprintf("mean hops: sim %.2f, real %.2f (tolerance %.2f)", sim.MeanHops(), real.MeanHops(), hopTol))
	}
	if len(diffs) > 0 {
		return fmt.Errorf("sim/real divergence:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}

// CheckKReplica verifies the k-replica invariant over a holders map
// (fileId → holder identifiers): every file has exactly k distinct
// holders.
func CheckKReplica(holders map[string][]string, k int) error {
	var bad []string
	for f, hs := range holders {
		seen := map[string]bool{}
		for _, h := range hs {
			seen[h] = true
		}
		if len(seen) != k {
			bad = append(bad, fmt.Sprintf("%s has %d holders, want %d", f, len(seen), k))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("k-replica invariant violated:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// DiskHolders replays pastnode data directories' logs read-only and maps
// each fileId to the sorted holder identifiers (one per directory whose
// log replays to a record of it). It is the on-disk ground truth the
// receipts are checked against, and what the crash-recovery test polls
// while anti-entropy restores the invariant.
func DiskHolders(dirs map[string]string) (map[string][]string, error) {
	holders := make(map[string][]string)
	for holder, dir := range dirs {
		files, _, err := storage.LiveFiles(dir)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			holders[f.String()] = append(holders[f.String()], holder)
		}
	}
	for f := range holders {
		sort.Strings(holders[f])
	}
	return holders, nil
}
