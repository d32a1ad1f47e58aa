package experiments

import (
	"fmt"
	"strings"
	"testing"

	"past/internal/telemetry"
)

// TestTelemetryShardDeterminism extends the parallel-engine acceptance
// bar to the telemetry layer: the per-window series of a churn
// experiment (E15) and an adversarial one (E18) — one recorder per row,
// rows run at once — must be byte-identical in line protocol whether the
// rows run one at a time or four at a time, and must cover the series
// catalogue. Run under -race in CI, this also proves flush-time sampling
// races with nothing.
func TestTelemetryShardDeterminism(t *testing.T) {
	defer func(old bool) { CollectSeries = old }(CollectSeries)
	CollectSeries = true

	for _, exp := range []string{"E15", "E18"} {
		t.Run(exp, func(t *testing.T) {
			seq, par := parallelRuns(t, exp)
			if seq.SeriesLP == "" {
				t.Fatalf("%s: no series collected", exp)
			}
			pts, err := telemetry.ParseLP(strings.NewReader(seq.SeriesLP))
			if err != nil {
				t.Fatalf("series does not parse: %v", err)
			}
			seen := map[string]bool{}
			for _, p := range pts {
				seen[p.Name] = true
			}
			for _, want := range []string{"live_nodes", "net_events", "past", "lookups", "lookup_ok", "lookup_hops"} {
				if !seen[want] {
					t.Fatalf("%s series missing %q (have %v)", exp, want, seen)
				}
			}
			if par.SeriesLP != seq.SeriesLP {
				t.Fatalf("%s series diverge between sequential and parallel rows:\n%s", exp, firstDiff(seq.SeriesLP, par.SeriesLP))
			}
		})
	}
}

// TestTelemetryOffByDefault pins that tables are unchanged by series
// collection: running with CollectSeries must not perturb the recorded
// output (instrumentation samples state, never drives the schedule or
// the cluster RNG).
func TestTelemetryOffByDefault(t *testing.T) {
	defer func(old bool) { CollectSeries = old }(CollectSeries)

	CollectSeries = false
	plain, err := Run("E20", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SeriesLP != "" {
		t.Fatal("series collected with CollectSeries off")
	}
	CollectSeries = true
	traced, err := Run("E20", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if traced.SeriesLP == "" {
		t.Fatal("no series collected with CollectSeries on")
	}
	if render(plain) != render(traced) {
		t.Fatalf("collecting series changed the table:\n--- off:\n%s\n--- on:\n%s", render(plain), render(traced))
	}
}

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  %s\n  vs:\n  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
