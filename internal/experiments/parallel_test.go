package experiments

import (
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

// withParallelism runs f with MaxParallel pinned to p, restoring the
// previous value afterwards.
func withParallelism(t *testing.T, p int, f func()) {
	t.Helper()
	old := MaxParallel
	MaxParallel = p
	defer func() { MaxParallel = old }()
	f()
}

// parallelRuns runs exp at Small scale, seed 42, with its points run one
// at a time and then four at a time, and returns both results.
func parallelRuns(t *testing.T, exp string) (seq, par Result) {
	t.Helper()
	var err error
	withParallelism(t, 1, func() { seq, err = Run(exp, Small, 42) })
	if err != nil {
		t.Fatal(err)
	}
	withParallelism(t, 4, func() { par, err = Run(exp, Small, 42) })
	if err != nil {
		t.Fatal(err)
	}
	return seq, par
}

// assertParallelDeterministic proves point isolation for exp: the
// rendered table, the event count and the series are byte-identical
// whether its points run one at a time or four at a time. Run under
// `go test -race` (as CI does) this also proves the concurrent points
// share no state.
func assertParallelDeterministic(t *testing.T, exp string) {
	t.Helper()
	defer func(old bool) { CollectSeries = old }(CollectSeries)
	CollectSeries = true
	seq, par := parallelRuns(t, exp)
	if render(seq) != render(par) {
		t.Fatalf("%s diverged between sequential and parallel runs:\nseq:\n%s\npar:\n%s", exp, render(seq), render(par))
	}
	if seq.Events != par.Events {
		t.Fatalf("%s delivered %d events sequentially and %d in parallel", exp, seq.Events, par.Events)
	}
	if seq.SeriesLP != par.SeriesLP {
		t.Fatalf("%s series diverged between sequential and parallel runs:\n%s", exp, firstDiff(seq.SeriesLP, par.SeriesLP))
	}
}

func TestForEachPointCoversAllPoints(t *testing.T) {
	for _, p := range []int{1, 4} {
		withParallelism(t, p, func() {
			got := make([]int, 100)
			forEachPoint(len(got), func(i int) { got[i] = i + 1 })
			for i, v := range got {
				if v != i+1 {
					t.Fatalf("parallelism %d: point %d not executed", p, i)
				}
			}
		})
	}
}

// TestParallelEngineDeterministicE1 covers a routing-grid experiment.
func TestParallelEngineDeterministicE1(t *testing.T) {
	assertParallelDeterministic(t, "E1")
}

// TestParallelEngineDeterministicE10 is the storage-layer counterpart:
// four full PAST clusters (inserts, caching, saturation, Zipf lookups)
// run concurrently and must reproduce the sequential table exactly.
func TestParallelEngineDeterministicE10(t *testing.T) {
	if testing.Short() {
		t.Skip("E10 twice is slow; run without -short (CI does)")
	}
	assertParallelDeterministic(t, "E10")
}

// TestParallelEngineDeterministicRows covers the experiments that build
// one fresh cluster per table row and run those rows at once: churn rates
// (E15, with series), maintenance schemes (E16), adversary policies (E18,
// with series; E19) and caching modes (E21).
func TestParallelEngineDeterministicRows(t *testing.T) {
	for _, exp := range []string{"E15", "E16", "E18", "E19", "E21"} {
		t.Run(exp, func(t *testing.T) { assertParallelDeterministic(t, exp) })
	}
}
