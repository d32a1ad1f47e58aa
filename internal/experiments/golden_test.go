package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/small_seed42.golden from this tree's output (a deliberate protocol change only; say which cells moved in CHANGES.md)")

// TestRecordedTablesSeed42 holds every experiment's small-scale, seed-42
// table — the regression baseline a change that is not meant to alter
// protocol behaviour must not move — to the copy in the tree, byte for
// byte: what pastsim -exp all -seed 42 prints without its timing lines.
func TestRecordedTablesSeed42(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	const golden = "testdata/small_seed42.golden"
	var out strings.Builder
	for _, id := range IDs() {
		res, err := Run(id, Small, 42)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(res.String() + "\n\n")
	}
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() == string(want) {
		return
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(got)-1 && i < len(wantLines)-1 && got[i] == wantLines[i] {
		i++
	}
	t.Fatalf("%s differs from line %d (go test ./internal/experiments -run TestRecordedTablesSeed42 -update re-records):\n got %q\nwant %q", golden, i+1, got[i], wantLines[i])
}
