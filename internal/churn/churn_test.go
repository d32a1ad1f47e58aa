package churn_test

import (
	"fmt"
	"testing"
	"time"

	"past/internal/churn"
	"past/internal/cluster"
	"past/internal/id"
	"past/internal/past"
	"past/internal/pastry"
)

func testConfig(initial int) churn.Config {
	return churn.Config{
		Seed:        7,
		Initial:     initial,
		ArrivalRate: 0.25,
		Session:     churn.LognormalSessions(20 * time.Second),
		CrashFrac:   0.5,
		Horizon:     30 * time.Second,
		MinLive:     initial / 2,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := testConfig(24)
	a := churn.Generate(cfg).String()
	b := churn.Generate(cfg).String()
	if a != b {
		t.Fatal("same config produced different traces")
	}
	cfg.Seed++
	if churn.Generate(cfg).String() == a {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := testConfig(32)
	tr := churn.Generate(cfg)
	if tr.Arrivals() == 0 || tr.Departures() == 0 {
		t.Fatalf("degenerate trace: %d arrivals, %d departures", tr.Arrivals(), tr.Departures())
	}
	live := cfg.Initial
	for i, ev := range tr.Events {
		if ev.At >= cfg.Horizon {
			t.Fatalf("event %d beyond horizon: %s", i, ev.At)
		}
		if i > 0 && ev.At < tr.Events[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
		if ev.Kind == churn.Arrive {
			live++
		} else {
			live--
		}
		if live < cfg.MinLive {
			t.Fatalf("MinLive floor violated at event %d: live=%d", i, live)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := churn.Generate(testConfig(16))
	text := "# replay header comment\n\n" + tr.String()
	back, err := churn.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if back.String() != tr.String() {
		t.Fatal("trace did not round-trip")
	}
	if _, err := churn.Parse("1s explode 3\n"); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := churn.Parse("2s crash 1\n1s crash 0\n"); err == nil {
		t.Fatal("out-of-order trace accepted")
	}
}

// FuzzChurnParse feeds Parse arbitrary text: it must never panic, and a
// trace it accepts must survive Trace.String and a second Parse
// unchanged. Seeded with TestTraceRoundTrip's trace and its two
// rejected inputs.
func FuzzChurnParse(f *testing.F) {
	f.Add("# replay header comment\n\n" + churn.Generate(testConfig(16)).String())
	f.Add("1s explode 3\n")
	f.Add("2s crash 1\n1s crash 0\n")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := churn.Parse(s)
		if err != nil {
			return
		}
		text := tr.String()
		back, err := churn.Parse(text)
		if err != nil {
			t.Fatalf("Parse rejects String's output %q: %v", text, err)
		}
		if got := back.String(); got != text {
			t.Fatalf("trace did not round-trip:\n%q\nvs\n%q", text, got)
		}
	})
}

func TestParetoSessionsHeavyTail(t *testing.T) {
	cfg := testConfig(24)
	cfg.Session = churn.ParetoSessions(5*time.Second, 1.2)
	tr := churn.Generate(cfg)
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
}

// harness is a PAST cluster under the churn experiments' configuration:
// keep-alive failure detection, probes installed, caching off.
type harness struct {
	*cluster.PAST
	k int
}

func buildHarness(t testing.TB, n int, seed int64) *harness {
	t.Helper()
	cfg := past.DefaultConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	cfg.Caching = false
	cfg.RequestTimeout = 5 * time.Second
	pcfg := pastry.DefaultConfig()
	pcfg.KeepAlive = 500 * time.Millisecond
	pcfg.FailTimeout = 1500 * time.Millisecond
	c, err := cluster.BuildPAST(cluster.Options{N: n, Pastry: pcfg, Seed: seed}, cfg, nil, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c.EnableProbes()
	return &harness{PAST: c, k: cfg.K}
}

func (h *harness) insert(t testing.TB, node int, name string, data []byte) id.File {
	t.Helper()
	res := h.Insert(node, nil, name, data, 0)
	if res.Err != nil {
		t.Fatalf("insert %s: %+v", name, res)
	}
	return res.FileID
}

// TestChurnStorageInvariant is the churn persistence test: it replays one
// generated trace (crashes, graceful leaves and mid-run joins in
// sequence) over a PAST cluster and asserts that, after the network
// settles, every surviving file has at least k live, content-verified
// replicas. Run under -race in CI.
func TestChurnStorageInvariant(t *testing.T) {
	const n = 24
	ccfg := churn.Config{
		Seed:        11,
		Initial:     n,
		ArrivalRate: 0.3,
		Session:     churn.LognormalSessions(15 * time.Second),
		CrashFrac:   0.5,
		Horizon:     25 * time.Second,
		MinLive:     n - 6,
	}
	tr := churn.Generate(ccfg)
	if tr.Arrivals() == 0 || tr.Departures() == 0 {
		t.Fatalf("trace lacks churn: %d arrivals, %d departures", tr.Arrivals(), tr.Departures())
	}

	h := buildHarness(t, n, 42)
	var files []id.File
	for i := 0; i < 10; i++ {
		files = append(files, h.insert(t, i%n, fmt.Sprintf("churn-%d", i), make([]byte, 1024)))
	}
	d := churn.NewDriver(h.Cluster, tr)
	d.MinLive = ccfg.MinLive
	d.Advance(ccfg.Horizon)
	// Settle: let failure detection, repair and anti-entropy finish.
	h.RunSettle(15 * time.Second)
	if d.Stats.Crashes == 0 || d.Stats.Leaves == 0 || d.Stats.Arrivals == 0 {
		t.Fatalf("trace exercised too little: %+v", d.Stats)
	}
	for i, f := range files {
		copies := h.LiveVerifiedCopies(f)
		if copies > 0 && copies < h.k {
			t.Errorf("file %d has %d live verified copies, want >= %d", i, copies, h.k)
		}
		if copies == 0 {
			t.Logf("file %d lost (all holders departed before repair)", i)
		}
	}
}

// TestDriverSkipsAndFloors replays a hand-written trace and checks the
// driver's bookkeeping: double departures are skipped, the MinLive floor
// holds, arrivals join live.
func TestDriverSkipsAndFloors(t *testing.T) {
	tr, err := churn.Parse(`
# crash 0 twice (second is a no-op), an arrival, a leave, then a
# departure blocked by the MinLive floor
1s crash 0
2s crash 0
3s arrive 8
4s leave 1
5s crash 2
`)
	if err != nil {
		t.Fatal(err)
	}
	h := buildHarness(t, 8, 43)
	d := churn.NewDriver(h.Cluster, tr)
	d.MinLive = 7
	d.Advance(6 * time.Second)
	if !d.Done() {
		t.Fatal("driver did not finish the trace")
	}
	want := churn.Stats{Arrivals: 1, Crashes: 1, Leaves: 1, Skipped: 2}
	if d.Stats != want {
		t.Fatalf("stats = %+v, want %+v", d.Stats, want)
	}
	if h.LiveCount() != 7 {
		t.Fatalf("LiveCount = %d, want 7", h.LiveCount())
	}
}

// TestAsyncJoinsDuringWorkload pins churn-join fidelity: with
// Driver.AsyncJoins set, an arrival starts its join protocol without
// blocking the driver, the foreground workload keeps inserting and
// looking up files while the join is still pending, and once the
// network runs the join resolves — Stats.Arrivals catches up, the
// pending count drains to zero and the newcomer is live and routable.
func TestAsyncJoinsDuringWorkload(t *testing.T) {
	const n = 16
	tr, err := churn.Parse(`
1s arrive 16
2s crash 3
3s arrive 17
4s arrive 18
`)
	if err != nil {
		t.Fatal(err)
	}
	h := buildHarness(t, n, 44)
	var files []id.File
	for i := 0; i < 4; i++ {
		files = append(files, h.insert(t, i, fmt.Sprintf("pre-%d", i), make([]byte, 1024)))
	}

	d := churn.NewDriver(h.Cluster, tr)
	d.AsyncJoins = true

	// liveNode picks the first live original node at or after i: clients
	// must be up — a crashed node runs no code, so a lookup issued from
	// one would never call back.
	liveNode := func(i int) int {
		for j := 0; j < n; j++ {
			if !h.Down((i + j) % n) {
				return (i + j) % n
			}
		}
		t.Fatal("no live node")
		return -1
	}

	// Stop exactly at the first arrival: the join has been started but
	// the network has not run since, so it cannot have resolved yet.
	d.Advance(1 * time.Second)
	if got := h.PendingJoins(); got != 1 {
		t.Fatalf("PendingJoins = %d right after the arrival, want 1 (join must not block)", got)
	}
	if d.Stats.Arrivals != 0 {
		t.Fatalf("Stats.Arrivals = %d before the join resolved, want 0", d.Stats.Arrivals)
	}

	// Foreground workload proceeds while the join is in flight.
	files = append(files, h.insert(t, 5, "mid-join", make([]byte, 1024)))
	for i, f := range files {
		if lr := h.Lookup(liveNode(i+7), f); lr.Err != nil {
			t.Fatalf("lookup %d during pending join: %v", i, lr.Err)
		}
	}

	// Drive the rest of the trace tick by tick with workload interleaved,
	// the way the experiments use the driver.
	for at := 2 * time.Second; at <= 5*time.Second; at += time.Second {
		d.Advance(at)
		for i, f := range files {
			if lr := h.Lookup(liveNode(int(at/time.Second)+i), f); lr.Err != nil {
				t.Fatalf("lookup %d at t=%s: %v", i, at, lr.Err)
			}
		}
	}
	h.RunSettle(5 * time.Second)
	d.CatchUp()

	if !d.Done() {
		t.Fatal("driver did not finish the trace")
	}
	if h.PendingJoins() != 0 {
		t.Fatalf("PendingJoins = %d after settle, want 0", h.PendingJoins())
	}
	if d.Stats.Arrivals != 3 {
		t.Fatalf("Stats.Arrivals = %d, want 3 (all async joins resolved)", d.Stats.Arrivals)
	}
	if got, want := h.LiveCount(), n+3-1; got != want {
		t.Fatalf("LiveCount = %d, want %d (three arrivals, one crash)", got, want)
	}
	// The newcomers are live and must be routable: a lookup issued from
	// each joined node succeeds.
	for _, newcomer := range []int{16, 17, 18} {
		if h.Down(newcomer) {
			t.Fatalf("node %d still down after its async join resolved", newcomer)
		}
		if lr := h.Lookup(newcomer, files[0]); lr.Err != nil {
			t.Fatalf("lookup from joined node %d: %v", newcomer, lr.Err)
		}
	}
}
