package simnet_test

import (
	"maps"
	"testing"
	"time"

	"past/internal/cluster"
	"past/internal/pastry"
	"past/internal/wire"
)

type probe struct{}

func (probe) Kind() string { return "probe" }

// TestMessagesByKindMatchesTrace churns a keep-alive cluster (crashes,
// restarts, a join) and sends a type the codec does not know alongside;
// MessagesByKind must equal a TraceFn tally of every delivery by Kind.
func TestMessagesByKindMatchesTrace(t *testing.T) {
	cfg := pastry.DefaultConfig()
	cfg.L, cfg.KeepAlive, cfg.FailTimeout = 8, time.Second, 3*time.Second
	c, err := cluster.Build(cluster.Options{N: 24, Pastry: cfg, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	tally := map[string]uint64{}
	c.Net.TraceFn = func(_ time.Duration, _, _ string, m wire.Msg) { tally[m.Kind()]++ }
	c.Net.ResetCounters()
	rng := c.Rand()
	for step := 0; step < 40; step++ {
		switch i := rng.Intn(len(c.Nodes)); {
		case step%10 == 9:
			if _, err := c.AddNode(); err != nil {
				t.Fatal(err)
			}
		case c.Down(i):
			c.Restart(i)
		case c.LiveCount() > 16:
			c.Crash(i)
		}
		from, to := c.Eps[rng.Intn(len(c.Eps))], c.Eps[rng.Intn(len(c.Eps))]
		from.Send(to.Addr(), probe{}) //nolint:errcheck // both endpoints exist
		c.RunSettle(time.Second)
	}
	got := c.Net.MessagesByKind()
	t.Logf("%d deliveries by kind: %v", c.Net.Messages(), got)
	if !maps.Equal(got, tally) {
		t.Fatalf("MessagesByKind %v\ntraced         %v", got, tally)
	}
	var total uint64
	for _, n := range got {
		total += n
	}
	if got["probe"] == 0 || got[wire.Heartbeat{}.Kind()] == 0 || total != c.Net.Messages() {
		t.Fatalf("by kind %v (sum %d), %d messages: want probes, heartbeats and every message", got, total, c.Net.Messages())
	}
}
