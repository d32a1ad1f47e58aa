package cluster

import (
	"fmt"
	"testing"
	"time"

	"past/internal/past"
	"past/internal/pastry"
	"past/internal/simnet"
	"past/internal/wire"
)

// TestMaintenanceBytesAreFrameBytes churns a simulated PAST cluster
// (crashes, a restart, arrivals, a graceful leave) while a send filter on
// every endpoint, arrivals included, sizes each maintenance message with
// the frame codec. Σ Stats.MaintenanceBytes must be exactly what the
// filters saw: the counter is the bytes sent, not a model of them.
func TestMaintenanceBytesAreFrameBytes(t *testing.T) {
	cfg := past.DefaultConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	cfg.RequestTimeout = 2 * time.Second
	pcfg := pastry.DefaultConfig()
	pcfg.KeepAlive = 500 * time.Millisecond
	pcfg.FailTimeout = 1500 * time.Millisecond
	c, err := BuildPAST(Options{N: 16, Pastry: pcfg, Seed: 9}, cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableProbes()
	var sent int64
	seen := map[string]int{}
	watch := func(ep *simnet.Endpoint) {
		ep.SetSendFilter(func(_ string, m wire.Msg) bool {
			switch m.(type) {
			case wire.SyncOffer, wire.SyncRequest, wire.Replicate:
				sent += int64(wire.FrameLen(ep.Addr(), m))
				seen[m.Kind()]++
			}
			return false
		})
	}
	for _, ep := range c.Eps {
		watch(ep)
	}
	build := c.Opts.AppFactory
	c.Opts.AppFactory = func(i int, nd *pastry.Node, ep *simnet.Endpoint) pastry.App {
		watch(ep)
		return build(i, nd, ep)
	}

	var files []past.InsertResult
	for i := 0; i < 6; i++ {
		res := c.Insert(i, nil, fmt.Sprintf("f-%d", i), make([]byte, 2048), 0)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		files = append(files, res)
	}
	c.Crash(c.IndexByID(files[0].Receipts[0].StoredBy.ID))
	c.Crash(c.IndexByID(files[1].Receipts[1].StoredBy.ID))
	c.RunSettle(3 * time.Second)
	c.Restart(c.IndexByID(files[1].Receipts[1].StoredBy.ID))
	for a := 0; a < 2; a++ {
		if _, err := c.AddNode(); err != nil {
			t.Fatal(err)
		}
	}
	c.Leave(15)
	c.RunSettle(12 * time.Second)

	var counted int64
	for _, n := range c.PASTNodes() {
		counted += n.Stats().MaintenanceBytes
	}
	for _, kind := range []string{"sync-offer", "sync-request", "replicate"} {
		if seen[kind] == 0 {
			t.Fatalf("no %s was sent; the run exercises too little maintenance (seen %v)", kind, seen)
		}
	}
	if counted != sent {
		t.Fatalf("Σ MaintenanceBytes = %d, the frames sent were %d bytes (%v)", counted, sent, seen)
	}
}
