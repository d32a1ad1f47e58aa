package transport

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"past/internal/wire"
)

// After 64 connections each send one 256 KiB frame, the write buffers
// left resident are what the shared pool keeps, which two collections
// empty — not one buffer per connection grown to its largest frame, which
// would hold 16 MiB for as long as the connections stay up.
func TestWriteBuffersAreShared(t *testing.T) {
	const conns, frame = 64, 256 << 10
	src, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	var got atomic.Int64
	dsts := make([]*TCP, conns)
	for i := range dsts {
		if dsts[i], err = ListenTCP("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		d := dsts[i]
		t.Cleanup(func() { d.Close() })
		d.SetHandler(func(string, wire.Msg) { got.Add(1) })
	}
	for _, d := range dsts { // connect first, so the baseline counts each connection's own state
		src.Send(d.Addr(), wire.Heartbeat{}) //nolint:errcheck // asynchronous; counted below
	}
	waitFor(t, func() bool { return got.Load() == conns })
	resident := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapInuse)
	}
	before := resident()
	body := make([]byte, frame)
	for _, d := range dsts {
		src.Send(d.Addr(), wire.CacheCopy{Data: body}) //nolint:errcheck // asynchronous; counted below
	}
	body = nil
	waitFor(t, func() bool { return got.Load() == 2*conns })
	if grew := resident() - before; grew > 4*frame {
		t.Fatalf("%d connections hold %.1f MiB of write buffers after one %d KiB frame each", conns, float64(grew)/(1<<20), frame>>10)
	}
	if s := src.Stats(); s.Dials != conns || s.QueueDrops != 0 {
		t.Fatalf("stats %+v: the frames did not go out over %d connections", s, conns)
	}
}

// failingBody is a stored body whose read fails, as a record does once
// its bytes no longer check out.
type failingBody struct{}

func (failingBody) Len() int { return 1 << 10 }
func (failingBody) AppendTo(dst []byte) ([]byte, error) {
	return dst, errors.New("record failed its CRC")
}

// A reply whose stored body fails to read is dropped alone: nothing of it
// reaches the wire, and the connection carries the next frame intact.
func TestFailedBodyDropsItsFrameOnly(t *testing.T) {
	a, b := newPair(t)
	var kinds []string
	done := make(chan struct{})
	b.SetHandler(func(_ string, m wire.Msg) {
		kinds = append(kinds, m.Kind())
		if _, ok := m.(wire.Ping); ok {
			close(done)
		}
	})
	a.Send(b.Addr(), wire.LookupReply{Body: failingBody{}, ReqID: 1}) //nolint:errcheck // dropped by the sender
	a.Send(b.Addr(), wire.Ping{Nonce: 2})                             //nolint:errcheck // delivered
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the frame after the failed one never arrived")
	}
	if len(kinds) != 1 || b.Stats().DecodeErrors != 0 || a.Stats().Dials != 1 {
		t.Fatalf("received %v (decode errors %d, dials %d); want the ping alone on one connection", kinds, b.Stats().DecodeErrors, a.Stats().Dials)
	}
}
