package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"past/internal/wire"
)

// rawFrame is payload behind its length prefix.
func rawFrame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// readStats counts what the reader did over one stream: its reads, those
// that landed straight in a begun frame's body, and those wasted on
// EAGAIN after a read that had already drained the socket.
type readStats struct{ reads, direct, wasted int }

// readChunks runs a frameReader's readFd over stream as RawConn.Read runs
// it over a socket: the stream arrives sizes[i] bytes at a time (cycling;
// all of it at once when sizes is empty), readFd is called once per
// arrival, and a read of an empty socket returns EAGAIN until the stream
// has all arrived, then 0 (EOF). A call that returns false must have
// drained what arrived. The frames come out in the order delivered.
func readChunks(stream []byte, sizes []int, maxFrame int) ([][]byte, readStats, error) {
	var out [][]byte
	var st readStats
	pos, avail, filled := 0, 0, false
	r := &frameReader{maxFrame: maxFrame, deliver: func(body []byte) bool {
		out = append(out, body)
		return true
	}}
	r.read = func(_ int, p []byte) (int, error) {
		st.reads++
		if r.body != nil && &p[0] == &r.body[r.have] {
			st.direct++
		}
		if avail == 0 {
			if pos == len(stream) {
				return 0, nil
			}
			if !filled {
				st.wasted++
			}
			return -1, syscall.EAGAIN
		}
		n := copy(p, stream[pos:pos+avail])
		pos, avail, filled = pos+n, avail-n, n == len(p)
		return n, nil
	}
	for i := 0; ; i++ {
		size := len(stream)
		if len(sizes) > 0 {
			size = max(sizes[i%len(sizes)], 1)
		}
		avail, filled = min(size, len(stream)-pos), false
		if r.readFd(0) {
			return out, st, r.err
		}
		if avail != 0 {
			return out, st, fmt.Errorf("readFd waits with %d bytes unread", avail)
		}
	}
}

// rawFrames is what ReadRawFrame yields from stream, frame after frame,
// and the error it stopped at.
func rawFrames(stream []byte, maxFrame int) ([][]byte, error) {
	src := bytes.NewReader(stream)
	var out [][]byte
	for {
		p, err := ReadRawFrame(src, maxFrame)
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

func isSizeRefusal(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "transport: announced frame size")
}

func TestFrameReaderSplits(t *testing.T) {
	const maxFrame = 1 << 20
	big := bytes.Repeat([]byte("b"), stagingSize+100)
	exact := bytes.Repeat([]byte("e"), stagingSize-4) // header + payload fill one staging buffer
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	for _, tc := range []struct {
		name   string
		stream []byte
		sizes  []int
		want   []string
		size   bool // the stream ends in a refused length
		reads  int  // reads made, counting the one that ends the stream
		direct int  // reads straight into a begun frame's body
	}{
		{"header split across reads", rawFrame([]byte("hello")), []int{2, 5}, []string{"hello"}, false, 4, 1},
		{"header split at each byte", cat(rawFrame([]byte("a")), rawFrame([]byte("bc"))), []int{1}, []string{"a", "bc"}, false, 13, 3},
		{"several frames in one read", cat(rawFrame([]byte("one")), rawFrame([]byte("two")), rawFrame([]byte("three"))), nil, []string{"one", "two", "three"}, false, 2, 0},
		{"a frame larger than the staging buffer", cat(rawFrame(big), rawFrame([]byte("after"))), []int{stagingSize}, []string{string(big), "after"}, false, 5, 2},
		{"a frame that fills the staging buffer", cat(rawFrame(exact), rawFrame([]byte("after"))), []int{stagingSize}, []string{string(exact), "after"}, false, 4, 0},
		{"a header that ends a read", cat(rawFrame([]byte("x")), rawFrame([]byte("yz"))), []int{9}, []string{"x", "yz"}, false, 3, 1},
		{"a zero length", cat(rawFrame([]byte("kept")), []byte{0, 0, 0, 0}, rawFrame([]byte("lost"))), nil, []string{"kept"}, true, 1, 0},
		{"an oversize length", cat(rawFrame([]byte("kept")), binary.BigEndian.AppendUint32(nil, maxFrame+1)), nil, []string{"kept"}, true, 1, 0},
		{"a truncated frame", cat(rawFrame([]byte("kept")), binary.BigEndian.AppendUint32(nil, 1000), make([]byte, 10)), nil, []string{"kept"}, false, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, st, err := readChunks(tc.stream, tc.sizes, maxFrame)
			var payloads []string
			for _, f := range got {
				payloads = append(payloads, string(f))
			}
			if strings.Join(payloads, "|") != strings.Join(tc.want, "|") {
				t.Fatalf("frames %q, want %q", payloads, tc.want)
			}
			if isSizeRefusal(err) != tc.size || err == nil {
				t.Fatalf("ended with %v; size refusal wanted: %v", err, tc.size)
			}
			if st.reads != tc.reads || st.direct != tc.direct || st.wasted != 0 {
				t.Fatalf("%d reads, %d into a body, %d wasted on EAGAIN; want %d, %d and 0", st.reads, st.direct, st.wasted, tc.reads, tc.direct)
			}
			want, wantErr := rawFrames(tc.stream, maxFrame)
			if len(want) != len(got) || isSizeRefusal(wantErr) != tc.size {
				t.Fatalf("ReadRawFrame yields %d frames and %v", len(want), wantErr)
			}
		})
	}
}

// A zero or oversize announced length is refused as the header completes,
// before anything is allocated for the frame.
func TestFrameReaderRefusesBeforeAllocating(t *testing.T) {
	for _, n := range []uint32{0, 1 << 30} {
		r := &frameReader{maxFrame: 8 << 20}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := r.feed(binary.BigEndian.AppendUint32(nil, n))
		runtime.ReadMemStats(&after)
		if !isSizeRefusal(err) {
			t.Fatalf("announced length %d: %v, want a refusal", n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("refusing announced length %d allocated %d bytes", n, grew)
		}
		if r.body != nil || len(r.frames) != 0 {
			t.Fatalf("refusing announced length %d left a frame behind", n)
		}
	}
}

// A frame stream written in uneven chunks, with pauses between some of
// them, comes back as the same messages in the same order.
func TestFrameReaderLoopback(t *testing.T) {
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	var mu sync.Mutex
	var got []wire.Msg
	b.SetHandler(func(_ string, m wire.Msg) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	rng := rand.New(rand.NewSource(7))
	var sent []wire.Msg
	var stream []byte
	for i := range 120 {
		var m wire.Msg = wire.Ping{Nonce: uint64(i)}
		if i%2 == 1 {
			data := make([]byte, 1+rng.Intn(3*stagingSize))
			rng.Read(data)
			m = wire.CacheCopy{Data: data}
		}
		frame, err := encodeFrame(nil, "127.0.0.1:1", m, defaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, m)
		stream = append(stream, frame...)
	}
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	for len(stream) > 0 {
		n := min(1+rng.Intn(20000), len(stream))
		if _, err := conn.Write(stream[:n]); err != nil {
			t.Fatal(err)
		}
		stream = stream[n:]
		if rng.Intn(4) == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == len(sent)
	})
	for i, m := range got {
		switch want := sent[i].(type) {
		case wire.Ping:
			if p, ok := m.(wire.Ping); !ok || p.Nonce != want.Nonce {
				t.Fatalf("message %d is %#v, want ping %d", i, m, want.Nonce)
			}
		case wire.CacheCopy:
			if c, ok := m.(wire.CacheCopy); !ok || !bytes.Equal(c.Data, want.Data) {
				t.Fatalf("message %d is a %s, want a %d-byte cache copy", i, m.Kind(), len(want.Data))
			}
		}
	}
	if s := b.Stats(); s.DecodeErrors != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// After 256 inbound connections each receive one 16 KiB frame and fall
// idle, they hold no read buffer: the staging buffers went back to the
// pool, which two collections empty, and the frames to their handler.
// What the connections add to the heap, both ends counted, is their
// sockets and framing state: well under the 4 MiB a 16 KiB buffer per
// connection would hold.
func TestIdleConnectionsHoldNoReadBuffer(t *testing.T) {
	const conns = 256
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	var got atomic.Int64
	b.SetHandler(func(string, wire.Msg) { got.Add(1) })
	frame, err := encodeFrame(nil, "127.0.0.1:1", wire.CacheCopy{Data: make([]byte, 16<<10)}, defaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	resident := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapInuse)
	}
	before := resident()
	clients := make([]net.Conn, conns)
	for i := range clients {
		c, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return got.Load() == conns })
	if grew := resident() - before; grew > 1<<20 {
		t.Fatalf("%d idle connections hold %.2f MiB after one %d KiB frame each", conns, float64(grew)/(1<<20), len(frame)>>10)
	}
	runtime.KeepAlive(clients)
}

// FuzzFrameReader: for any byte stream, frame limit and read boundaries,
// the reader yields exactly the payloads ReadRawFrame yields, one after
// another, and stops at the same frame: with the same refusal when
// ReadRawFrame refuses an announced length, with a short read otherwise.
func FuzzFrameReader(f *testing.F) {
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	f.Add(cat(rawFrame([]byte("hello")), rawFrame([]byte("world"))), []byte{0, 1, 0, 5}, uint16(1<<10))
	f.Add(cat(rawFrame([]byte("kept")), []byte{0, 0, 0, 0}), []byte{}, uint16(1<<10))
	f.Add(cat(rawFrame([]byte("kept")), binary.BigEndian.AppendUint32(nil, 1<<30)), []byte{0, 3}, uint16(1<<10))
	f.Add(cat(binary.BigEndian.AppendUint32(nil, 1000), make([]byte, 10)), []byte{0, 2}, uint16(1<<10))
	f.Add(cat(rawFrame(make([]byte, stagingSize+3)), rawFrame([]byte("x"))), []byte{0x3f, 0xff}, uint16(1<<15))
	f.Add(cat(rawFrame(make([]byte, stagingSize-4)), rawFrame([]byte("x"))), []byte{}, uint16(1<<15))
	f.Fuzz(func(t *testing.T, stream, cuts []byte, limit uint16) {
		maxFrame := int(limit)
		var sizes []int
		for i := 0; i+1 < len(cuts); i += 2 {
			sizes = append(sizes, int(binary.BigEndian.Uint16(cuts[i:]))%(2*stagingSize)+1)
		}
		got, st, err := readChunks(stream, sizes, maxFrame)
		if st.wasted != 0 {
			t.Fatalf("%d reads wasted on EAGAIN after a read that drained the socket", st.wasted)
		}
		want, wantErr := rawFrames(stream, maxFrame)
		if len(got) != len(want) {
			t.Fatalf("%d frames, ReadRawFrame yields %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) || cap(got[i]) != len(got[i]) {
				t.Fatalf("frame %d is %q (cap %d), ReadRawFrame yields %q", i, got[i], cap(got[i]), want[i])
			}
		}
		switch {
		case isSizeRefusal(wantErr):
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ended with %v, ReadRawFrame with %v", err, wantErr)
			}
		case !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF):
			t.Fatalf("ended with %v, ReadRawFrame with %v", err, wantErr)
		}
	})
}
