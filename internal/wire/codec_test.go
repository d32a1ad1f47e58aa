package wire

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"past/internal/id"
)

// sliceMode says what filled does with slice fields.
type sliceMode int

const (
	sliceFull  sliceMode = iota // three elements each
	sliceEmpty                  // allocated, zero length
	sliceNil
)

// filler sets every field of a message to a distinct non-zero value, so a
// field the codec forgets or reorders shows up in reflect.DeepEqual.
type filler struct {
	n    int64
	mode sliceMode
}

func (f *filler) next() int64 { f.n++; return f.n }

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	case reflect.Int, reflect.Int64:
		x := f.next()
		if x%2 == 0 {
			x *= -1_000_003 // negative, and wider than 32 bits now and then
		}
		v.SetInt(x)
	case reflect.Uint8, reflect.Uint64:
		x := uint64(f.next()) * 0x9E3779B97F4A7C15
		if v.Kind() == reflect.Uint8 {
			x >>= 56
		}
		v.SetUint(x)
	case reflect.Float64:
		v.SetFloat(float64(f.next()) + 0.25)
	case reflect.Bool:
		v.SetBool(f.next()%2 == 1)
	case reflect.String:
		v.SetString(fmt.Sprintf("10.0.%d.1:4000", f.next()))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Slice:
		switch f.mode {
		case sliceNil:
		case sliceEmpty:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), 3, 3))
			for i := 0; i < 3; i++ {
				if i == 1 && v.Type().Elem().Kind() == reflect.Slice {
					continue // a nil row between two full ones
				}
				f.fill(v.Index(i))
			}
		}
	case reflect.Interface: // Routed.Payload; a Body is no field of the frame
		if v.Type() == reflect.TypeFor[Stored]() {
			return
		}
		v.Set(reflect.ValueOf(f.filled(InsertRequest{})))
	default:
		panic("filler: unhandled kind " + v.Kind().String())
	}
}

// filled returns a value of m's type with every field set.
func (f *filler) filled(m Msg) Msg {
	p := reflect.New(reflect.TypeOf(m))
	f.fill(p.Elem())
	return p.Elem().Interface().(Msg)
}

// filledTable is every message type filled, plus every non-Routed type
// again as the payload of a Routed.
func filledTable(mode sliceMode) []Msg {
	f := &filler{mode: mode}
	var out []Msg
	for _, m := range allMsgs {
		v := f.filled(m)
		out = append(out, v)
		if _, routed := v.(Routed); !routed {
			r := f.filled(Routed{}).(Routed)
			r.Payload = v
			out = append(out, r)
		}
	}
	return out
}

func mustEncode(t testing.TB, from string, m Msg) []byte {
	t.Helper()
	b, err := AppendFrame(nil, from, m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	return b
}

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	const from = "127.0.0.1:7001"
	b := mustEncode(t, from, m)
	gotFrom, got, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if gotFrom != from {
		t.Fatalf("%T: from %q, want %q", m, gotFrom, from)
	}
	return got
}

func TestRoundTripFilled(t *testing.T) {
	for _, m := range filledTable(sliceFull) {
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("%T round trip:\n got %#v\nwant %#v", m, got, m)
		}
	}
}

// Empty and nil slices both travel as a zero count and decode as nil,
// which is what gob did and what handlers were written against.
func TestRoundTripEmptyDecodesAsNil(t *testing.T) {
	empty, want := filledTable(sliceEmpty), filledTable(sliceNil)
	for i, m := range empty {
		if got := roundTrip(t, m); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%T with empty slices:\n got %#v\nwant %#v", m, got, want[i])
		}
		if got := roundTrip(t, want[i]); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%T with nil slices:\n got %#v\nwant %#v", m, got, want[i])
		}
	}
}

func TestRoundTripZeroValues(t *testing.T) {
	for _, m := range allMsgs {
		if r, ok := m.(Routed); ok {
			r.Payload = LookupMiss{}
			m = r
		}
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("zero %T round trip: got %#v", m, got)
		}
	}
}

// A 256 KiB body round-trips, and the decoded byte fields are windows onto
// the frame itself — no copy — capped so an append cannot reach the next
// field.
func TestRoundTripLargeDataAliasesFrame(t *testing.T) {
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	m := (&filler{}).filled(ReplicaStore{}).(ReplicaStore)
	m.Data = data
	frame := mustEncode(t, "a:1", m)
	_, got, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	rs := got.(ReplicaStore)
	if !reflect.DeepEqual(rs, m) {
		t.Fatal("256 KiB ReplicaStore corrupted")
	}
	inFrame := func(p []byte) bool {
		lo, hi := uintptr(unsafe.Pointer(&frame[0])), uintptr(unsafe.Pointer(&frame[len(frame)-1]))
		at := uintptr(unsafe.Pointer(&p[0]))
		return at >= lo && at <= hi
	}
	for name, p := range map[string][]byte{"Data": rs.Data, "Sig": rs.Cert.Sig, "OwnerPub": rs.Cert.OwnerPub, "Salt": rs.Cert.Salt} {
		if !inFrame(p) {
			t.Errorf("%s was copied out of the frame", name)
		}
		if cap(p) != len(p) {
			t.Errorf("%s: cap %d > len %d, an append would overwrite the frame", name, cap(p), len(p))
		}
	}
}

// Every strict prefix of every encoding is an error, never a panic and
// never a shorter message.
func TestEveryStrictPrefixRejected(t *testing.T) {
	for _, m := range filledTable(sliceFull) {
		b := mustEncode(t, "127.0.0.1:7001", m)
		for n := 0; n < len(b); n++ {
			if _, got, err := DecodeFrame(b[:n:n]); err == nil {
				t.Fatalf("%T: prefix of %d/%d bytes decoded as %#v", m, n, len(b), got)
			}
		}
		if _, _, err := DecodeFrame(append(b[:len(b):len(b)], 0)); err == nil {
			t.Fatalf("%T: a trailing byte was accepted", m)
		}
	}
}

// raw builds a frame body by hand: the sender, then whatever build appends.
func raw(build func(e *encoder)) []byte {
	e := &encoder{}
	e.str("a:1")
	build(e)
	return e.b
}

func TestMalformedRejected(t *testing.T) {
	ref := NodeRef{ID: id.Rand(1), Addr: "b:2"}
	huge := func(e *encoder) { e.b = append(e.b, 0xFF, 0xFF, 0xFF, 0xF0) }
	tail := func(e *encoder) { e.ref(ref); e.i64(0); e.f64(0); e.u64(0) } // Routed's fields after Payload
	cases := map[string][]byte{
		"empty":          {},
		"tag zero":       raw(func(e *encoder) { e.u8(0) }),
		"tag past table": raw(func(e *encoder) { e.u8(tagAuditResponse + 1) }),
		"tag 255":        raw(func(e *encoder) { e.u8(255) }),
		"routed in routed": raw(func(e *encoder) {
			e.u8(tagRouted)
			e.node(id.Rand(2))
			e.msg(Routed{Payload: Depart{}}, false)
			tail(e)
		}),
		"routed, no payload": raw(func(e *encoder) {
			e.u8(tagRouted)
			e.node(id.Rand(2))
			e.u8(0)
			tail(e)
		}),
		"bool 2":         raw(func(e *encoder) { e.u8(tagLeafSetReply); e.ref(ref); e.refs(nil); e.u8(2) }),
		"from too long":  {0xFF, 0xFF, 0xFF, 0xFF, 'a'},
		"addr too long":  raw(func(e *encoder) { e.u8(tagDepart); e.node(ref.ID); huge(e) }),
		"data too long":  raw(func(e *encoder) { e.u8(tagCacheCopy); e.cert(&FileCertificate{}); huge(e) }),
		"refs too many":  raw(func(e *encoder) { e.u8(tagLeafSetReply); e.ref(ref); huge(e) }),
		"rows too many":  raw(func(e *encoder) { e.u8(tagRouteRows); e.ref(ref); e.i64(0); huge(e) }),
		"files too many": raw(func(e *encoder) { e.u8(tagSyncRequest); e.ref(ref); huge(e) }),
		"sizes too many": raw(func(e *encoder) { e.u8(tagSyncOffer); e.ref(ref); e.files(nil); huge(e) }),
		// A count the remaining bytes could hold as bytes but not as
		// 20-byte elements: the check is per element size.
		"refs count fits only as bytes": raw(func(e *encoder) {
			e.u8(tagNeighborhoodReply)
			e.ref(ref)
			e.count(10)
			e.b = append(e.b, make([]byte, 10*minRefBytes-1)...)
		}),
	}
	for name, b := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, m, err := DecodeFrame(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded as %#v", name, m)
		}
		// "too many" claims ~4 Gi elements; rejecting after allocating for
		// them would show here (and likely die first).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes before rejecting", name, grew)
		}
	}
}

type alien struct{}

func (alien) Kind() string { return "alien" }

func TestEncodeRejects(t *testing.T) {
	bad := map[string]Msg{
		"a type outside the package": alien{},
		"a pointer to a message":     &Ping{},
		"nil":                        nil,
		"routed without payload":     Routed{},
		"routed in routed":           Routed{Payload: Routed{Payload: Depart{}}},
		"routed with alien payload":  Routed{Payload: alien{}},
	}
	for name, m := range bad {
		dst := []byte("kept")
		out, err := AppendFrame(dst, "a:1", m)
		if err == nil {
			t.Errorf("%s: encoded to %d bytes", name, len(out))
		}
		if string(out) != "kept" {
			t.Errorf("%s: dst came back as %q", name, out)
		}
		if n := FrameLen("a:1", m); n != 0 {
			t.Errorf("%s: FrameLen %d, want 0", name, n)
		}
	}
}

// frameLenChecks fails t unless FrameLen is len(b), the encoding of m
// from from, and costs no allocation.
func frameLenChecks(t *testing.T, from string, m Msg, b []byte) {
	t.Helper()
	if n := FrameLen(from, m); n != len(b) {
		t.Fatalf("%T: FrameLen %d, encoding %d bytes", m, n, len(b))
	}
	if a := testing.AllocsPerRun(1, func() { FrameLen(from, m) }); a != 0 {
		t.Fatalf("%T: FrameLen allocates %.0f times", m, a)
	}
}

// TestFrameLenIsTheEncoding: every message type, bare and Routed, with
// full, empty and nil slices, sizes to exactly its encoding.
func TestFrameLenIsTheEncoding(t *testing.T) {
	for _, mode := range []sliceMode{sliceFull, sliceEmpty, sliceNil} {
		for _, m := range filledTable(mode) {
			frameLenChecks(t, "127.0.0.1:7001", m, mustEncode(t, "127.0.0.1:7001", m))
		}
	}
}

// TestTagIsTheEncodedByte: for the same messages, Tag is the byte the
// encoder writes after the sender's address, and distinct types have
// distinct tags; a type the codec cannot encode has tag 0.
func TestTagIsTheEncodedByte(t *testing.T) {
	const from = "127.0.0.1:7001"
	owner := map[byte]string{}
	for _, mode := range []sliceMode{sliceFull, sliceEmpty, sliceNil} {
		for _, m := range filledTable(mode) {
			b := mustEncode(t, from, m)
			tag, name := Tag(m), reflect.TypeOf(m).Name()
			if want := b[4+len(from)]; tag != want || tag == 0 {
				t.Fatalf("%s: Tag %d, encoder wrote %d", name, tag, want)
			}
			if o, ok := owner[tag]; ok && o != name {
				t.Fatalf("%s and %s share tag %d", o, name, tag)
			}
			owner[tag] = name
		}
	}
	if len(owner) != len(allMsgs) {
		t.Fatalf("%d tags for %d message types", len(owner), len(allMsgs))
	}
	for _, m := range []Msg{alien{}, &Ping{}, nil} {
		if tag := Tag(m); tag != 0 {
			t.Errorf("%T: Tag %d, want 0", m, tag)
		}
	}
}

// TestTableIsComplete parses wire.go and fails when a type with a Kind
// method is missing from allMsgs — and with it from every codec test.
func TestTableIsComplete(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	inTable := map[string]bool{}
	for _, m := range allMsgs {
		inTable[reflect.TypeOf(m).Name()] = true
	}
	declared := 0
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Kind" || fn.Recv == nil {
			continue
		}
		recv, ok := fn.Recv.List[0].Type.(*ast.Ident)
		if !ok {
			t.Fatalf("Kind has a receiver that is not a plain type: %v", fn.Recv.List[0].Type)
		}
		declared++
		if !inTable[recv.Name] {
			t.Errorf("%s has a Kind method but is missing from allMsgs", recv.Name)
		}
	}
	if declared != len(allMsgs) {
		t.Errorf("wire.go declares %d message types, allMsgs lists %d", declared, len(allMsgs))
	}
}

var benchFrames = func() map[string]Msg {
	f := &filler{}
	cert := f.filled(FileCertificate{}).(FileCertificate)
	cert.Salt = make([]byte, 8)
	cert.OwnerPub, cert.CardCert, cert.Sig = make([]byte, 32), make([]byte, 64), make([]byte, 64)
	a := NodeRef{ID: id.Rand(1), Addr: "127.0.0.1:40001"}
	b := NodeRef{ID: id.Rand(2), Addr: "127.0.0.1:40002"}
	return map[string]Msg{
		"heartbeat":          Heartbeat{From: a},
		"lookup_request":     Routed{Key: id.Rand(3), Origin: a, Nonce: 1, Payload: LookupRequest{FileID: cert.FileID, Client: a, ReqID: 1}},
		"lookup_reply_4k":    LookupReply{Cert: cert, Data: make([]byte, 4<<10), From: b, ReqID: 1, Hops: 1, Distance: 0.1},
		"replica_store_256k": ReplicaStore{Cert: cert, Data: make([]byte, 256<<10), Client: a, ReqID: 1, Primary: b},
	}
}()

var benchSink Msg

// BenchmarkFrameRoundTrip encodes one frame into a reused buffer, as the
// TCP transport's Send does, and decodes it.
func BenchmarkFrameRoundTrip(b *testing.B) {
	for _, name := range []string{"heartbeat", "lookup_request", "lookup_reply_4k", "replica_store_256k"} {
		m := benchFrames[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				var err error
				if buf, err = AppendFrame(buf[:0], "127.0.0.1:40001", m); err != nil {
					b.Fatal(err)
				}
				if _, benchSink, err = DecodeFrame(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// hasNaN reports a NaN Distance, the one value DeepEqual calls unequal to
// itself.
func hasNaN(m Msg) bool {
	switch m := m.(type) {
	case Routed:
		return math.IsNaN(m.Distance) || hasNaN(m.Payload)
	case LookupReply:
		return math.IsNaN(m.Distance)
	}
	return false
}

// FuzzDecodeFrame: arbitrary bytes never panic the decoder, and whatever
// decodes re-encodes to the very same bytes (the encoding is canonical),
// which FrameLen sizes exactly and which decode to an equal value.
func FuzzDecodeFrame(f *testing.F) {
	for _, mode := range []sliceMode{sliceFull, sliceNil} {
		for _, m := range filledTable(mode) {
			f.Add(mustEncode(f, "127.0.0.1:7001", m))
		}
	}
	f.Add([]byte("this is not a frame")) // the transport fault suite's garbage
	f.Add(make([]byte, 10))              // and its truncated frame
	var addrs Addrs                      // one table across inputs, as across a connection's frames
	f.Fuzz(func(t *testing.T, b []byte) {
		from, m, err := DecodeFrame(b)
		if err != nil {
			if m != nil || from != "" {
				t.Fatalf("error %v came with from %q, message %#v", err, from, m)
			}
			return
		}
		re, err := AppendFrame(nil, from, m)
		if err != nil {
			t.Fatalf("decoded %#v does not encode: %v", m, err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", b, re)
		}
		frameLenChecks(t, from, m, b)
		from2, m2, err := addrs.DecodeFrame(re)
		if err != nil || from2 != from || len(addrs.m) > maxAddrs {
			t.Fatalf("re-decode: from %q (want %q), err %v", from2, from, err)
		}
		if !reflect.DeepEqual(m, m2) && !hasNaN(m) {
			t.Fatalf("re-decode differs:\n got %#v\nwant %#v", m2, m)
		}
	})
}

// A connection's address table hands back an address it has seen rather
// than allocating it again, and frames naming ever new addresses — or one
// longer than any peer's — cannot grow it past its cap.
func TestAddrsBounded(t *testing.T) {
	hb := func(addr string) []byte {
		return mustEncode(t, addr, Heartbeat{From: NodeRef{ID: id.Rand(1), Addr: addr}})
	}
	seen := hb("127.0.0.1:40001")
	var a Addrs
	fresh := testing.AllocsPerRun(100, func() { DecodeFrame(seen) })    //nolint:errcheck // a well-formed frame
	reused := testing.AllocsPerRun(100, func() { a.DecodeFrame(seen) }) //nolint:errcheck // a well-formed frame
	if fresh-reused != 2 {
		t.Fatalf("a heartbeat decodes with %.0f allocations through the table, %.0f without: want the sender's and the NodeRef's addresses saved", reused, fresh)
	}
	for i := range 10 * maxAddrs {
		addr := fmt.Sprintf("10.%d.%d.%d:7001", i>>16&0xff, i>>8&0xff, i&0xff)
		from, m, err := a.DecodeFrame(hb(addr))
		if err != nil || from != addr || m.(Heartbeat).From.Addr != addr {
			t.Fatalf("frame %d decodes to %q, %v (%v)", i, from, m, err)
		}
		if len(a.m) > maxAddrs {
			t.Fatalf("after %d distinct addresses the table holds %d, cap %d", i+1, len(a.m), maxAddrs)
		}
	}
	long := strings.Repeat("x", maxAddrLen+1)
	if from, _, err := a.DecodeFrame(hb(long)); err != nil || from != long || a.m[long] != "" {
		t.Fatalf("a %d-byte address: %v, kept %v", len(long), err, a.m[long] != "")
	}
}

func TestFrameSizes(t *testing.T) {
	// The keep-alive is the smallest frame on the wire; pin its layout so a
	// change to the format shows up as a number, not only as a diff.
	hb := Heartbeat{From: NodeRef{ID: id.Rand(1), Addr: "127.0.0.1:40001"}}
	want := 4 + len("127.0.0.1:40001") + 1 + id.NodeBytes + 4 + len(hb.From.Addr)
	if got := len(mustEncode(t, "127.0.0.1:40001", hb)); got != want {
		t.Fatalf("heartbeat body is %d bytes, want %d", got, want)
	}
	if !strings.HasPrefix(string(mustEncode(t, "x", hb)), "\x00\x00\x00\x01x"+string(rune(tagHeartbeat))) {
		t.Fatal("body does not start with str(From) then the tag")
	}
}
