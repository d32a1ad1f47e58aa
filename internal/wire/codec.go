package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"past/internal/id"
)

// The frame codec: the one encoder (AppendFrame) and the one decoder
// (DecodeFrame) for what the TCP transport puts behind its 4-byte length
// prefix. The same field encoders write the bodies of storage.DiskStore's
// log records (AppendReplica, AppendPointer), so the certificate layout is
// a disk format too: append, never renumber or reorder. A frame body is
// the sender's address followed by one message:
//
//	body    = str(From) msg
//	msg     = tag(1) fields...           tag identifies the message type
//	int, int64, uint64 = 8 bytes big-endian (two's complement)
//	float64 = 8 bytes big-endian IEEE 754 bits
//	bool    = 1 byte, 0 or 1
//	id.Node = 16 bytes, id.File = 20 bytes, [32]byte = 32 bytes
//	str, []byte = u32 length, then the bytes
//	[]T     = u32 count, then the elements
//	NodeRef = id.Node str(Addr)
//
// Fields follow in struct declaration order; a Body is not a field but
// the source of the Cert and Data fields it stands in for (see Stored).
// Routed carries its payload inline as another msg, which must not itself
// be a Routed. Every frame is self-contained: there is no handshake and no
// per-connection state, so a proxy may drop, delay or reorder individual
// frames. The encoding is canonical — a body that decodes re-encodes to
// the same bytes.

// Message tags. The values are the wire format: append, never renumber.
const (
	tagRouted byte = 1 + iota
	tagJoinRequest
	tagRouteRows
	tagLeafSetReply
	tagLeafSetRequest
	tagNeighborhoodReply
	tagAnnounce
	tagHeartbeat
	tagPing
	tagPong
	tagRTRepairRequest
	tagRTRepairReply
	tagFileCertificate
	tagReclaimCertificate
	tagInsertRequest
	tagReplicaStore
	tagStoreReceipt
	tagInsertReject
	tagDivertReject
	tagLookupRequest
	tagLookupReply
	tagLookupMiss
	tagLookupAbort
	tagReclaimRequest
	tagReclaimForward
	tagReclaimReceipt
	tagReplicate
	tagSyncOffer
	tagSyncRequest
	tagDepart
	tagCacheCopy
	tagFetchRequest
	tagAuditChallenge
	tagAuditResponse
)

// Smallest encodings of the variable-size slice elements, used to reject
// a count larger than the bytes that remain before allocating for it.
const (
	minRefBytes = id.NodeBytes + 4 // id + empty Addr
	minRowBytes = 4                // empty row
)

var errTruncated = errors.New("wire: truncated frame")

// AppendFrame appends the frame body for message m sent by from to dst and
// returns the extended slice. It fails, leaving dst's contents unchanged,
// on a message type outside this package's vocabulary, a Routed whose
// payload is absent or itself a Routed, or a field too long for its prefix.
func AppendFrame(dst []byte, from string, m Msg) ([]byte, error) {
	e := encoder{b: dst}
	e.str(from)
	e.msg(m, false)
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// FrameLen returns len(AppendFrame(nil, from, m)) without encoding: the
// encoder's own field walk, counting instead of appending. It is 0 for a
// message AppendFrame refuses, and never allocates.
func FrameLen(from string, m Msg) int {
	e := encoder{sizing: true}
	e.str(from)
	e.msg(m, false)
	if e.err != nil {
		return 0
	}
	return e.n
}

// DecodeFrame decodes one frame body. Byte-slice fields of the returned
// message (Data, signatures, keys, salts) alias b rather than copying it,
// each capped to its own length: the caller hands b over and must never
// write to or reuse it, exactly as for any sent payload (see the package
// doc). Truncated, trailing, oversized-count and unknown-tag input is an
// error, never a panic.
func DecodeFrame(b []byte) (from string, m Msg, err error) {
	return (*Addrs)(nil).DecodeFrame(b)
}

// Addrs is a bounded table of the addresses frames name — a frame's
// sender and each NodeRef's Addr — from which a decoder returns an
// address it has seen already instead of allocating a string for it. A
// transport keeps one per connection, whose frames keep naming the same
// few peers. Its zero value is empty. It holds at most maxAddrs addresses
// of at most maxAddrLen bytes and starts over when full, so frames naming
// ever new addresses cannot grow it; a nil *Addrs allocates every one.
type Addrs struct{ m map[string]string }

const (
	maxAddrs   = 128
	maxAddrLen = 64
)

// DecodeFrame is the package's DecodeFrame, taking addresses from a.
func (a *Addrs) DecodeFrame(b []byte) (from string, m Msg, err error) {
	d := decoder{b: b, addrs: a}
	from = d.addr()
	m = d.msg(false)
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("wire: %d trailing bytes after %s", len(d.b), m.Kind())
	}
	if d.err != nil {
		return "", nil, d.err
	}
	return from, m, nil
}

// AppendReplica appends a replica at rest to dst: m's Cert, Data, Primary
// and Diverted in ReplicaStore's field order, without the tag and the
// request-only From, Client and ReqID. It is the body of
// storage.DiskStore's put record.
func AppendReplica(dst []byte, m ReplicaStore) ([]byte, error) {
	e := encoder{b: dst}
	e.cert(&m.Cert)
	e.bytes(m.Data)
	e.ref(m.Primary)
	e.bool(m.Diverted)
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// ReplicaPrefixLen is the length of the bytes a replica's certificate
// and content encode to — the part of AppendReplica's output a Stored
// appends — for content of size bytes.
func ReplicaPrefixLen(c *FileCertificate, size int) int {
	e := encoder{sizing: true}
	e.cert(c)
	e.count(size)
	return e.n + size
}

// DecodeReplica decodes what AppendReplica wrote, aliasing b as
// DecodeFrame does. Client and ReqID are left empty.
func DecodeReplica(b []byte) (ReplicaStore, error) {
	d := decoder{b: b}
	m := ReplicaStore{Cert: d.cert(), Data: d.bytes(), Primary: d.ref(), Diverted: d.bool()}
	return m, d.done()
}

// AppendPointer appends a diversion pointer at rest to dst: the fileId,
// then the node holding the diverted replica. It is the body of
// storage.DiskStore's pointer record.
func AppendPointer(dst []byte, f id.File, holder NodeRef) ([]byte, error) {
	e := encoder{b: dst}
	e.file(f)
	e.ref(holder)
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// DecodePointer decodes what AppendPointer wrote.
func DecodePointer(b []byte) (id.File, NodeRef, error) {
	d := decoder{b: b}
	f, holder := d.file(), d.ref()
	return f, holder, d.done()
}

// encoder appends fields to b, or with sizing set only counts their bytes
// in n; the first error sticks.
type encoder struct {
	b      []byte
	n      int
	sizing bool
	tmp    [8]byte // a fixed-width field on its way to put
	err    error
}

// put appends p, or when sizing only counts it.
func (e *encoder) put(p []byte) {
	if e.sizing {
		e.n += len(p)
	} else {
		e.b = append(e.b, p...)
	}
}

func (e *encoder) u8(v byte)       { e.put(append(e.tmp[:0], v)) }
func (e *encoder) u64(v uint64)    { e.put(binary.BigEndian.AppendUint64(e.tmp[:0], v)) }
func (e *encoder) i64(v int64)     { e.u64(uint64(v)) }
func (e *encoder) f64(v float64)   { e.u64(math.Float64bits(v)) }
func (e *encoder) node(v id.Node)  { e.put(v[:]) }
func (e *encoder) file(v id.File)  { e.put(v[:]) }
func (e *encoder) hash(v [32]byte) { e.put(v[:]) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) count(n int) {
	if n > math.MaxUint32 {
		e.fail(fmt.Errorf("wire: field of %d elements exceeds the u32 prefix", n))
	}
	e.put(binary.BigEndian.AppendUint32(e.tmp[:0], uint32(n)))
}

func (e *encoder) bytes(v []byte) {
	e.count(len(v))
	e.put(v)
}

func (e *encoder) str(v string) {
	e.count(len(v))
	if e.sizing {
		e.n += len(v)
	} else {
		e.b = append(e.b, v...)
	}
}

func (e *encoder) ref(r NodeRef) {
	e.node(r.ID)
	e.str(r.Addr)
}

func (e *encoder) refs(rs []NodeRef) {
	e.count(len(rs))
	for i := range rs {
		e.ref(rs[i])
	}
}

func (e *encoder) files(fs []id.File) {
	e.count(len(fs))
	for i := range fs {
		e.file(fs[i])
	}
}

func (e *encoder) cert(c *FileCertificate) {
	e.file(c.FileID)
	e.hash(c.ContentHash)
	e.i64(c.Size)
	e.i64(int64(c.Replicas))
	e.bytes(c.Salt)
	e.i64(c.Issued)
	e.bytes(c.OwnerPub)
	e.bytes(c.CardCert)
	e.bytes(c.Sig)
}

// replica writes a certificate and its content, from body when set.
func (e *encoder) replica(c *FileCertificate, data []byte, body Stored) {
	switch {
	case body == nil:
		e.cert(c)
		e.bytes(data)
	case e.sizing:
		e.n += body.Len()
	case e.err == nil:
		b, err := body.AppendTo(e.b)
		if err != nil {
			e.fail(err)
			return
		}
		e.b = b
	}
}

func (e *encoder) reclaimCert(c *ReclaimCertificate) {
	e.file(c.FileID)
	e.i64(c.Issued)
	e.bytes(c.OwnerPub)
	e.bytes(c.CardCert)
	e.bytes(c.Sig)
}

// Tag returns the byte AppendFrame writes ahead of m's fields, the one
// mapping from message type to tag; it is 0 for a type the codec cannot
// encode.
func Tag(m Msg) byte {
	switch m.(type) {
	case Routed:
		return tagRouted
	case JoinRequest:
		return tagJoinRequest
	case RouteRows:
		return tagRouteRows
	case LeafSetReply:
		return tagLeafSetReply
	case LeafSetRequest:
		return tagLeafSetRequest
	case NeighborhoodReply:
		return tagNeighborhoodReply
	case Announce:
		return tagAnnounce
	case Heartbeat:
		return tagHeartbeat
	case Ping:
		return tagPing
	case Pong:
		return tagPong
	case RTRepairRequest:
		return tagRTRepairRequest
	case RTRepairReply:
		return tagRTRepairReply
	case FileCertificate:
		return tagFileCertificate
	case ReclaimCertificate:
		return tagReclaimCertificate
	case InsertRequest:
		return tagInsertRequest
	case ReplicaStore:
		return tagReplicaStore
	case StoreReceipt:
		return tagStoreReceipt
	case InsertReject:
		return tagInsertReject
	case DivertReject:
		return tagDivertReject
	case LookupRequest:
		return tagLookupRequest
	case LookupReply:
		return tagLookupReply
	case LookupMiss:
		return tagLookupMiss
	case LookupAbort:
		return tagLookupAbort
	case ReclaimRequest:
		return tagReclaimRequest
	case ReclaimForward:
		return tagReclaimForward
	case ReclaimReceipt:
		return tagReclaimReceipt
	case Replicate:
		return tagReplicate
	case SyncOffer:
		return tagSyncOffer
	case SyncRequest:
		return tagSyncRequest
	case Depart:
		return tagDepart
	case CacheCopy:
		return tagCacheCopy
	case FetchRequest:
		return tagFetchRequest
	case AuditChallenge:
		return tagAuditChallenge
	case AuditResponse:
		return tagAuditResponse
	}
	return 0
}

// msg appends m's tag and fields. nested is set for a Routed's payload.
func (e *encoder) msg(m Msg, nested bool) {
	tag := Tag(m)
	if tag == 0 {
		e.fail(fmt.Errorf("wire: cannot encode message of type %T", m))
		return
	}
	e.u8(tag)
	switch m := m.(type) {
	case Routed:
		if nested || m.Payload == nil {
			e.fail(errors.New("wire: Routed payload must be a non-Routed message"))
			return
		}
		e.node(m.Key)
		e.msg(m.Payload, true)
		e.ref(m.Origin)
		e.i64(int64(m.Hops))
		e.f64(m.Distance)
		e.u64(m.Nonce)
	case JoinRequest:
		e.ref(m.New)
	case RouteRows:
		e.ref(m.From)
		e.i64(int64(m.FirstRow))
		e.count(len(m.Rows))
		for _, row := range m.Rows {
			e.refs(row)
		}
	case LeafSetReply:
		e.ref(m.From)
		e.refs(m.Leaves)
		e.bool(m.Terminal)
	case LeafSetRequest:
		e.ref(m.From)
	case NeighborhoodReply:
		e.ref(m.From)
		e.refs(m.Neighbors)
	case Announce:
		e.ref(m.From)
	case Heartbeat:
		e.ref(m.From)
	case Ping:
		e.ref(m.From)
		e.u64(m.Nonce)
	case Pong:
		e.ref(m.From)
		e.u64(m.Nonce)
	case RTRepairRequest:
		e.ref(m.From)
		e.i64(int64(m.Row))
		e.i64(int64(m.Col))
	case RTRepairReply:
		e.ref(m.From)
		e.i64(int64(m.Row))
		e.i64(int64(m.Col))
		e.ref(m.Entry)
	case FileCertificate:
		e.cert(&m)
	case ReclaimCertificate:
		e.reclaimCert(&m)
	case InsertRequest:
		e.cert(&m.Cert)
		e.bytes(m.Data)
		e.ref(m.Client)
		e.u64(m.ReqID)
	case ReplicaStore:
		e.cert(&m.Cert)
		e.bytes(m.Data)
		e.ref(m.Client)
		e.u64(m.ReqID)
		e.ref(m.Primary)
		e.bool(m.Diverted)
	case StoreReceipt:
		e.file(m.FileID)
		e.ref(m.StoredBy)
		e.ref(m.OnBehalfOf)
		e.bool(m.Diverted)
		e.i64(m.Size)
		e.bytes(m.NodePub)
		e.bytes(m.Sig)
		e.u64(m.ReqID)
	case InsertReject:
		e.file(m.FileID)
		e.u64(m.ReqID)
		e.str(m.Reason)
	case DivertReject:
		e.file(m.FileID)
		e.u64(m.ReqID)
		e.ref(m.From)
	case LookupRequest:
		e.file(m.FileID)
		e.ref(m.Client)
		e.u64(m.ReqID)
		e.ref(m.PrevHop)
		e.bool(m.Redirected)
	case LookupReply:
		e.replica(&m.Cert, m.Data, m.Body)
		e.ref(m.From)
		e.u64(m.ReqID)
		e.i64(int64(m.Hops))
		e.f64(m.Distance)
		e.bool(m.Cached)
	case LookupMiss:
		e.file(m.FileID)
		e.u64(m.ReqID)
	case LookupAbort:
		e.file(m.FileID)
		e.u64(m.ReqID)
		e.i64(int64(m.Hops))
		e.ref(m.From)
	case ReclaimRequest:
		e.reclaimCert(&m.Cert)
		e.ref(m.Client)
		e.u64(m.ReqID)
	case ReclaimForward:
		e.reclaimCert(&m.Cert)
		e.ref(m.Client)
		e.u64(m.ReqID)
	case ReclaimReceipt:
		e.file(m.FileID)
		e.i64(m.Freed)
		e.ref(m.By)
		e.bytes(m.NodePub)
		e.bytes(m.Sig)
		e.u64(m.ReqID)
	case Replicate:
		e.replica(&m.Cert, m.Data, m.Body)
		e.ref(m.From)
	case SyncOffer:
		e.ref(m.From)
		e.files(m.Files)
		e.count(len(m.Sizes))
		for _, s := range m.Sizes {
			e.i64(s)
		}
	case SyncRequest:
		e.ref(m.From)
		e.files(m.Files)
	case Depart:
		e.ref(m.From)
	case CacheCopy:
		e.replica(&m.Cert, m.Data, m.Body)
	case FetchRequest:
		e.file(m.FileID)
		e.ref(m.Client)
		e.u64(m.ReqID)
	case AuditChallenge:
		e.file(m.FileID)
		e.u64(m.Nonce)
		e.ref(m.From)
		e.u64(m.ReqID)
	case AuditResponse:
		e.file(m.FileID)
		e.hash(m.Proof)
		e.ref(m.From)
		e.u64(m.ReqID)
		e.bool(m.Held)
	}
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// decoder consumes fields from the front of b. The first error sticks and
// every later read returns a zero value, so message decoding is written
// straight-line and checked once at the end.
type decoder struct {
	b     []byte
	err   error
	addrs *Addrs // where addresses come from; nil allocates each
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// done returns the first error, or one for bytes left over.
func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("wire: %d trailing bytes", len(d.b))
	}
	return d.err
}

// take returns the next n bytes, capped so an append by the holder cannot
// run into the bytes that follow.
func (d *decoder) take(n int) []byte {
	if n > len(d.b) {
		d.fail(errTruncated)
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) int() int     { return int(d.i64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) bool() bool {
	v := d.u8()
	if v > 1 {
		d.fail(fmt.Errorf("wire: bool byte %d", v))
	}
	return v == 1
}

func (d *decoder) node() (v id.Node) {
	copy(v[:], d.take(len(v)))
	return v
}

func (d *decoder) file() (v id.File) {
	copy(v[:], d.take(len(v)))
	return v
}

func (d *decoder) hash() (v [32]byte) {
	copy(v[:], d.take(len(v)))
	return v
}

// count reads a u32 element count and rejects one that the remaining
// bytes cannot hold at elem bytes per element, before anything is
// allocated for it.
func (d *decoder) count(elem int) int {
	p := d.take(4)
	if p == nil {
		return 0
	}
	n := uint64(binary.BigEndian.Uint32(p))
	if n*uint64(elem) > uint64(len(d.b)) {
		d.fail(fmt.Errorf("wire: count %d exceeds the %d bytes remaining", n, len(d.b)))
		return 0
	}
	return int(n)
}

// bytes aliases the frame. An empty field decodes as nil.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	return d.take(n)
}

func (d *decoder) str() string { return string(d.take(d.count(1))) }

// addr reads a str that names a node, through the decoder's table.
func (d *decoder) addr() string {
	b := d.take(d.count(1))
	a := d.addrs
	if a == nil || d.err != nil || len(b) > maxAddrLen {
		return string(b)
	}
	if s, ok := a.m[string(b)]; ok {
		return s
	}
	if a.m == nil {
		a.m = make(map[string]string)
	} else if len(a.m) == maxAddrs {
		clear(a.m)
	}
	s := string(b)
	a.m[s] = s
	return s
}

func (d *decoder) ref() NodeRef { return NodeRef{ID: d.node(), Addr: d.addr()} }

func (d *decoder) refs() []NodeRef {
	n := d.count(minRefBytes)
	if n == 0 {
		return nil
	}
	rs := make([]NodeRef, n)
	for i := range rs {
		rs[i] = d.ref()
	}
	return rs
}

func (d *decoder) files() []id.File {
	n := d.count(id.FileBytes)
	if n == 0 {
		return nil
	}
	fs := make([]id.File, n)
	for i := range fs {
		fs[i] = d.file()
	}
	return fs
}

func (d *decoder) cert() FileCertificate {
	return FileCertificate{
		FileID:      d.file(),
		ContentHash: d.hash(),
		Size:        d.i64(),
		Replicas:    d.int(),
		Salt:        d.bytes(),
		Issued:      d.i64(),
		OwnerPub:    d.bytes(),
		CardCert:    d.bytes(),
		Sig:         d.bytes(),
	}
}

func (d *decoder) reclaimCert() ReclaimCertificate {
	return ReclaimCertificate{
		FileID:   d.file(),
		Issued:   d.i64(),
		OwnerPub: d.bytes(),
		CardCert: d.bytes(),
		Sig:      d.bytes(),
	}
}

// msg reads one tag and that message's fields; composite-literal fields
// are evaluated in the order written, which is the wire order. nested is
// set for a Routed's payload. After an error the result is meaningless.
func (d *decoder) msg(nested bool) Msg {
	switch tag := d.u8(); tag {
	case tagRouted:
		if nested {
			d.fail(errors.New("wire: Routed nested in a Routed"))
			return nil
		}
		return Routed{Key: d.node(), Payload: d.msg(true), Origin: d.ref(), Hops: d.int(), Distance: d.f64(), Nonce: d.u64()}
	case tagJoinRequest:
		return JoinRequest{New: d.ref()}
	case tagRouteRows:
		m := RouteRows{From: d.ref(), FirstRow: d.int()}
		if n := d.count(minRowBytes); n > 0 {
			m.Rows = make([][]NodeRef, n)
			for i := range m.Rows {
				m.Rows[i] = d.refs()
			}
		}
		return m
	case tagLeafSetReply:
		return LeafSetReply{From: d.ref(), Leaves: d.refs(), Terminal: d.bool()}
	case tagLeafSetRequest:
		return LeafSetRequest{From: d.ref()}
	case tagNeighborhoodReply:
		return NeighborhoodReply{From: d.ref(), Neighbors: d.refs()}
	case tagAnnounce:
		return Announce{From: d.ref()}
	case tagHeartbeat:
		return Heartbeat{From: d.ref()}
	case tagPing:
		return Ping{From: d.ref(), Nonce: d.u64()}
	case tagPong:
		return Pong{From: d.ref(), Nonce: d.u64()}
	case tagRTRepairRequest:
		return RTRepairRequest{From: d.ref(), Row: d.int(), Col: d.int()}
	case tagRTRepairReply:
		return RTRepairReply{From: d.ref(), Row: d.int(), Col: d.int(), Entry: d.ref()}
	case tagFileCertificate:
		return d.cert()
	case tagReclaimCertificate:
		return d.reclaimCert()
	case tagInsertRequest:
		return InsertRequest{Cert: d.cert(), Data: d.bytes(), Client: d.ref(), ReqID: d.u64()}
	case tagReplicaStore:
		return ReplicaStore{Cert: d.cert(), Data: d.bytes(), Client: d.ref(), ReqID: d.u64(), Primary: d.ref(), Diverted: d.bool()}
	case tagStoreReceipt:
		return StoreReceipt{FileID: d.file(), StoredBy: d.ref(), OnBehalfOf: d.ref(), Diverted: d.bool(), Size: d.i64(), NodePub: d.bytes(), Sig: d.bytes(), ReqID: d.u64()}
	case tagInsertReject:
		return InsertReject{FileID: d.file(), ReqID: d.u64(), Reason: d.str()}
	case tagDivertReject:
		return DivertReject{FileID: d.file(), ReqID: d.u64(), From: d.ref()}
	case tagLookupRequest:
		return LookupRequest{FileID: d.file(), Client: d.ref(), ReqID: d.u64(), PrevHop: d.ref(), Redirected: d.bool()}
	case tagLookupReply:
		return LookupReply{Cert: d.cert(), Data: d.bytes(), From: d.ref(), ReqID: d.u64(), Hops: d.int(), Distance: d.f64(), Cached: d.bool()}
	case tagLookupMiss:
		return LookupMiss{FileID: d.file(), ReqID: d.u64()}
	case tagLookupAbort:
		return LookupAbort{FileID: d.file(), ReqID: d.u64(), Hops: d.int(), From: d.ref()}
	case tagReclaimRequest:
		return ReclaimRequest{Cert: d.reclaimCert(), Client: d.ref(), ReqID: d.u64()}
	case tagReclaimForward:
		return ReclaimForward{Cert: d.reclaimCert(), Client: d.ref(), ReqID: d.u64()}
	case tagReclaimReceipt:
		return ReclaimReceipt{FileID: d.file(), Freed: d.i64(), By: d.ref(), NodePub: d.bytes(), Sig: d.bytes(), ReqID: d.u64()}
	case tagReplicate:
		return Replicate{Cert: d.cert(), Data: d.bytes(), From: d.ref()}
	case tagSyncOffer:
		m := SyncOffer{From: d.ref(), Files: d.files()}
		if n := d.count(8); n > 0 {
			m.Sizes = make([]int64, n)
			for i := range m.Sizes {
				m.Sizes[i] = d.i64()
			}
		}
		return m
	case tagSyncRequest:
		return SyncRequest{From: d.ref(), Files: d.files()}
	case tagDepart:
		return Depart{From: d.ref()}
	case tagCacheCopy:
		return CacheCopy{Cert: d.cert(), Data: d.bytes()}
	case tagFetchRequest:
		return FetchRequest{FileID: d.file(), Client: d.ref(), ReqID: d.u64()}
	case tagAuditChallenge:
		return AuditChallenge{FileID: d.file(), Nonce: d.u64(), From: d.ref(), ReqID: d.u64()}
	case tagAuditResponse:
		return AuditResponse{FileID: d.file(), Proof: d.hash(), From: d.ref(), ReqID: d.u64(), Held: d.bool()}
	default:
		d.fail(fmt.Errorf("wire: unknown message tag %d", tag)) // no-op after an earlier error
		return nil
	}
}
