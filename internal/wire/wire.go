package wire

import (
	"fmt"

	"past/internal/id"
)

// NodeRef identifies a node: its Pastry identifier plus a transport
// address the local transport understands ("sim:<n>" or "host:port").
type NodeRef struct {
	ID   id.Node
	Addr string
}

// IsZero reports whether the reference is unset.
func (r NodeRef) IsZero() bool { return r.Addr == "" && r.ID.IsZero() }

func (r NodeRef) String() string {
	return fmt.Sprintf("%s@%s", r.ID.Short(), r.Addr)
}

// Msg is implemented by every message type in this package. Kind returns a
// stable name used in logs and metrics.
type Msg interface {
	Kind() string
}

// ---------------------------------------------------------------------------
// Routing envelope

// Routed wraps an application payload for key-based routing through the
// Pastry overlay. Hops counts overlay forwards so experiments can measure
// route length; Distance accumulates the proximity metric along the path.
type Routed struct {
	Key      id.Node
	Payload  Msg
	Origin   NodeRef
	Hops     int
	Distance float64
	// Nonce makes retries of the same logical request distinguishable so
	// the randomized routing of section 2.2 ("Fault-tolerance") explores
	// different paths.
	Nonce uint64
}

func (Routed) Kind() string { return "routed" }

// ---------------------------------------------------------------------------
// Pastry maintenance messages

// JoinRequest is routed toward the joining node's nodeId. Every node along
// the path sends the new node the routing-table row(s) it needs (RouteRows)
// and the numerically closest node replies with its leaf set.
type JoinRequest struct {
	New NodeRef
}

func (JoinRequest) Kind() string { return "join" }

// RouteRows carries routing-table rows from a node on the join path to the
// joining node. Rows[i] corresponds to routing-table row FirstRow+i.
type RouteRows struct {
	From     NodeRef
	FirstRow int
	Rows     [][]NodeRef
}

func (RouteRows) Kind() string { return "route-rows" }

// LeafSetReply carries a node's leaf set (plus the node itself) to the
// joining node, or in response to a LeafSetRequest during repair.
type LeafSetReply struct {
	From   NodeRef
	Leaves []NodeRef
	// Terminal marks the reply sent by the join destination Z; receipt of
	// a terminal reply completes the join's state-transfer phase.
	Terminal bool
}

func (LeafSetReply) Kind() string { return "leafset-reply" }

// LeafSetRequest asks a node for its current leaf set (used for repair).
type LeafSetRequest struct {
	From NodeRef
}

func (LeafSetRequest) Kind() string { return "leafset-request" }

// NeighborhoodReply carries the proximity-based neighborhood set from the
// bootstrap node A to the joining node.
type NeighborhoodReply struct {
	From      NodeRef
	Neighbors []NodeRef
}

func (NeighborhoodReply) Kind() string { return "neighborhood-reply" }

// Announce tells existing nodes about a newly joined node so they can fold
// it into their own routing state (the final phase of the join protocol).
type Announce struct {
	From NodeRef
}

func (Announce) Kind() string { return "announce" }

// Heartbeat is the keep-alive exchanged between leaf-set neighbors.
type Heartbeat struct {
	From NodeRef
}

func (Heartbeat) Kind() string { return "heartbeat" }

// Ping measures liveness and proximity. Pong echoes the nonce.
type Ping struct {
	From  NodeRef
	Nonce uint64
}

func (Ping) Kind() string { return "ping" }

// Pong answers a Ping.
type Pong struct {
	From  NodeRef
	Nonce uint64
}

func (Pong) Kind() string { return "pong" }

// RTRepairRequest asks a peer for a replacement routing-table entry with
// the given row/column coordinates (lazy repair, section 2.2).
type RTRepairRequest struct {
	From NodeRef
	Row  int
	Col  int
}

func (RTRepairRequest) Kind() string { return "rt-repair-request" }

// RTRepairReply returns a candidate entry, or a zero Entry if none known.
type RTRepairReply struct {
	From  NodeRef
	Row   int
	Col   int
	Entry NodeRef
}

func (RTRepairReply) Kind() string { return "rt-repair-reply" }

// ---------------------------------------------------------------------------
// PAST storage messages

// FileCertificate is issued by the owner's smartcard before insertion
// (section 2.1). All byte fields are as produced by package seccrypt.
type FileCertificate struct {
	FileID      id.File
	ContentHash [32]byte
	Size        int64
	Replicas    int
	Salt        []byte
	Issued      int64 // unix seconds
	OwnerPub    []byte
	CardCert    []byte // broker's signature over OwnerPub
	Sig         []byte // smartcard signature over the certificate body
}

func (FileCertificate) Kind() string { return "file-certificate" }

// ReclaimCertificate authorizes reclaiming a file's storage (section 2.1).
type ReclaimCertificate struct {
	FileID   id.File
	Issued   int64
	OwnerPub []byte
	CardCert []byte
	Sig      []byte
}

func (ReclaimCertificate) Kind() string { return "reclaim-certificate" }

// InsertRequest is routed toward the fileId. The node whose nodeId is
// numerically closest to the fileId coordinates replication across its
// leaf set.
type InsertRequest struct {
	Cert   FileCertificate
	Data   []byte
	Client NodeRef
	ReqID  uint64
}

func (InsertRequest) Kind() string { return "insert" }

// ReplicaStore asks a specific node to store one replica. Diverted is set
// when the sender is delegating its own replica responsibility to a
// leaf-set member with more free space (replica diversion, section 2.3).
type ReplicaStore struct {
	Cert     FileCertificate
	Data     []byte
	Client   NodeRef
	ReqID    uint64
	Primary  NodeRef // the node responsible in nodeId space
	Diverted bool
}

func (ReplicaStore) Kind() string { return "replica-store" }

// StoreReceipt is returned to the client by each node that stored a copy
// (section 2.1). OnBehalfOf names the primary node when the replica was
// diverted.
type StoreReceipt struct {
	FileID     id.File
	StoredBy   NodeRef
	OnBehalfOf NodeRef
	Diverted   bool
	Size       int64
	NodePub    []byte
	Sig        []byte
	ReqID      uint64
}

func (StoreReceipt) Kind() string { return "store-receipt" }

// InsertReject tells the client the insert could not be accommodated; the
// client may re-salt the fileId and retry (file diversion, section 2.3).
type InsertReject struct {
	FileID id.File
	ReqID  uint64
	Reason string
}

func (InsertReject) Kind() string { return "insert-reject" }

// DivertReject tells the primary node that its chosen diversion target
// could not hold the replica either; the primary tries the next candidate
// or gives up and rejects the insert.
type DivertReject struct {
	FileID id.File
	ReqID  uint64
	From   NodeRef
}

func (DivertReject) Kind() string { return "divert-reject" }

// LookupRequest is routed toward the fileId and satisfied by the first
// node along the route that holds a replica, a diversion pointer, or a
// cached copy.
type LookupRequest struct {
	FileID id.File
	Client NodeRef
	ReqID  uint64
	// PrevHop is the last node that forwarded the request (the client
	// itself until another node does), so the responder can push a cached
	// copy one hop back toward the client: in a CacheCopy when PrevHop is
	// an intermediate node, in the LookupReply itself when it is Client.
	PrevHop NodeRef
	// Redirected marks that a node already steered this lookup to the
	// proximally nearest replica holder; at most one such redirect is
	// allowed, preventing ping-pong between holders.
	Redirected bool
}

func (LookupRequest) Kind() string { return "lookup" }

// LookupReply returns the file (with its certificate, so the client can
// verify authenticity) directly to the client.
type LookupReply struct {
	Cert     FileCertificate
	Data     []byte
	From     NodeRef
	ReqID    uint64
	Hops     int
	Distance float64
	Cached   bool
	// Body, when set, is where Cert and Data are encoded from (see Stored).
	Body Stored
}

func (LookupReply) Kind() string { return "lookup-reply" }

// LookupMiss tells the client the root holds no such file.
type LookupMiss struct {
	FileID id.File
	ReqID  uint64
}

func (LookupMiss) Kind() string { return "lookup-miss" }

// LookupAbort tells the client its lookup exceeded the forwarding hop
// budget — evidence of a routing anomaly (e.g. a malicious node bouncing
// the request around the ring) — so the client can retry along a
// different route immediately instead of waiting out its timeout.
type LookupAbort struct {
	FileID id.File
	ReqID  uint64
	Hops   int
	From   NodeRef
}

func (LookupAbort) Kind() string { return "lookup-abort" }

// ReclaimRequest is routed toward the fileId; the root fans it out to the
// replica holders.
type ReclaimRequest struct {
	Cert   ReclaimCertificate
	Client NodeRef
	ReqID  uint64
}

func (ReclaimRequest) Kind() string { return "reclaim" }

// ReclaimForward carries a reclaim from the root to one replica holder.
type ReclaimForward struct {
	Cert   ReclaimCertificate
	Client NodeRef
	ReqID  uint64
}

func (ReclaimForward) Kind() string { return "reclaim-forward" }

// ReclaimReceipt is returned by each storage node that freed the file's
// storage; presenting it to the smartcard credits the owner's quota.
type ReclaimReceipt struct {
	FileID  id.File
	Freed   int64
	By      NodeRef
	NodePub []byte
	Sig     []byte
	ReqID   uint64
}

func (ReclaimReceipt) Kind() string { return "reclaim-receipt" }

// Replicate transfers a file between nodes during failure recovery or
// leaf-set change so that k copies are maintained (section 2.1,
// "Persistence").
type Replicate struct {
	Cert FileCertificate
	Data []byte
	From NodeRef
	// Body, when set, is where Cert and Data are encoded from (see Stored).
	Body Stored
}

func (Replicate) Kind() string { return "replicate" }

// SyncOffer is the first leg of digest-based anti-entropy: after a
// leaf-set change, a replica holder sends each peer that entered one of
// its files' replica sets a compact summary of the fileIds that peer
// should hold, instead of pushing full file bodies. The peer answers
// with a SyncRequest naming only the files it is missing. Sizes[i] is
// the advertised content size of Files[i], letting a full receiver skip
// files its admission policy would reject anyway — advisory only, since
// arriving bodies are re-verified against their certificates.
type SyncOffer struct {
	From  NodeRef
	Files []id.File
	Sizes []int64
}

func (SyncOffer) Kind() string { return "sync-offer" }

// SyncRequest asks the offerer for the full bodies (as Replicate
// messages) of the files the requester is missing — the second leg of
// anti-entropy.
type SyncRequest struct {
	From  NodeRef
	Files []id.File
}

func (SyncRequest) Kind() string { return "sync-request" }

// Depart announces a graceful departure to the sender's leaf-set
// members, letting them start repair and replica maintenance immediately
// instead of waiting out the failure-detection timeout. Silent crashes
// send nothing.
type Depart struct {
	From NodeRef
}

func (Depart) Kind() string { return "depart" }

// CacheCopy pushes an unsolicited cached copy toward an interested client;
// the receiver may store it in spare capacity (section 2.3). A lookup's
// responder sends one to LookupRequest.PrevHop, and only when that hop is
// not the client: the client caches the LookupReply it verifies, so
// a lookup answered one hop from its client moves the file once.
type CacheCopy struct {
	Cert FileCertificate
	Data []byte
	// Body, when set, is where Cert and Data are encoded from (see Stored).
	Body Stored
}

// Stored is a replica's certificate and content held outside memory: a
// storage.DiskStore log record, whose body begins with exactly the bytes
// the codec writes for a Cert and a Data field — AppendReplica's first
// two fields, and the first two of LookupReply, Replicate and CacheCopy.
// A message of those three types whose Body is set leaves Data nil (its
// Cert may stay set for local use) and is encoded by reading those bytes
// from the record straight into the frame: the node serves a replica
// without holding it in memory. The frame is byte-identical to the one
// the message with Cert and Data filled in encodes to, and a frame
// decodes with Body nil. A message carrying a Body must cross a
// transport that encodes it; an in-process hand-over (the simulator,
// local delivery) needs Data instead.
type Stored interface {
	// Len is the number of bytes AppendTo appends.
	Len() int
	// AppendTo appends the encoded certificate and content to dst, each
	// checked against the record, or fails leaving dst's contents as they
	// were: a body that no longer reads back as stored is never sent.
	AppendTo(dst []byte) ([]byte, error)
}

func (CacheCopy) Kind() string { return "cache-copy" }

// FetchRequest asks a specific node for a file it is known to hold (used
// to chase diversion pointers and during re-replication).
type FetchRequest struct {
	FileID id.File
	Client NodeRef
	ReqID  uint64
}

func (FetchRequest) Kind() string { return "fetch" }

// AuditChallenge asks a node to prove it stores a file by hashing its
// content with a nonce (section 2.1, "Storage quotas": random audits).
type AuditChallenge struct {
	FileID id.File
	Nonce  uint64
	From   NodeRef
	ReqID  uint64
}

func (AuditChallenge) Kind() string { return "audit-challenge" }

// AuditResponse carries the proof-of-storage hash.
type AuditResponse struct {
	FileID id.File
	Proof  [32]byte
	From   NodeRef
	ReqID  uint64
	Held   bool
}

func (AuditResponse) Kind() string { return "audit-response" }
