// Package wire defines the message vocabulary exchanged between PAST
// nodes: overlay routing envelopes (Routed, JoinRequest, Announce,
// Heartbeat) and the PAST storage protocol (InsertRequest, StoreReceipt,
// LookupRequest/Reply, ReclaimRequest/Receipt, replica transfer and
// audit), mapping one-to-one onto the operations of sections 2.1-2.3 of
// the paper.
//
// Messages are plain data structs. The same values travel in-process
// inside the discrete-event simulator and, over the TCP transport, as
// frames in this package's own binary encoding (codec.go: AppendFrame and
// DecodeFrame, one tag byte per message type, fixed-width big-endian
// scalars, length-prefixed byte strings; every frame self-contained).
//
// # Immutable after Send
//
// By convention messages are immutable after Send: senders must not
// retain and mutate slices they put into a message. The storage layer
// extends the same rule to stored content — message payloads, replica
// content, and cache entries all share one immutable backing array, which
// is what makes replication zero-copy (see the package past doc comment).
// Content is hashed where it is accepted — by the root, each replica
// holder and each caching node — and again by the client that receives
// it, so a violated contract is detected rather than silently
// propagated. A replica a disk-backed node serves is not in memory at
// all: its reply carries a Stored in place of Data (codec.go).
//
// The rule covers received messages too: DecodeFrame does not copy byte
// fields (Data, signatures, keys) but slices them out of the frame buffer
// it was handed, so that buffer belongs to the message from then on — it
// is never written to, pooled or reused.
package wire
