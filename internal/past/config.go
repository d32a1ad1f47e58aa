// Package past implements the PAST storage layer on top of Pastry: the
// paper's primary contribution. A past.Node turns a Pastry overlay node
// into a storage node and client access point offering the three
// operations of section 1 — Insert, Lookup and Reclaim — with
// k-replication on the nodes whose nodeIds are numerically closest to the
// fileId, store receipts, reclaim certificates and receipts, storage
// quotas, replica diversion, file diversion, failure-triggered
// re-replication, and caching of popular files along lookup and insert
// paths (sections 2.1 and 2.3).
package past

import "time"

// Config sets the storage-layer parameters. DefaultConfig matches the
// defaults of the paper and its SOSP'01 companion.
type Config struct {
	// K is the default replication factor for inserted files.
	K int
	// Capacity is this node's contributed storage in bytes.
	Capacity int64
	// TPri is the primary acceptance threshold: a node rejects a primary
	// replica when fileSize/freeSpace exceeds it. Large files are thus
	// rejected first as the node fills (section 2.3 via SOSP'01).
	TPri float64
	// TDiv is the (stricter) acceptance threshold for diverted replicas.
	TDiv float64
	// ReplicaDiversion enables delegating a replica to a leaf-set member
	// with spare space when the responsible node is full.
	ReplicaDiversion bool
	// FileDiversion enables client-side retry with a fresh salt (and thus
	// a fresh fileId targeting a different part of the ring) when an
	// insert is rejected.
	FileDiversion bool
	// MaxRetries bounds file-diversion retries; the SOSP'01 companion
	// uses three.
	MaxRetries int
	// Caching enables caching copies of files at nodes along lookup and
	// insert paths, using spare (non-replica) capacity.
	Caching bool
	// RequestTimeout bounds how long a client operation waits for
	// receipts or a reply.
	RequestTimeout time.Duration
	// LookupRetries is the number of additional lookup attempts after
	// the first fails by timeout or hop-budget abort. Retries re-enter
	// the overlay through a different neighbor each time (route
	// diversity, per the randomized-routing argument of section 2.2), so
	// a malicious node on the first path is unlikely to sit on the
	// second. Zero (the default) keeps the original single-attempt
	// behaviour and costs nothing.
	LookupRetries int
	// RetryBackoff is the base delay before retry attempt i: a capped
	// exponential backoff×2^(i-1), capped at 8×backoff. Zero retries
	// immediately. The same discipline paces insert's file-diversion
	// retries.
	RetryBackoff time.Duration
	// InsertResends is the number of times an unacknowledged insert
	// attempt re-routes the SAME request — same certificate, fileId and
	// request id — spread evenly across RequestTimeout, while the attempt
	// waits for its k receipts. Replica holders that already stored the
	// file re-issue their receipts idempotently and the client ignores
	// duplicates, so each re-send only has to survive the frames the
	// network lost last time. This is the client-side retransmission that
	// turns the transport's silent-loss semantics into usable round trips
	// on lossy real networks (the 20%-loss chaos scenario); unlike a
	// file-diversion retry it neither burns quota churn nor moves the
	// fileId. Zero (the default) disables it and costs nothing.
	InsertResends int
	// HopBudget bounds overlay forwarding hops for lookups: a node asked
	// to forward a lookup whose hop count has reached the budget aborts
	// it back to the client (misroute containment) instead of forwarding
	// further. Zero disables the check.
	HopBudget int
	// AntiEntropyEvery is the minimum interval between periodic
	// anti-entropy sweeps. Event-driven maintenance (LeafSetChanged)
	// repairs most membership changes immediately, but when two peers'
	// replica-set views disagree transiently a file can be left at k-1
	// copies with no further event to re-trigger sync (E17 measured ~6%
	// of files stuck that way under churn). The periodic sweep — rate
	// limited here, piggybacked on the Pastry keep-alive timer, digests
	// only — closes that residue. Zero uses the default; it is inert
	// when keep-alives are disabled.
	AntiEntropyEvery time.Duration
	// Epoch anchors certificate timestamps and expiry checks: wall-clock
	// seconds at the node clock's time zero. The simulator keeps the
	// default constant; a real peer sets the time it started.
	Epoch int64
}

// DefaultConfig returns the paper's parameters: k=5 replicas (the value
// used in the replica-locality experiment), thresholds 0.1/0.05, three
// file-diversion retries, caching on.
func DefaultConfig() Config {
	return Config{
		K:                5,
		Capacity:         256 << 20, // pastnode's -capacity default
		TPri:             0.1,
		TDiv:             0.05,
		ReplicaDiversion: true,
		FileDiversion:    true,
		MaxRetries:       3,
		Caching:          true,
		RequestTimeout:   30 * time.Second,
		AntiEntropyEvery: 10 * time.Second,
		Epoch:            1_000_000_000,
	}
}
