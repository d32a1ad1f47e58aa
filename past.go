// Package past is the public API of this PAST reproduction: a large-scale,
// persistent peer-to-peer storage utility built on the Pastry location and
// routing scheme (Druschel & Rowstron, HotOS 2001).
//
// Two entry points cover the two ways to run PAST:
//
//   - Network builds a whole simulated PAST network in-process on a
//     deterministic discrete-event simulator — the configuration used by
//     the paper-reproduction experiments and most tests. See NewNetwork.
//
//   - Peer runs one real storage node speaking the binary frame codec
//     over TCP, for multi-process deployments on real machines. See
//     ListenPeer.
//
// Both expose the paper's three operations — Insert, Lookup, Reclaim —
// with the full protocol stack underneath: smartcard-signed file
// certificates and receipts, storage quotas, k-replication on the nodes
// whose nodeIds are numerically closest to the fileId, replica and file
// diversion for storage balancing, failure-triggered re-replication, and
// caching of popular files along lookup paths.
//
// The deeper layers live in internal packages (internal/pastry,
// internal/past, internal/seccrypt, internal/simnet, ...); this package
// re-exports the types a downstream application needs.
//
// # Performance
//
// Two hot-path invariants keep inserts and lookups cheap; both matter to
// anyone embedding this package:
//
// Verification memoization. Signature checks are memoized process-wide
// in a fixed table (second-chance replacement) keyed by a SHA-256 digest
// of (public key, signature, body), so the k replica holders of one
// insert — and every retry, recovery transfer, cached copy or lookup of
// the same certificate — perform the ed25519 scalar math once rather
// than k times. The memo caches only the pure signature relation: expiry
// and ownership checks re-run on every verification, and any mutation of
// a signed byte changes the key and misses the cache, so a stale positive
// would require a SHA-256 collision.
//
// Zero-copy replication. Message payloads and stored content share one
// immutable backing array: a 4 KiB insert materializes one buffer, not
// one per replica plus one per cache. The corresponding contract is the
// wire package's "immutable after Send" rule extended to storage — byte
// slices handed to Insert, and slices returned by Lookup, must not be
// mutated afterwards. Re-inserting changed content under a new name (or
// after Reclaim) is the supported way to change data; content is hashed
// where a node accepts it and again by the client that receives it, so a
// violated contract is detected rather than silently propagated. A peer
// with a DataDir keeps no replica in memory: it serves each from its log.
package past

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"past/internal/cluster"
	"past/internal/id"
	pastcore "past/internal/past"
	"past/internal/seccrypt"
	"past/internal/wire"
)

// FileID is a 160-bit PAST file identifier.
type FileID = id.File

// NodeID is a 128-bit Pastry node identifier.
type NodeID = id.Node

// ParseFileID parses a 40-hex-digit fileId.
func ParseFileID(s string) (FileID, error) { return id.ParseFile(s) }

// InsertResult reports an insert outcome: the assigned fileId, the store
// receipts collected from the replica holders, and retry accounting.
type InsertResult = pastcore.InsertResult

// LookupResult carries the retrieved file, its certificate, and routing
// telemetry (overlay hops, proximity distance, cache hit).
type LookupResult = pastcore.LookupResult

// ReclaimResult carries the reclaim receipts and total bytes freed.
type ReclaimResult = pastcore.ReclaimResult

// StorageConfig configures the PAST storage layer of a node.
type StorageConfig = pastcore.Config

// DefaultStorageConfig returns the paper's defaults (k=5, thresholds
// 0.1/0.05, diversion and caching enabled).
func DefaultStorageConfig() StorageConfig { return pastcore.DefaultConfig() }

// Broker issues smartcards and balances storage supply and demand
// (section 1 of the paper).
type Broker = seccrypt.Broker

// Smartcard holds a user's key pair and quota ledger; it issues file and
// reclaim certificates and signs receipts (section 2.1).
type Smartcard = seccrypt.Smartcard

// NewBroker creates a broker with a fresh certification key. Pass nil to
// use crypto/rand.
func NewBroker() (*Broker, error) { return seccrypt.NewBroker(nil) }

// DeriveBroker derives the shared network broker from a seed string, the
// demo stand-in for the paper's third-party broker (which would
// distribute smartcards out of band). All nodes of one deployment must
// use the same seed. Two forms are accepted:
//
//   - "det:<uint64>" draws the key from the deterministic stream seeded
//     with that number — the same derivation the simulator uses
//     (NetworkConfig.Seed s maps to "det:<s+1>"), which is how the
//     conformance harness gives real processes the simulator's identities.
//   - anything else is FNV-hashed to a stream seed.
func DeriveBroker(seed string) (*Broker, error) {
	if rest, ok := strings.CutPrefix(seed, "det:"); ok {
		v, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("past: broker seed %q: det: needs a uint64: %w", seed, err)
		}
		return seccrypt.NewBroker(seccrypt.DetRand(v))
	}
	h := uint64(1469598103934665603)
	for _, b := range []byte(seed) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return seccrypt.NewBroker(seccrypt.DetRand(h))
}

// DetCardRand returns the deterministic randomness stream for issuing
// card i of a seed-s deployment, matching the simulator's derivation so a
// real node can reproduce the nodeId the simulator assigns node i.
func DetCardRand(seed int64, i int) io.Reader {
	return seccrypt.DetRand(cluster.CardSeed(seed, i))
}

// StoreReceipt proves a node stored a replica.
type StoreReceipt = wire.StoreReceipt

// ReclaimReceipt proves a node freed a replica's storage.
type ReclaimReceipt = wire.ReclaimReceipt

// NodeRef names a node: identifier plus transport address.
type NodeRef = wire.NodeRef

// Errors re-exported for errors.Is checks.
var (
	// ErrTimeout reports a client operation that did not complete.
	ErrTimeout = pastcore.ErrTimeout
	// ErrRejected reports an insert the network could not accommodate.
	ErrRejected = pastcore.ErrRejected
	// ErrNotFound reports a lookup for an unknown (or reclaimed) fileId.
	ErrNotFound = pastcore.ErrNotFound
	// ErrQuotaExceeded reports an insert beyond the card's storage quota.
	ErrQuotaExceeded = seccrypt.ErrQuotaExceeded
	// ErrTooLarge reports a Peer insert whose file and certificate cannot
	// travel in one transport frame; nothing was signed or debited.
	ErrTooLarge = errors.New("past: file does not fit one frame")
)
