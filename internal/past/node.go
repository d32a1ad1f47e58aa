package past

import (
	"bytes"
	"cmp"
	"crypto/ed25519"
	"slices"
	"sort"
	"sync"
	"time"

	"past/internal/id"
	"past/internal/pastry"
	"past/internal/seccrypt"
	"past/internal/storage"
	"past/internal/wire"
)

// Node is a PAST storage node and client access point. It implements
// pastry.App and must be installed on its Pastry node with SetApp.
type Node struct {
	cfg       Config
	pn        *pastry.Node
	card      *seccrypt.Smartcard
	brokerPub ed25519.PublicKey
	store     replicas
	cache     *storage.Cache

	// mischief, when set, makes this node cheat on storage (experiment
	// harness only; see SetMischief). Configured before the node handles
	// traffic, read-only afterwards.
	mischief Mischief

	mu      sync.Mutex
	pending map[uint64]*pendingOp
	// lastSweep is when the periodic anti-entropy sweep last ran (virtual
	// clock); see Maintain.
	lastSweep time.Duration
	swept     bool
	// requested tracks anti-entropy fetches in flight (fileId → request
	// time): when several holders offer the same missing file within one
	// repair round, only the first offer triggers a SyncRequest, so only
	// one full body is shipped. Entries expire after RequestTimeout (the
	// offerer may have departed) and are dropped when the body stores.
	requested map[id.File]time.Duration

	// Stats counts storage-management events for the experiments.
	stats Stats
}

// Stats aggregates per-node storage-management counters. CachePushes
// counts copies this node, as responder, pushed one hop toward the client,
// in either frame: a CacheCopy to an intermediate hop, or the LookupReply
// itself when that hop is the client.
type Stats struct {
	PrimaryStores  int
	DivertedStores int
	InsertRejects  int
	Replications   int
	CachePushes    int
	LookupsServed  int
	CacheServes    int

	// Resilience counters. LookupRetries counts lookup attempts this
	// node, as client, re-issued after a timeout or a hop-budget abort;
	// ForgedReceiptsDropped counts store receipts discarded on arrival
	// because their signature failed verification. RouteAborts counts lookups
	// this node refused to forward past the hop budget (server side).
	LookupRetries         int
	RouteAborts           int
	ForgedReceiptsDropped int

	// Replica-maintenance traffic sent by this node: anti-entropy digests
	// and requests (Replications counts the Replicate bodies, so the
	// message count is SyncOffers + SyncRequests + Replications).
	// MaintenanceBytes is the frame-codec size of that traffic
	// (wire.FrameLen, the transport's length prefix not counted).
	SyncOffers       int
	SyncRequests     int
	MaintenanceBytes int64
}

// replicas is a node's replica store: the in-memory storage.Store of a
// simulated node, or the storage.DiskStore UseDisk installs. Get returns
// a replica whole, Serve as a reply carries it — from a DiskStore, its
// record with only the certificate's FileID, Size and Replicas, which is
// all a lookup, a fetch and a sync need; the rare paths that need the
// whole certificate or the content (reclaim, audits, a client on the
// holder, a diverted store's check) read it back with Get.
type replicas interface {
	Put(storage.Item) error
	Get(id.File) (storage.Item, error)
	Serve(id.File) (storage.Item, error)
	Has(id.File) bool
	Delete(id.File) (int64, error)
	Free() int64
	Walk(func(f id.File, size int64, replicas int, diverted bool))
	SetPointer(id.File, wire.NodeRef) error
	Pointer(id.File) (wire.NodeRef, bool)
	DeletePointer(id.File) (bool, error)
}

// NewNode creates a PAST node bound to pn. The node's smartcard signs
// receipts and fixes its nodeId; brokerPub is the certification key this
// node trusts.
func NewNode(cfg Config, pn *pastry.Node, card *seccrypt.Smartcard, brokerPub ed25519.PublicKey) *Node {
	if cfg.K <= 0 {
		cfg.K = DefaultConfig().K
	}
	if cfg.TPri <= 0 {
		cfg.TPri = DefaultConfig().TPri
	}
	if cfg.TDiv <= 0 {
		cfg.TDiv = DefaultConfig().TDiv
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultConfig().RequestTimeout
	}
	if cfg.AntiEntropyEvery <= 0 {
		cfg.AntiEntropyEvery = DefaultConfig().AntiEntropyEvery
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = DefaultConfig().Epoch
	}
	n := &Node{
		cfg:       cfg,
		pn:        pn,
		card:      card,
		brokerPub: brokerPub,
		store:     storage.NewStore(cfg.Capacity),
		cache:     storage.NewCache(cfg.Capacity),
		pending:   make(map[uint64]*pendingOp),
		requested: make(map[id.File]time.Duration),
	}
	// Start the cache tier under the same rule syncCache maintains: cache
	// space is the storage not used by replicas, and zero when disabled.
	n.syncCache()
	pn.SetApp(n)
	return n
}

// UseDisk makes ds the node's replica store (already populated by crash
// recovery): every replica and diversion-pointer store/delete goes
// through the disk so a restart finds them again. A replica's content
// then stays in the log: replies carry its storage.Record as their Body,
// which the transport must encode into frames (TCP does; the simulator
// hands messages over as values and keeps replicas in memory). Must be
// called before the node handles traffic — right after NewNode, before
// Bootstrap/Join.
func (n *Node) UseDisk(ds *storage.DiskStore) {
	n.store = ds
	n.syncCache()
}

// Pastry returns the underlying overlay node.
func (n *Node) Pastry() *pastry.Node { return n.pn }

// Store exposes a simulated node's in-memory replica store (read-mostly;
// used by experiments); it is nil once UseDisk installed a DiskStore.
func (n *Node) Store() *storage.Store {
	s, _ := n.store.(*storage.Store)
	return s
}

// Cache exposes the file cache.
func (n *Node) Cache() *storage.Cache { return n.cache }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Mischief configures adversarial storage behaviour for the resilience
// experiments: a node that claims replicas it does not hold. The
// free-rider signs its receipts honestly — only a content audit exposes
// it — while the forger's receipts carry an invalid signature, which the
// client's receipt verification drops on arrival.
type Mischief struct {
	ForgeReceipts bool
	FreeRide      bool
}

// SetMischief installs the node's adversarial policy. Call before the
// node handles traffic.
func (n *Node) SetMischief(m Mischief) { n.mischief = m }

// SetResilience adjusts the client-retry knobs (Config.LookupRetries,
// Config.RetryBackoff, Config.HopBudget) after construction, so the
// resilience experiments can measure the same overlay and workload with
// defenses off and on. Call only between operations, from the simulation
// goroutine.
func (n *Node) SetResilience(retries int, backoff time.Duration, hopBudget int) {
	n.cfg.LookupRetries = retries
	n.cfg.RetryBackoff = backoff
	n.cfg.HopBudget = hopBudget
}

// nowUnix converts the node's clock into certificate timestamps.
func (n *Node) nowUnix() int64 {
	return n.cfg.Epoch + int64(n.pn.Clock().Now().Seconds())
}

// syncCache shrinks the cache to the capacity replicas have not claimed
// ("unused portion of their advertised disk space", section 2.3).
func (n *Node) syncCache() {
	if !n.cfg.Caching {
		n.cache.Resize(0)
		return
	}
	n.cache.Resize(n.store.Free())
}

// admitToCache is the only way into the cache: every copy this node did
// not store as a replica — seen on an insert's route, pushed in a
// CacheCopy, or returned to it as a client — enters here, and only with
// its certificate's signature and its content hash both proven, so a
// cached copy is as authentic as a replica. Cheap refusals come first.
// proven says the caller has just run both checks on these very bytes
// (the lookup reply path, which must run them anyway); the cache takes
// ownership of data either way.
func (n *Node) admitToCache(cert *wire.FileCertificate, data []byte, proven bool) {
	if !n.cfg.Caching || int64(len(data)) > n.store.Free() {
		return
	}
	if !proven {
		if seccrypt.VerifyFileCertificate(n.brokerPub, cert, n.nowUnix()) != nil {
			return
		}
		if seccrypt.VerifyContent(cert, data) != nil {
			return
		}
	}
	n.syncCache()
	n.cache.Put(storage.Item{Cert: *cert, Data: data}, 1)
}

// ---------------------------------------------------------------------------
// pastry.App implementation

// Deliver handles routed messages for which this node is the root.
func (n *Node) Deliver(r wire.Routed, from wire.NodeRef) {
	switch m := r.Payload.(type) {
	case wire.InsertRequest:
		n.handleInsertRoot(r, m)
	case wire.LookupRequest:
		n.handleLookupRoot(r, m)
	case wire.ReclaimRequest:
		n.handleReclaimRoot(r, m)
	}
}

// Forward lets the node satisfy lookups mid-route from replicas or cache
// and populate caches along insert paths (section 2.3).
func (n *Node) Forward(r *wire.Routed, next wire.NodeRef) bool {
	switch m := r.Payload.(type) {
	case wire.LookupRequest:
		if n.serveLookup(r, m, true) {
			return false // consumed: replied from replica or cache
		}
		// A lookup that has already burned its hop budget is being bounced
		// around (misrouting, routing-table corruption): consume it and
		// tell the client so it can retry a different route immediately
		// instead of waiting out its timeout.
		if n.cfg.HopBudget > 0 && r.Hops >= n.cfg.HopBudget {
			n.mu.Lock()
			n.stats.RouteAborts++
			n.mu.Unlock()
			abort := wire.LookupAbort{FileID: m.FileID, ReqID: m.ReqID, Hops: r.Hops, From: n.pn.Ref()}
			if m.Client.ID == n.pn.ID() {
				n.handleLookupAbort(abort)
			} else {
				n.pn.Send(m.Client, abort)
			}
			return false
		}
		// When the route is about to enter the fileId's replica set,
		// steer it to the proximally nearest holder instead of the
		// numerically closest: this is what makes lookups find a nearby
		// replica first (section 2.2, "Locality"). One redirect only.
		if !m.Redirected {
			if target, ok := n.nearestHolder(r.Key, next); ok && target.ID != next.ID {
				m.Redirected = true
				m.PrevHop = n.pn.Ref()
				fwd := *r
				fwd.Payload = m
				fwd.Hops++
				fwd.Distance += n.pn.Proximity(target.Addr)
				n.pn.Send(target, fwd)
				return false
			}
		}
		// Track the previous hop so the eventual responder can push a
		// cached copy one hop toward the client.
		m.PrevHop = n.pn.Ref()
		r.Payload = m
	case wire.InsertRequest:
		// Cache along the insert path.
		n.admitToCache(&m.Cert, m.Data, false)
	}
	return true
}

// HandleDirect processes point-to-point storage messages.
func (n *Node) HandleDirect(from wire.NodeRef, m wire.Msg) bool {
	switch msg := m.(type) {
	case wire.ReplicaStore:
		n.handleReplicaStore(msg)
	case wire.StoreReceipt:
		n.handleStoreReceipt(msg)
	case wire.DivertReject:
		n.handleDivertReject(msg)
	case wire.InsertReject:
		n.handleInsertReject(msg)
	case wire.LookupReply:
		n.handleLookupReply(msg)
	case wire.LookupMiss:
		n.handleLookupMiss(msg)
	case wire.LookupAbort:
		n.handleLookupAbort(msg)
	case wire.FetchRequest:
		n.handleFetch(msg)
	case wire.ReclaimForward:
		n.handleReclaimForward(msg)
	case wire.ReclaimReceipt:
		n.handleReclaimReceipt(msg)
	case wire.Replicate:
		n.handleReplicate(msg)
	case wire.SyncOffer:
		n.handleSyncOffer(msg)
	case wire.SyncRequest:
		n.handleSyncRequest(msg)
	case wire.CacheCopy:
		n.admitToCache(&msg.Cert, msg.Data, false)
	case wire.AuditChallenge:
		n.handleAuditChallenge(msg)
	case wire.AuditResponse:
		n.handleAuditResponse(msg)
	default:
		return false
	}
	return true
}

// LeafSetChanged restores the replication invariant after membership
// changes (section 2.1, "Persistence": the system restores k copies as
// part of failure recovery; likewise new nodes take over part of the key
// space).
func (n *Node) LeafSetChanged() {
	n.reReplicate()
}

// Maintain implements pastry.Maintainer: a periodic anti-entropy sweep
// piggybacked on the keep-alive timer. Event-driven re-replication
// (LeafSetChanged) misses files whose holders' replica-set views
// disagreed transiently — once views converge, no membership event
// re-triggers sync and the file sits at k-1 copies (the E17 residue).
// The sweep re-offers digests at most once per AntiEntropyEvery, so its
// steady-state cost is a few fileId summaries per interval.
func (n *Node) Maintain() {
	now := n.pn.Clock().Now()
	n.mu.Lock()
	if n.swept && now-n.lastSweep < n.cfg.AntiEntropyEvery {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	n.reReplicate()
}

// ---------------------------------------------------------------------------
// Insert: root side

// replicaSet returns the k nodes (including possibly this one) that should
// hold replicas of key: the numerically closest among this node and its
// leaf set, in id.Closer's total order. Every insert, reclaim, forwarded
// lookup and anti-entropy pass runs this, so the selection happens inside
// the leaf set, over its halves, and allocates only the result.
func (n *Node) replicaSet(key id.Node, k int) []wire.NodeRef {
	return n.pn.ClosestK(key, k)
}

// nearestHolder decides whether a lookup being forwarded to next is
// entering the key's replica set; if so it returns the proximally nearest
// member of that set (likely holding a replica). ok is false when this
// node's leaf set says the route has not reached the replica neighborhood
// yet.
func (n *Node) nearestHolder(key id.Node, next wire.NodeRef) (wire.NodeRef, bool) {
	set := n.replicaSet(key, n.cfg.K)
	entering := false
	for _, ref := range set {
		if ref.ID == next.ID || ref.ID == n.pn.ID() {
			entering = true
			break
		}
	}
	if !entering {
		return wire.NodeRef{}, false
	}
	var best wire.NodeRef
	bestProx := 0.0
	for _, ref := range set {
		if ref.ID == n.pn.ID() {
			continue // serveLookup already missed locally
		}
		if !n.pn.Reachable(ref) {
			continue
		}
		p := n.pn.Proximity(ref.Addr)
		if best.IsZero() || p < bestProx {
			best = ref
			bestProx = p
		}
	}
	if best.IsZero() {
		return wire.NodeRef{}, false
	}
	return best, true
}

// handleInsertRoot runs at the node numerically closest to the fileId: it
// verifies the certificate and content and fans replicas out to the k
// closest nodes (section 2, "When a file is inserted").
func (n *Node) handleInsertRoot(r wire.Routed, m wire.InsertRequest) {
	if err := seccrypt.VerifyFileCertificate(n.brokerPub, &m.Cert, n.nowUnix()); err != nil {
		n.pn.Send(m.Client, wire.InsertReject{FileID: m.Cert.FileID, ReqID: m.ReqID, Reason: "bad certificate: " + err.Error()})
		return
	}
	if err := seccrypt.VerifyContent(&m.Cert, m.Data); err != nil {
		n.pn.Send(m.Client, wire.InsertReject{FileID: m.Cert.FileID, ReqID: m.ReqID, Reason: "content mismatch: " + err.Error()})
		return
	}
	set := n.replicaSet(m.Cert.FileID.Key(), m.Cert.Replicas)
	rs := wire.ReplicaStore{
		Cert:    m.Cert,
		Data:    m.Data,
		Client:  m.Client,
		ReqID:   m.ReqID,
		Primary: n.pn.Ref(),
	}
	for _, ref := range set {
		if ref.ID == n.pn.ID() {
			local := rs
			local.Primary = ref
			n.handleReplicaStore(local)
			continue
		}
		out := rs
		out.Primary = ref
		n.pn.Send(ref, out)
	}
}

// accept applies the storage-management admission policy of section 2.3:
// reject when the file is too large relative to the node's free space
// (threshold t_pri for primary, t_div for diverted replicas).
func (n *Node) accept(size int64, diverted bool) bool {
	free := n.store.Free()
	if size > free {
		return false
	}
	if free == 0 {
		return false
	}
	t := n.cfg.TPri
	if diverted {
		t = n.cfg.TDiv
	}
	return float64(size)/float64(free) <= t
}

// handleReplicaStore runs at each node asked to hold a replica.
func (n *Node) handleReplicaStore(m wire.ReplicaStore) {
	if n.mischief.ForgeReceipts || n.mischief.FreeRide {
		// A cheating node claims the store without holding the data. The
		// free-rider's receipt is properly signed (only an audit exposes
		// the missing content); the forger's signature is corrupted, so
		// the client drops it on arrival.
		rcpt := wire.StoreReceipt{
			FileID:     m.Cert.FileID,
			StoredBy:   n.pn.Ref(),
			OnBehalfOf: m.Primary,
			Diverted:   m.Diverted,
			Size:       m.Cert.Size,
			ReqID:      m.ReqID,
		}
		n.card.SignStoreReceipt(&rcpt)
		if n.mischief.ForgeReceipts && len(rcpt.Sig) > 0 {
			rcpt.Sig[0] ^= 0x80
		}
		if m.Client.ID == n.pn.ID() {
			n.handleStoreReceipt(rcpt)
		} else {
			n.pn.Send(m.Client, rcpt)
		}
		return
	}
	if err := seccrypt.VerifyFileCertificate(n.brokerPub, &m.Cert, n.nowUnix()); err != nil {
		return
	}
	if err := seccrypt.VerifyContent(&m.Cert, m.Data); err != nil {
		return
	}
	if n.store.Has(m.Cert.FileID) {
		if m.Diverted {
			if held, err := n.store.Get(m.Cert.FileID); err == nil && held.Primary.ID != m.Primary.ID {
				// Already held on behalf of another primary of the same
				// k-set. A second receipt with this node as StoredBy would
				// not count as a second replica (the client drops it and
				// the insert stalls), so have the primary try its next
				// candidate.
				n.pn.Send(m.Primary, wire.DivertReject{FileID: m.Cert.FileID, ReqID: m.ReqID, From: n.pn.Ref()})
				return
			}
		}
		// Idempotent: already stored (e.g. re-sent during recovery);
		// re-issue the receipt so the client can complete.
		n.sendReceipt(m)
		return
	}
	if n.accept(m.Cert.Size, m.Diverted) {
		item := storage.Item{Cert: m.Cert, Data: m.Data, Diverted: m.Diverted, Primary: m.Primary}
		if err := n.store.Put(item); err == nil {
			n.syncCache()
			n.mu.Lock()
			if m.Diverted {
				n.stats.DivertedStores++
			} else {
				n.stats.PrimaryStores++
			}
			n.mu.Unlock()
			n.sendReceipt(m)
			return
		}
	}
	if m.Diverted {
		// A diverted replica we cannot hold: bounce back to the primary.
		n.pn.Send(m.Primary, wire.DivertReject{FileID: m.Cert.FileID, ReqID: m.ReqID, From: n.pn.Ref()})
		return
	}
	// Primary replica we cannot hold: try replica diversion.
	if n.cfg.ReplicaDiversion && n.tryDivert(m) {
		return
	}
	n.pn.Send(m.Client, wire.InsertReject{FileID: m.Cert.FileID, ReqID: m.ReqID, Reason: "no space"})
}

// divertCandidates lists leaf-set members eligible to hold a diverted
// replica: outside the k-replica set, per section 2.3 ("a node ... asks a
// node in its leaf set that is not among the k closest to store the
// copy").
func (n *Node) divertCandidates(m wire.ReplicaStore) []wire.NodeRef {
	set := n.replicaSet(m.Cert.FileID.Key(), m.Cert.Replicas)
	inSet := make(map[id.Node]bool, len(set))
	for _, r := range set {
		inSet[r.ID] = true
	}
	var out []wire.NodeRef
	for _, r := range n.pn.LeafMembers() {
		if !inSet[r.ID] {
			out = append(out, r)
		}
	}
	return out
}

// tryDivert starts replica diversion: forward to the first candidate and
// remember the rest in the pending table so DivertReject can advance.
func (n *Node) tryDivert(m wire.ReplicaStore) bool {
	cands := n.divertCandidates(m)
	if len(cands) == 0 {
		return false
	}
	n.mu.Lock()
	key := divertKey(m.Cert.FileID, m.ReqID)
	n.pending[key] = &pendingOp{kind: opDivert, divert: &m, candidates: cands[1:]}
	n.mu.Unlock()
	out := m
	out.Diverted = true
	out.Primary = n.pn.Ref()
	n.pn.Send(cands[0], out)
	return true
}

// divertKey gives diversion bookkeeping a distinct pending-table key so it
// cannot collide with the client's own request ids.
func divertKey(f id.File, reqID uint64) uint64 {
	h := uint64(0xd1e7)
	for _, b := range f[:8] {
		h = h*131 + uint64(b)
	}
	return h ^ reqID
}

// handleDivertReject advances to the next diversion candidate or rejects.
func (n *Node) handleDivertReject(m wire.DivertReject) {
	n.mu.Lock()
	key := divertKey(m.FileID, m.ReqID)
	op := n.pending[key]
	if op == nil || op.kind != opDivert {
		n.mu.Unlock()
		return
	}
	if len(op.candidates) == 0 {
		delete(n.pending, key)
		client := op.divert.Client
		n.mu.Unlock()
		n.pn.Send(client, wire.InsertReject{FileID: m.FileID, ReqID: m.ReqID, Reason: "diversion exhausted"})
		return
	}
	next := op.candidates[0]
	op.candidates = op.candidates[1:]
	out := *op.divert
	n.mu.Unlock()
	out.Diverted = true
	out.Primary = n.pn.Ref()
	n.pn.Send(next, out)
}

// sendReceipt signs and returns a store receipt to the client; diverted
// stores also notify the primary so it can record the pointer.
func (n *Node) sendReceipt(m wire.ReplicaStore) {
	rcpt := wire.StoreReceipt{
		FileID:     m.Cert.FileID,
		StoredBy:   n.pn.Ref(),
		OnBehalfOf: m.Primary,
		Diverted:   m.Diverted,
		Size:       m.Cert.Size,
		ReqID:      m.ReqID,
	}
	n.card.SignStoreReceipt(&rcpt)
	if m.Diverted && m.Primary.ID != n.pn.ID() {
		n.pn.Send(m.Primary, rcpt)
	}
	if m.Client.ID == n.pn.ID() {
		n.handleStoreReceipt(rcpt)
		return
	}
	n.pn.Send(m.Client, rcpt)
}

// handleStoreReceipt runs at the client (collecting toward k receipts) and
// at primaries recording diversion pointers.
func (n *Node) handleStoreReceipt(m wire.StoreReceipt) {
	if m.Diverted && m.OnBehalfOf.ID == n.pn.ID() && m.StoredBy.ID != n.pn.ID() {
		// We are the primary: the diverted replica found a home; keep the
		// pointer and close the diversion op.
		if seccrypt.VerifyStoreReceipt(&m) == nil {
			// A pointer the disk cannot take is not kept: the lookup falls
			// back to routing, as for a pointer lost with its node.
			n.store.SetPointer(m.FileID, m.StoredBy) //nolint:errcheck // see above
			n.mu.Lock()
			delete(n.pending, divertKey(m.FileID, m.ReqID))
			n.mu.Unlock()
		}
		// The receipt may also be addressed to us as client (self-insert);
		// fall through in that case.
		if m.OnBehalfOf.ID != m.StoredBy.ID {
			n.clientCollectReceipt(m)
		}
		return
	}
	n.clientCollectReceipt(m)
}

// ---------------------------------------------------------------------------
// Lookup

// serveLookup answers a lookup from local replicas, diversion pointers or
// cache. midRoute marks Forward-time interception. It reports whether the
// request was satisfied (or delegated to a pointer target).
func (n *Node) serveLookup(r *wire.Routed, m wire.LookupRequest, midRoute bool) bool {
	if it, err := n.store.Serve(m.FileID); err == nil && n.replyLookup(r, m, it, false) {
		return true
	}
	if n.cfg.Caching {
		if it, ok := n.cache.Get(m.FileID); ok {
			n.mu.Lock()
			n.stats.CacheServes++
			n.mu.Unlock()
			n.replyLookup(r, m, it, true)
			return true
		}
	}
	if holder, ok := n.store.Pointer(m.FileID); ok && n.pn.Reachable(holder) {
		// Replica was diverted: chase the pointer. A pointer to a holder
		// the failure detector knows is dead is NOT chased — the fetch
		// would silently black-hole the whole lookup attempt — and the
		// request keeps routing instead, so another replica can serve it.
		n.pn.Send(holder, wire.FetchRequest{FileID: m.FileID, Client: m.Client, ReqID: m.ReqID})
		return true
	}
	return false
}

// replyLookup answers a lookup with it. A disk-backed replica leaves in
// its Body, read from the log into the frame, and is read back whole for
// a client on this node; it reports false, having sent nothing, when that
// read fails (the replica is quarantined and gone, so the lookup goes on
// elsewhere).
func (n *Node) replyLookup(r *wire.Routed, m wire.LookupRequest, it storage.Item, cached bool) bool {
	local := m.Client.ID == n.pn.ID()
	if local && it.Body != nil {
		var err error
		if it, err = n.store.Get(m.FileID); err != nil {
			return false
		}
	}
	reply := wire.LookupReply{
		Cert:     it.Cert,
		Data:     it.Data,
		From:     n.pn.Ref(),
		ReqID:    m.ReqID,
		Hops:     r.Hops,
		Distance: r.Distance,
		Cached:   cached,
		Body:     it.Body,
	}
	n.mu.Lock()
	n.stats.LookupsServed++
	n.mu.Unlock()
	if local {
		n.handleLookupReply(reply)
	} else {
		n.pn.Send(m.Client, reply)
	}
	// Push a cached copy one hop back toward the client, caching "close
	// to interested clients" (sections 1 and 2.3). When that hop is the
	// client itself the reply just sent is the push — the client admits
	// what it verifies (handleLookupReply) — and the file moves once.
	if n.cfg.Caching && !m.PrevHop.IsZero() && m.PrevHop.ID != n.pn.ID() {
		n.mu.Lock()
		n.stats.CachePushes++
		n.mu.Unlock()
		if m.PrevHop.ID != m.Client.ID {
			n.pn.Send(m.PrevHop, wire.CacheCopy{Cert: it.Cert, Data: it.Data, Body: it.Body})
		}
	}
	return true
}

// handleLookupRoot runs when a lookup reaches the root without being
// satisfied en route.
func (n *Node) handleLookupRoot(r wire.Routed, m wire.LookupRequest) {
	if n.serveLookup(&r, m, false) {
		return
	}
	miss := wire.LookupMiss{FileID: m.FileID, ReqID: m.ReqID}
	if m.Client.ID == n.pn.ID() {
		n.handleLookupMiss(miss)
		return
	}
	n.pn.Send(m.Client, miss)
}

// handleFetch serves a direct fetch (pointer chase or recovery transfer).
func (n *Node) handleFetch(m wire.FetchRequest) {
	it, err := n.store.Serve(m.FileID)
	if err != nil {
		if n.cfg.Caching {
			if cit, ok := n.cache.Get(m.FileID); ok {
				it = cit
				err = nil
			}
		}
	}
	if err != nil {
		n.pn.Send(m.Client, wire.LookupMiss{FileID: m.FileID, ReqID: m.ReqID})
		return
	}
	n.pn.Send(m.Client, wire.LookupReply{
		Cert: it.Cert, Data: it.Data, From: n.pn.Ref(), ReqID: m.ReqID, Body: it.Body,
	})
}

// ---------------------------------------------------------------------------
// Reclaim

// handleReclaimRoot fans a verified reclaim out to the replica set
// (section 2.1, "Generation of reclaim certificates and receipts").
func (n *Node) handleReclaimRoot(r wire.Routed, m wire.ReclaimRequest) {
	fwd := wire.ReclaimForward{Cert: m.Cert, Client: m.Client, ReqID: m.ReqID}
	// Fan out to the replica set for this fileId; k is not in the reclaim
	// certificate, so use the larger of the node's default and the stored
	// certificate's replication factor when known.
	k := n.cfg.K
	if it, err := n.store.Serve(m.Cert.FileID); err == nil && it.Cert.Replicas > k {
		k = it.Cert.Replicas
	}
	for _, ref := range n.replicaSet(m.Cert.FileID.Key(), k) {
		if ref.ID == n.pn.ID() {
			n.handleReclaimForward(fwd)
			continue
		}
		n.pn.Send(ref, fwd)
	}
}

// handleReclaimForward verifies and executes a reclaim at a storage node.
func (n *Node) handleReclaimForward(m wire.ReclaimForward) {
	// Pointer first: the diverted holder does the physical free.
	if holder, ok := n.store.Pointer(m.Cert.FileID); ok {
		n.store.DeletePointer(m.Cert.FileID) //nolint:errcheck // the pointer stays, and a reclaim is weak anyway (section 1)
		n.pn.Send(holder, m)
		return
	}
	it, err := n.store.Get(m.Cert.FileID) // the owner's key is in the certificate, at rest in the log
	if err != nil {
		return // nothing stored here; weak reclaim semantics (section 1)
	}
	if seccrypt.VerifyReclaimAuthorized(n.brokerPub, &m.Cert, &it.Cert, n.nowUnix()) != nil {
		return // unauthorized reclaim silently ignored
	}
	freed, err := n.store.Delete(m.Cert.FileID)
	if err != nil {
		return
	}
	n.cache.Invalidate(m.Cert.FileID)
	n.syncCache()
	rcpt := wire.ReclaimReceipt{
		FileID: m.Cert.FileID,
		Freed:  freed,
		By:     n.pn.Ref(),
		ReqID:  m.ReqID,
	}
	n.card.SignReclaimReceipt(&rcpt)
	if m.Client.ID == n.pn.ID() {
		n.handleReclaimReceipt(rcpt)
		return
	}
	n.pn.Send(m.Client, rcpt)
}

// ---------------------------------------------------------------------------
// Re-replication and audits

// markSwept records that anti-entropy ran now, so the periodic Maintain
// sweep backs off for a full interval after ANY re-replication —
// including event-driven ones. Without this, a keep-alive tick that
// declares a member dead would run LeafSetChanged's sweep and then
// immediately Maintain's, doubling the digest fan-out exactly during
// churn bursts.
func (n *Node) markSwept() {
	now := n.pn.Clock().Now()
	n.mu.Lock()
	n.swept = true
	n.lastSweep = now
	n.mu.Unlock()
}

// reReplicate restores the replication invariant after a leaf-set change
// by digest-based anti-entropy: send each peer that is in one of our
// files' replica sets ONE compact summary of the fileIds it should hold;
// the peer fetches only what it is missing (SyncRequest → Replicate).
func (n *Node) reReplicate() {
	n.markSwept()
	n.antiEntropy(n.pn.Ref())
}

// offer is one anti-entropy digest being built: the files and sizes a
// peer should hold. first and pos place it among the others: the least
// fileId in it, and where the peer stands in that file's replica set.
type offer struct {
	ref   wire.NodeRef
	files []id.File
	sizes []int64
	first id.File
	pos   int
}

// add offers f, of size bytes, to which the peer stands at pos in f's
// replica set.
func (o *offer) add(f id.File, size int64, pos int) {
	if len(o.files) == 0 || bytes.Compare(f[:], o.first[:]) < 0 {
		o.first, o.pos = f, pos
	}
	o.files = append(o.files, f)
	o.sizes = append(o.sizes, size)
}

// sort.Interface over the files, moving each size with its file.
func (o *offer) Len() int           { return len(o.files) }
func (o *offer) Less(i, j int) bool { return bytes.Compare(o.files[i][:], o.files[j][:]) < 0 }
func (o *offer) Swap(i, j int) {
	o.files[i], o.files[j] = o.files[j], o.files[i]
	o.sizes[i], o.sizes[j] = o.sizes[j], o.sizes[i]
}

// antiEntropy sends one digest per replica-set peer covering every stored
// primary file that peer should hold. It walks the store in place, in no
// set order, so each digest is sorted by fileId, and the digests are sent
// in the order a walk in fileId order would have met their peers: by
// their least fileId, then by the peer's place in its replica set. The
// digest contents and the send order are therefore deterministic, and
// the sweep allocates only the digests.
func (n *Node) antiEntropy(self wire.NodeRef) {
	var offers []*offer
	index := make(map[id.Node]*offer)
	var set []wire.NodeRef
	n.store.Walk(func(f id.File, size int64, replicas int, diverted bool) {
		if diverted {
			return // the primary is responsible for diverted copies
		}
		set = n.pn.AppendClosestK(set[:0], f.Key(), replicas)
		if !slices.ContainsFunc(set, func(ref wire.NodeRef) bool { return ref.ID == self.ID }) {
			return // stale extra copy; harmless, acts as cache
		}
		for pos, ref := range set {
			if ref.ID == self.ID {
				continue
			}
			o := index[ref.ID]
			if o == nil {
				o = &offer{ref: ref}
				index[ref.ID] = o
				offers = append(offers, o)
			}
			o.add(f, size, pos)
		}
	})
	if len(offers) == 0 {
		return
	}
	slices.SortFunc(offers, func(a, b *offer) int {
		return cmp.Or(bytes.Compare(a.first[:], b.first[:]), cmp.Compare(a.pos, b.pos))
	})
	var sent int64
	for _, o := range offers {
		sort.Sort(o)
		m := wire.SyncOffer{From: self, Files: o.files, Sizes: o.sizes}
		sent += int64(wire.FrameLen(self.Addr, m))
		n.pn.Send(o.ref, m)
	}
	n.mu.Lock()
	n.stats.SyncOffers += len(offers)
	n.stats.MaintenanceBytes += sent
	n.mu.Unlock()
}

// handleSyncOffer diffs an anti-entropy digest against local state and
// requests only the missing files: not already stored or delegated, not
// over the admission threshold at the advertised size, and not already
// requested from another offerer this repair round. Final acceptance
// (certificate, content hash, replica-set membership, free space) is
// enforced when the bodies arrive in handleReplicate, so a stale or
// malicious digest can waste at most one round trip.
func (n *Node) handleSyncOffer(m wire.SyncOffer) {
	var missing []id.File
	now := n.pn.Clock().Now()
	n.mu.Lock()
	// Expire abandoned fetches (offerer crashed before shipping, or the
	// file was never offered again) so the map stays bounded by the
	// fetches genuinely in flight.
	for f, at := range n.requested {
		if now-at >= n.cfg.RequestTimeout {
			delete(n.requested, f)
		}
	}
	for i, f := range m.Files {
		if n.store.Has(f) {
			delete(n.requested, f)
			continue
		}
		if _, ok := n.store.Pointer(f); ok {
			continue // our responsibility is delegated to a diverted holder
		}
		if i < len(m.Sizes) && !n.accept(m.Sizes[i], false) {
			continue // the body would be rejected on arrival; skip the fetch
		}
		if at, ok := n.requested[f]; ok && now-at < n.cfg.RequestTimeout {
			continue // another offerer is already shipping this file
		}
		n.requested[f] = now
		missing = append(missing, f)
	}
	if len(missing) == 0 {
		n.mu.Unlock()
		return
	}
	req := wire.SyncRequest{From: n.pn.Ref(), Files: missing}
	n.stats.SyncRequests++
	n.stats.MaintenanceBytes += int64(wire.FrameLen(req.From.Addr, req))
	n.mu.Unlock()
	n.pn.Send(m.From, req)
}

// handleSyncRequest answers an anti-entropy fetch with full Replicate
// bodies for the files still held locally.
func (n *Node) handleSyncRequest(m wire.SyncRequest) {
	self := n.pn.Ref()
	reps := 0
	var bytes int64
	for _, f := range m.Files {
		it, err := n.store.Serve(f)
		if err != nil {
			continue // reclaimed or never held; the requester will re-sync later
		}
		rep := wire.Replicate{Cert: it.Cert, Data: it.Data, From: self, Body: it.Body}
		reps++
		bytes += int64(wire.FrameLen(self.Addr, rep))
		n.pn.Send(m.From, rep)
	}
	if reps > 0 {
		n.mu.Lock()
		n.stats.Replications += reps
		n.stats.MaintenanceBytes += bytes
		n.mu.Unlock()
	}
}

// handleReplicate stores a recovery transfer if it verifies and fits.
func (n *Node) handleReplicate(m wire.Replicate) {
	// The in-flight anti-entropy fetch (if any) is over: a body arrived.
	// Clearing the marker here — even when the body is rejected below —
	// lets the next SyncOffer retry immediately, e.g. once this node's
	// replica-set view has converged.
	n.mu.Lock()
	delete(n.requested, m.Cert.FileID)
	n.mu.Unlock()
	if n.store.Has(m.Cert.FileID) {
		return
	}
	if seccrypt.VerifyFileCertificate(n.brokerPub, &m.Cert, n.nowUnix()) != nil {
		return
	}
	if seccrypt.VerifyContent(&m.Cert, m.Data) != nil {
		return
	}
	// Only accept if this node actually belongs to the replica set.
	set := n.replicaSet(m.Cert.FileID.Key(), m.Cert.Replicas)
	in := false
	for _, ref := range set {
		if ref.ID == n.pn.ID() {
			in = true
			break
		}
	}
	if !in {
		return
	}
	if !n.accept(m.Cert.Size, false) {
		return
	}
	if err := n.store.Put(storage.Item{Cert: m.Cert, Data: m.Data}); err == nil {
		n.syncCache()
	}
}

// handleAuditChallenge proves storage of a file (section 2.1, random
// audits expose nodes that cheat on contributed storage).
func (n *Node) handleAuditChallenge(m wire.AuditChallenge) {
	resp := wire.AuditResponse{FileID: m.FileID, From: n.pn.Ref(), ReqID: m.ReqID}
	if it, err := n.store.Get(m.FileID); err == nil {
		resp.Held = true
		resp.Proof = seccrypt.AuditProof(m.Nonce, it.Data)
	}
	n.pn.Send(m.From, resp)
}

func (n *Node) handleAuditResponse(m wire.AuditResponse) {
	n.mu.Lock()
	op := n.pending[m.ReqID]
	if op != nil && op.kind == opAudit {
		delete(n.pending, m.ReqID)
	}
	n.mu.Unlock()
	if op == nil || op.kind != opAudit {
		return
	}
	op.stopTimer()
	ok := m.Held && op.auditWant == m.Proof
	op.auditCB(ok)
}
