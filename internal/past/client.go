package past

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"past/internal/id"
	"past/internal/seccrypt"
	"past/internal/transport"
	"past/internal/wire"
)

// afterFunc schedules f after d and releases the timer handle once it has
// fired. The handle is published under a mutex: with a real clock the
// callback runs on its own goroutine and can fire before AfterFunc even
// returns to the caller, so the callback must not read a bare captured
// variable the caller is still assigning.
func afterFunc(c transport.Clock, d time.Duration, f func()) {
	var (
		mu sync.Mutex
		t  transport.Timer
	)
	mu.Lock()
	t = c.AfterFunc(d, func() {
		mu.Lock()
		h := t
		mu.Unlock()
		h.Release()
		f()
	})
	mu.Unlock()
}

// Client-operation errors.
var (
	ErrTimeout  = errors.New("past: request timed out")
	ErrRejected = errors.New("past: insert rejected")
	ErrNotFound = errors.New("past: file not found")
)

// InsertResult reports the outcome of an Insert.
type InsertResult struct {
	FileID   id.File
	Cert     wire.FileCertificate
	Receipts []wire.StoreReceipt
	Diverted int // receipts that came from diverted replicas
	Retries  int // file-diversion retries consumed
	Err      error
}

// LookupResult reports the outcome of a Lookup.
type LookupResult struct {
	Cert     wire.FileCertificate
	Data     []byte
	From     wire.NodeRef
	Hops     int
	Distance float64
	Cached   bool
	Err      error
}

// ReclaimResult reports the outcome of a Reclaim.
type ReclaimResult struct {
	Receipts []wire.ReclaimReceipt
	Freed    int64
	Err      error
}

type opKind int

const (
	opInsert opKind = iota
	opLookup
	opReclaim
	opDivert
	opAudit
)

// pendingOp tracks one in-flight client operation (or a server-side
// diversion negotiation).
type pendingOp struct {
	kind  opKind
	timer transport.Timer

	// insert
	card     *seccrypt.Smartcard
	name     string
	data     []byte
	k        int
	baseSalt []byte // caller-supplied salt (InsertSalted); nil = draw from node rng
	retries  int
	cert     wire.FileCertificate
	receipts []wire.StoreReceipt
	seen     map[id.Node]bool
	insertCB func(InsertResult)
	// lookup
	lookupCB func(LookupResult)
	// reclaim
	fileID     id.File
	reclaimRcv []wire.ReclaimReceipt
	reclaimCB  func(ReclaimResult)
	// divert (server side)
	divert     *wire.ReplicaStore
	candidates []wire.NodeRef
	// audit
	auditWant [32]byte
	auditCB   func(bool)
}

// stopTimer cancels and recycles the op's timeout. Every finished op
// passes through here exactly once (its pending-map entry is deleted
// first), so the handle has a single owner and Release is safe whether
// the timer was cancelled or is the very timeout that fired us.
func (op *pendingOp) stopTimer() {
	if op.timer != nil {
		op.timer.Stop()
		op.timer.Release()
		op.timer = nil
	}
}

// newReqID derives a fresh request identifier.
func (n *Node) newReqID() uint64 { return n.pn.Rand() }

// armOp publishes a pending op and arms its timeout atomically: the timer
// is assigned before the lock is released, so anyone who later finds the
// op in the pending map (and so may win the race to delete it and call
// stopTimer) is guaranteed to observe op.timer. The timeout callback
// itself begins by taking the lock, so a real-time clock firing instantly
// still waits for this critical section.
func (n *Node) armOp(reqID uint64, op *pendingOp, onTimeout func()) {
	n.mu.Lock()
	n.pending[reqID] = op
	op.timer = n.pn.Clock().AfterFunc(n.cfg.RequestTimeout, onTimeout)
	n.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Insert

// Insert stores data under the given textual name on behalf of the card's
// owner, replicated k times (k = 0 uses the node default). The callback
// fires exactly once. The card debits quota when the certificate is
// issued; rejected inserts are refunded.
func (n *Node) Insert(card *seccrypt.Smartcard, name string, data []byte, k int, cb func(InsertResult)) {
	if k <= 0 {
		k = n.cfg.K
	}
	n.startInsertAttempt(card, name, data, k, 0, nil, cb)
}

// InsertSalted is Insert with a caller-supplied certificate salt instead
// of one drawn from the node's rng. Because the fileId is
// H(name, owner, salt), fixing the salt fixes the fileId — this is what
// lets the conformance harness drive the identical workload through the
// simulator and a real-socket cluster and compare placement per fileId.
// File-diversion retries derive follow-up salts deterministically from
// the base salt, so even the retry trajectory is reproducible.
func (n *Node) InsertSalted(card *seccrypt.Smartcard, name string, data []byte, k int, salt []byte, cb func(InsertResult)) {
	if k <= 0 {
		k = n.cfg.K
	}
	if len(salt) == 0 {
		n.startInsertAttempt(card, name, data, k, 0, nil, cb)
		return
	}
	n.startInsertAttempt(card, name, data, k, 0, append([]byte(nil), salt...), cb)
}

// attemptSalt maps (baseSalt, retry) to the salt for one insert attempt:
// the base salt itself first, then an FNV-derived successor per retry.
func attemptSalt(baseSalt []byte, retry int) []byte {
	if retry == 0 {
		return baseSalt
	}
	h := fnv.New64a()
	h.Write(baseSalt)                                                                          //nolint:errcheck // hash.Hash never errors
	h.Write([]byte{byte(retry), byte(retry >> 8), byte(retry >> 16), byte(retry >> 24), 0xd1}) //nolint:errcheck
	s := h.Sum64()
	salt := make([]byte, 8)
	for i := range salt {
		salt[i] = byte(s >> (8 * i))
	}
	return salt
}

// startInsertAttempt issues a certificate with a fresh salt and routes the
// insert. Each retry is a "file diversion": a new salt yields a new fileId
// targeting a different region of the ring (section 2.3).
func (n *Node) startInsertAttempt(card *seccrypt.Smartcard, name string, data []byte, k, retry int, baseSalt []byte, cb func(InsertResult)) {
	var salt []byte
	if baseSalt != nil {
		salt = attemptSalt(baseSalt, retry)
	} else {
		salt = make([]byte, 8)
		s := n.pn.Rand()
		for i := range salt {
			salt[i] = byte(s >> (8 * i))
		}
	}
	cert, err := card.IssueFileCertificate(name, data, k, salt, n.nowUnix())
	if err != nil {
		cb(InsertResult{Err: fmt.Errorf("past: issue certificate: %w", err), Retries: retry})
		return
	}
	reqID := n.newReqID()
	op := &pendingOp{
		kind:     opInsert,
		card:     card,
		name:     name,
		data:     data,
		k:        k,
		baseSalt: baseSalt,
		retries:  retry,
		cert:     cert,
		seen:     make(map[id.Node]bool),
		insertCB: cb,
	}
	n.armOp(reqID, op, func() {
		n.finishInsert(reqID, ErrTimeout)
	})
	n.pn.Route(cert.FileID.Key(), wire.InsertRequest{
		Cert:   cert,
		Data:   data,
		Client: n.pn.Ref(),
		ReqID:  reqID,
	})
	n.scheduleInsertResend(reqID, 1)
}

// scheduleInsertResend arms re-send number resend (1-based) of a pending
// insert attempt: after one resend interval, if the attempt is still
// pending and short of k receipts, the SAME InsertRequest — same
// certificate, fileId and request id — is routed again. Holders that
// already stored the file re-issue their receipts (handleReplicaStore is
// idempotent) and clientCollectReceipt drops duplicates, so each re-send
// only needs to cover the frames the network lost. See
// Config.InsertResends; with the default 0 this is never armed.
func (n *Node) scheduleInsertResend(reqID uint64, resend int) {
	if n.cfg.InsertResends <= 0 || resend > n.cfg.InsertResends {
		return
	}
	interval := n.cfg.RequestTimeout / time.Duration(n.cfg.InsertResends+1)
	if interval <= 0 {
		return
	}
	afterFunc(n.pn.Clock(), interval, func() {
		n.mu.Lock()
		op := n.pending[reqID]
		if op == nil || op.kind != opInsert || len(op.receipts) >= op.k {
			n.mu.Unlock()
			return
		}
		req := wire.InsertRequest{Cert: op.cert, Data: op.data, Client: n.pn.Ref(), ReqID: reqID}
		n.mu.Unlock()
		n.pn.Route(req.Cert.FileID.Key(), req)
		n.scheduleInsertResend(reqID, resend+1)
	})
}

// clientCollectReceipt accumulates store receipts toward k, verifying
// each as it arrives. The cheap checks — signer binding, duplicates — run
// under the node lock and the signature check after it is released, so
// receipts from different holders verify on different cores while the
// rest are still in flight. A forged receipt is dropped and counted on
// arrival and never takes its signer's slot, so the genuine node can
// still deliver. Once the k-th valid receipt is in, the client checks
// its own certificate (a memo hit when the root ran in this process): a
// certificate that fails fails the attempt.
func (n *Node) clientCollectReceipt(m wire.StoreReceipt) {
	n.mu.Lock()
	op := n.pending[m.ReqID]
	wanted := op != nil && op.kind == opInsert && !op.seen[m.StoredBy.ID] && seccrypt.VerifyStoreReceiptBinding(&m) == nil
	n.mu.Unlock()
	if !wanted {
		return
	}
	forged := seccrypt.VerifyStoreReceipt(&m) != nil
	n.mu.Lock()
	if forged {
		n.stats.ForgedReceiptsDropped++
	}
	// While the signature was checked the attempt may have ended, or the
	// same holder's receipt may have been admitted.
	if forged || n.pending[m.ReqID] != op || op.seen[m.StoredBy.ID] {
		n.mu.Unlock()
		return
	}
	op.seen[m.StoredBy.ID] = true
	op.receipts = append(op.receipts, m)
	complete := len(op.receipts) == op.k
	n.mu.Unlock()
	if !complete {
		return
	}
	var cause error
	if err := seccrypt.VerifyFileCertificate(n.brokerPub, &op.cert, n.nowUnix()); err != nil {
		// A defective card: fail the attempt like a root-side rejection —
		// refund, clean up the replicas, maybe retry with a fresh
		// certificate.
		cause = fmt.Errorf("%w: file certificate failed verification: %v", ErrRejected, err)
	}
	n.finishInsert(m.ReqID, cause)
}

// handleInsertReject fails the attempt early (triggering file diversion).
func (n *Node) handleInsertReject(m wire.InsertReject) {
	n.mu.Lock()
	op := n.pending[m.ReqID]
	rejected := op != nil && op.kind == opInsert
	n.mu.Unlock()
	if rejected {
		n.finishInsert(m.ReqID, ErrRejected)
	}
}

// finishInsert resolves an insert attempt: success, retry with a new salt,
// or failure with quota refund and best-effort cleanup of partial
// replicas.
func (n *Node) finishInsert(reqID uint64, cause error) {
	n.mu.Lock()
	op := n.pending[reqID]
	if op == nil || op.kind != opInsert {
		n.mu.Unlock()
		return
	}
	delete(n.pending, reqID)
	n.mu.Unlock()
	op.stopTimer()

	if cause == nil {
		diverted := 0
		for _, r := range op.receipts {
			if r.Diverted {
				diverted++
			}
		}
		op.insertCB(InsertResult{
			FileID:   op.cert.FileID,
			Cert:     op.cert,
			Receipts: op.receipts,
			Diverted: diverted,
			Retries:  op.retries,
		})
		return
	}

	// The attempt failed: refund quota and reclaim any partial replicas so
	// they do not leak storage.
	op.card.RefundFileCertificate(&op.cert)
	if len(op.receipts) > 0 {
		if rc, err := op.card.IssueReclaimCertificate(op.cert.FileID, n.nowUnix()); err == nil {
			n.pn.Route(op.cert.FileID.Key(), wire.ReclaimRequest{Cert: rc, Client: n.pn.Ref(), ReqID: n.newReqID()})
		}
	}
	if n.cfg.FileDiversion && op.retries < n.cfg.MaxRetries {
		if d := n.retryDelay(op.retries + 1); d > 0 {
			afterFunc(n.pn.Clock(), d, func() {
				n.startInsertAttempt(op.card, op.name, op.data, op.k, op.retries+1, op.baseSalt, op.insertCB)
			})
			return
		}
		n.startInsertAttempt(op.card, op.name, op.data, op.k, op.retries+1, op.baseSalt, op.insertCB)
		return
	}
	n.mu.Lock()
	n.stats.InsertRejects++
	n.mu.Unlock()
	op.insertCB(InsertResult{
		FileID:   op.cert.FileID,
		Cert:     op.cert,
		Receipts: op.receipts,
		Retries:  op.retries,
		Err:      fmt.Errorf("%w after %d retries: %v", ErrRejected, op.retries, cause),
	})
}

// ---------------------------------------------------------------------------
// Lookup

// Lookup retrieves the file with the given fileId. The callback fires
// exactly once; the returned certificate lets the caller verify content
// authenticity (done here as well). When Config.LookupRetries > 0, a
// timed-out or hop-budget-aborted attempt is retried with capped
// exponential backoff, each retry entering the overlay through a
// different neighbor (route diversity).
func (n *Node) Lookup(fileID id.File, cb func(LookupResult)) {
	n.startLookupAttempt(fileID, 0, cb)
}

// retryDelay returns how long to wait before retry attempt (>= 1):
// RetryBackoff doubling per attempt, capped at 8× the base.
func (n *Node) retryDelay(attempt int) time.Duration {
	if n.cfg.RetryBackoff <= 0 || attempt <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 3 {
		shift = 3
	}
	return n.cfg.RetryBackoff << shift
}

// scheduleLookupAttempt starts attempt now or after the backoff delay.
func (n *Node) scheduleLookupAttempt(fileID id.File, attempt int, cb func(LookupResult)) {
	d := n.retryDelay(attempt)
	if d <= 0 {
		n.startLookupAttempt(fileID, attempt, cb)
		return
	}
	afterFunc(n.pn.Clock(), d, func() {
		n.startLookupAttempt(fileID, attempt, cb)
	})
}

// startLookupAttempt issues one lookup attempt. The first attempt routes
// normally; retries enter the ring via a different neighbor each time, so
// the randomized routes of section 2.2 explore paths that avoid whatever
// dropped or misrouted the previous attempt.
func (n *Node) startLookupAttempt(fileID id.File, attempt int, cb func(LookupResult)) {
	reqID := n.newReqID()
	op := &pendingOp{kind: opLookup, fileID: fileID, retries: attempt, lookupCB: cb}
	n.armOp(reqID, op, func() {
		n.mu.Lock()
		still := n.pending[reqID]
		delete(n.pending, reqID)
		canRetry := still != nil && attempt < n.cfg.LookupRetries
		if canRetry {
			n.stats.LookupRetries++
		}
		n.mu.Unlock()
		if still == nil {
			return
		}
		still.stopTimer() // fired: Stop is a no-op, Release recycles
		if canRetry {
			n.scheduleLookupAttempt(fileID, attempt+1, cb)
			return
		}
		cb(LookupResult{Err: ErrTimeout})
	})
	req := wire.LookupRequest{FileID: fileID, Client: n.pn.Ref(), ReqID: reqID, PrevHop: n.pn.Ref()}
	// Serve locally when possible: a routed message to a key we own never
	// leaves the node anyway.
	r := wire.Routed{Key: fileID.Key(), Payload: req, Origin: n.pn.Ref()}
	if n.serveLookup(&r, req, false) {
		return
	}
	if attempt > 0 && n.routeDiverse(fileID, req, attempt) {
		return
	}
	n.pn.Route(fileID.Key(), req)
}

// routeDiverse injects the request into the overlay through a neighbor
// instead of this node's own routing tables: the entry node routes onward
// by ITS tables, so consecutive attempts traverse different paths even
// when this node's best next hop is malicious. The entry choice comes
// from the node's own seeded stream, keeping tables deterministic.
func (n *Node) routeDiverse(fileID id.File, req wire.LookupRequest, attempt int) bool {
	cands := append(n.pn.LeafMembers(), n.pn.NeighborhoodMembers()...)
	live := cands[:0]
	for _, ref := range cands {
		if ref.ID != n.pn.ID() && n.pn.Reachable(ref) {
			live = append(live, ref)
		}
	}
	if len(live) == 0 {
		return false
	}
	entry := live[int(n.pn.Rand()%uint64(len(live)))]
	key := fileID.Key()
	if attempt >= 2 {
		// Path diversity alone cannot defeat a malicious ROOT: every
		// attempt converges on the same numerically-closest node. From the
		// second retry on, scatter the routing key within the replica
		// neighborhood so the probe is delivered to a different replica-set
		// member; any holder it lands on serves the true fileId carried in
		// the payload, and a miss just triggers the next attempt.
		key = n.scatterKey(key)
	}
	r := wire.Routed{
		Key:      key,
		Payload:  req,
		Origin:   n.pn.Ref(),
		Hops:     1,
		Distance: n.pn.Proximity(entry.Addr),
		Nonce:    n.pn.Rand(),
	}
	n.pn.Send(entry, r)
	return true
}

// scatterKey perturbs a lookup's routing key by a random fraction of the
// node's own leaf-set span — the client's only estimate of ring density —
// so consecutive attempts land on different members of the key's replica
// neighborhood instead of always the same root. Deltas range from about
// half the leaf-set span down to a sixteenth of it, i.e. from a few node
// spacings down to a fraction of one.
func (n *Node) scatterKey(key id.Node) id.Node {
	span := id.Zero
	for _, ref := range n.pn.LeafMembers() {
		if d := n.pn.ID().Dist(ref.ID); span.Less(d) {
			span = d
		}
	}
	if span.IsZero() {
		return key
	}
	r := n.pn.Rand()
	delta := span
	for s := 3 + (r & 3); s > 0; s-- {
		delta = delta.Rsh1()
	}
	if delta.IsZero() {
		return key
	}
	if r&4 != 0 {
		return key.Add(delta)
	}
	return key.Sub(delta)
}

// handleLookupAbort processes a hop-budget abort: strong evidence the
// previous route was tampered with, so the retry goes out immediately
// (no backoff — the abort already cost real time).
func (n *Node) handleLookupAbort(m wire.LookupAbort) {
	n.mu.Lock()
	op := n.pending[m.ReqID]
	if op == nil || op.kind != opLookup {
		n.mu.Unlock()
		return
	}
	delete(n.pending, m.ReqID)
	canRetry := op.retries < n.cfg.LookupRetries
	if canRetry {
		n.stats.LookupRetries++
	}
	n.mu.Unlock()
	op.stopTimer()
	if canRetry {
		n.startLookupAttempt(op.fileID, op.retries+1, op.lookupCB)
		return
	}
	op.lookupCB(LookupResult{Err: ErrTimeout})
}

func (n *Node) handleLookupReply(m wire.LookupReply) {
	n.mu.Lock()
	op := n.pending[m.ReqID]
	if op == nil || op.kind != opLookup {
		n.mu.Unlock()
		return
	}
	delete(n.pending, m.ReqID)
	n.mu.Unlock()
	op.stopTimer()
	res := LookupResult{
		Cert:     m.Cert,
		Data:     m.Data,
		From:     m.From,
		Hops:     m.Hops,
		Distance: m.Distance,
		Cached:   m.Cached,
	}
	// Verify authenticity against the certificate (section 2.1: "the file
	// certificate is returned along with the file, and allows the client
	// to verify that the contents are authentic"). The content check
	// bypasses the buffer-identity hash memo: this verdict goes to the
	// user, so it must reflect the bytes as they are now.
	if err := seccrypt.VerifyFileCertificate(n.brokerPub, &m.Cert, n.nowUnix()); err != nil {
		res.Err = err
	} else if err := seccrypt.VerifyContentFresh(&m.Cert, m.Data); err != nil {
		res.Err = err
	} else if m.From.ID != n.pn.ID() {
		// The reply is also the cache push (replyLookup): keep the copy
		// just proven, so the cache and res.Data share these bytes.
		n.admitToCache(&m.Cert, m.Data, true)
	}
	op.lookupCB(res)
}

func (n *Node) handleLookupMiss(m wire.LookupMiss) {
	n.mu.Lock()
	op := n.pending[m.ReqID]
	if op == nil || op.kind != opLookup {
		n.mu.Unlock()
		return
	}
	delete(n.pending, m.ReqID)
	// Under the adversarial config a miss is not authoritative: a scattered
	// retry may have probed a neighborhood member outside the replica set,
	// and a malicious root may simply lie. Retry while attempts remain;
	// with LookupRetries=0 (the default) a miss still fails immediately.
	canRetry := op.retries < n.cfg.LookupRetries
	if canRetry {
		n.stats.LookupRetries++
	}
	n.mu.Unlock()
	op.stopTimer()
	if canRetry {
		n.scheduleLookupAttempt(op.fileID, op.retries+1, op.lookupCB)
		return
	}
	op.lookupCB(LookupResult{Err: ErrNotFound})
}

// ---------------------------------------------------------------------------
// Reclaim

// Reclaim frees the storage of a file the card's owner inserted. The
// callback fires once, after the first receipts arrive or the timeout
// elapses; per section 1 the operation does not guarantee the file is no
// longer available anywhere.
func (n *Node) Reclaim(card *seccrypt.Smartcard, fileID id.File, cb func(ReclaimResult)) {
	rc, err := card.IssueReclaimCertificate(fileID, n.nowUnix())
	if err != nil {
		cb(ReclaimResult{Err: err})
		return
	}
	reqID := n.newReqID()
	op := &pendingOp{kind: opReclaim, fileID: fileID, card: card, reclaimCB: cb}
	n.armOp(reqID, op, func() {
		n.mu.Lock()
		still := n.pending[reqID]
		delete(n.pending, reqID)
		n.mu.Unlock()
		if still == nil {
			return
		}
		still.stopTimer() // fired: Stop is a no-op, Release recycles
		var freed int64
		for _, r := range still.reclaimRcv {
			freed += r.Freed
		}
		res := ReclaimResult{Receipts: still.reclaimRcv, Freed: freed}
		if len(still.reclaimRcv) == 0 {
			res.Err = ErrTimeout
		}
		cb(res)
	})
	n.pn.Route(fileID.Key(), wire.ReclaimRequest{Cert: rc, Client: n.pn.Ref(), ReqID: reqID})
}

// handleReclaimReceipt credits the owner's quota for each verified receipt
// (section 2.1, "Storage quotas").
func (n *Node) handleReclaimReceipt(m wire.ReclaimReceipt) {
	n.mu.Lock()
	op := n.pending[m.ReqID]
	if op == nil || op.kind != opReclaim {
		n.mu.Unlock()
		return
	}
	op.reclaimRcv = append(op.reclaimRcv, m)
	card := op.card
	n.mu.Unlock()
	if card != nil {
		card.CreditReclaimReceipt(&m, n.nowUnix()) //nolint:errcheck // invalid receipts simply do not credit
	}
}

// ---------------------------------------------------------------------------
// Audit

// AuditPeer challenges peer to prove it stores fileID, comparing the proof
// against this node's own copy of the content (random audits, section
// 2.1). The callback receives true when the peer produced a valid proof.
func (n *Node) AuditPeer(peer wire.NodeRef, fileID id.File, cb func(bool)) error {
	it, err := n.store.Get(fileID)
	if err != nil {
		return fmt.Errorf("past: audit requires a local copy: %w", err)
	}
	nonce := n.pn.Rand()
	reqID := n.newReqID()
	op := &pendingOp{kind: opAudit, auditWant: seccrypt.AuditProof(nonce, it.Data), auditCB: cb}
	n.armOp(reqID, op, func() {
		n.mu.Lock()
		still := n.pending[reqID]
		delete(n.pending, reqID)
		n.mu.Unlock()
		if still != nil {
			still.stopTimer() // fired: Stop is a no-op, Release recycles
			cb(false)
		}
	})
	n.pn.Send(peer, wire.AuditChallenge{FileID: fileID, Nonce: nonce, From: n.pn.Ref(), ReqID: reqID})
	return nil
}
