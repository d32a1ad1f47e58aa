package past

import (
	"cmp"
	"context"
	"crypto/ed25519"
	"fmt"
	"time"

	pastcore "past/internal/past"
	"past/internal/pastry"
	"past/internal/seccrypt"
	"past/internal/storage"
	"past/internal/telemetry"
	"past/internal/transport"
	"past/internal/wire"
)

// TransportStats are the TCP transport's event counters.
type TransportStats = transport.TCPStats

// PeerConfig configures one real PAST node communicating over TCP.
type PeerConfig struct {
	// Listen is the TCP listen address; "127.0.0.1:0" picks a free port.
	Listen string
	// Card is this node's smartcard (fixes its nodeId and signs its
	// receipts). Required.
	Card *Smartcard
	// BrokerPub is the certification key this node trusts.
	BrokerPub ed25519.PublicKey
	// Storage configures the PAST layer; zero value uses defaults.
	Storage StorageConfig
	// DataDir, when set, persists every stored replica and diversion
	// pointer to a log in this directory and recovers them on start: each
	// replica is re-verified against its certificate's content hash before
	// being served again, corrupt records are quarantined, and the node
	// rejoins the network with its surviving replicas intact. Empty keeps
	// storage in memory.
	DataDir string
	// KeepAlive and FailTimeout control failure detection; zero keeps the
	// defaults (5s / 15s).
	KeepAlive, FailTimeout time.Duration
	// LeafSync, when positive, runs membership anti-entropy: every
	// LeafSync-th keep-alive tick the node exchanges leaf sets with one
	// random known peer, so partial membership views (lossy join, missed
	// announce) converge. Zero disables it (the default).
	LeafSync int
	// OpTimeout bounds blocking client operations (default 30s).
	OpTimeout time.Duration
	// JoinTimeout bounds one Join attempt through one seed (default:
	// OpTimeout). The daemon sets it well below OpTimeout so a pass over
	// dead seeds is cheap.
	JoinTimeout time.Duration
	// DialVia, when set, routes all outbound connections through the
	// egress proxy at this address (see transport.TCPOptions.DialVia).
	// The chaos harness interposes its deterministic fault injector this
	// way; empty dials peers directly.
	DialVia string
	// Seed, when non-zero, fixes the node's internal randomness (protocol
	// timers, route tie-breaks). Zero mixes wall-clock time so concurrent
	// deployments differ; the conformance harness sets it to align the
	// real stack with a simulator run.
	Seed int64
}

// Peer is a live PAST node over TCP. It is safe for concurrent use.
type Peer struct {
	cfg  PeerConfig
	tr   *transport.TCP
	node *pastry.Node
	past *pastcore.Node
	disk *storage.DiskStore // nil without a DataDir

	recovered, quarantined int
}

// ListenPeer starts a PAST node listening on cfg.Listen. Call Bootstrap
// (first node) or Join afterwards.
func ListenPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.Card == nil {
		return nil, fmt.Errorf("past: PeerConfig.Card is required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 30 * time.Second
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = cfg.OpTimeout
	}
	tr, err := transport.ListenTCPOpts(cfg.Listen, transport.TCPOptions{DialVia: cfg.DialVia})
	if err != nil {
		return nil, err
	}
	pcfg := pastry.DefaultConfig()
	pcfg.KeepAlive = 5 * time.Second
	pcfg.FailTimeout = 15 * time.Second
	if cfg.KeepAlive > 0 {
		pcfg.KeepAlive = cfg.KeepAlive
	}
	if cfg.FailTimeout > 0 {
		pcfg.FailTimeout = cfg.FailTimeout
	}
	pcfg.LeafSync = cfg.LeafSync
	pcfg.JoinTimeout = cfg.JoinTimeout
	if cfg.Seed != 0 {
		pcfg.Seed = cfg.Seed
	} else {
		pcfg.Seed = int64(cfg.Card.NodeID().Digit(0, 8))<<32 | time.Now().UnixNano()&0xffffffff
	}
	scfg := cfg.Storage
	if scfg.K == 0 {
		scfg = DefaultStorageConfig()
		scfg.RequestTimeout = cfg.OpTimeout
	}
	// Per-attempt protocol timeout: an explicitly configured value wins,
	// so a client on a lossy network can run many short attempts inside
	// one blocking call; by default each attempt gets the whole OpTimeout.
	if scfg.RequestTimeout <= 0 {
		scfg.RequestTimeout = cfg.OpTimeout
	}

	// The real clock counts from now, so now is the certificate epoch:
	// expiry checks compare against wall-clock time.
	clock := transport.NewRealClock()
	scfg.Epoch = time.Now().Unix()
	node := pastry.New(pcfg, cfg.Card.NodeID(), tr, clock, nil)
	// Feed transport-level failure knowledge back into routing: a peer
	// whose last 3 dials failed is unreachable to nextHop, route
	// diversity, and diversion-pointer chases until a dial to it succeeds.
	node.SetProbe(tr.Reachable)
	pn := pastcore.NewNode(scfg, node, cfg.Card, cfg.BrokerPub)
	p := &Peer{cfg: cfg, tr: tr, node: node, past: pn}
	if cfg.DataDir != "" {
		ds, rep, err := storage.OpenDiskStoreVerify(cfg.DataDir, scfg.Capacity, func(cert wire.FileCertificate, data []byte) error {
			return seccrypt.VerifyContentOnce(&cert, data)
		})
		if err != nil {
			tr.Close() //nolint:errcheck // already failing; listener must not leak
			return nil, err
		}
		pn.UseDisk(ds)
		p.disk = ds
		p.recovered, p.quarantined = rep.Recovered, rep.Quarantined
	}
	return p, nil
}

// Recovered reports what opening DataDir found: replicas re-verified and
// served again, and corrupt entries quarantined. Both zero without a
// DataDir.
func (p *Peer) Recovered() (recovered, quarantined int) {
	return p.recovered, p.quarantined
}

// Addr returns the address other peers use to reach this node.
func (p *Peer) Addr() string { return p.tr.Addr() }

// Ref returns this node's overlay identity.
func (p *Peer) Ref() NodeRef { return p.node.Ref() }

// Bootstrap starts a brand-new PAST network with this node as the first
// member.
func (p *Peer) Bootstrap() { p.node.Bootstrap() }

// Join joins an existing network via the given seed addresses, blocking
// until the state transfer completes. It makes one pass over the seeds,
// each bounded by PeerConfig.JoinTimeout (default OpTimeout), and starts
// where the last pass left off, past any seed that did not answer; a
// failed pass leaves the node cleanly re-joinable, so callers retry
// freely. Once joined, the node re-joins through the same seeds by itself
// whenever its leaf set falls below half the largest it has held.
func (p *Peer) Join(seeds ...string) error {
	if len(seeds) == 0 {
		return fmt.Errorf("past: no bootstrap seeds")
	}
	errc := make(chan error, 1)
	p.node.Join(seeds, func(err error) { errc <- err })
	select {
	case err := <-errc:
		return err
	case <-time.After(time.Duration(len(seeds))*p.cfg.JoinTimeout + p.cfg.JoinTimeout/2):
		// Backstop only: the node's own JoinTimeout per seed normally
		// ends the pass first and delivers ErrJoinTimeout through errc.
		return ErrTimeout
	}
}

// wait starts one asynchronous client operation and blocks until its
// callback delivers a result, ctx is done, or the backstop (a multiple of
// OpTimeout, past every protocol-level timeout) passes. Cancelling ctx
// (or its deadline passing) abandons the wait immediately and returns
// ctx's error; the underlying protocol attempt keeps running until its
// own timeout and is cleaned up as usual — deadline propagation bounds
// the caller, not the network.
func wait[R any](ctx context.Context, backstop time.Duration, start func(cb func(R))) (R, error) {
	ch := make(chan R, 1)
	start(func(r R) { ch <- r })
	var none R
	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		return none, ctx.Err()
	case <-time.After(backstop):
		return none, ErrTimeout
	}
}

// own substitutes the peer's own card for a nil client card.
func (p *Peer) own(card *Smartcard) *Smartcard {
	if card == nil {
		return p.cfg.Card
	}
	return card
}

// Insert stores data under name with k replicas (0 = default), blocking
// until the receipts arrive. card nil uses the peer's own card.
func (p *Peer) Insert(card *Smartcard, name string, data []byte, k int) (InsertResult, error) {
	return p.InsertSalted(card, name, data, k, nil)
}

// InsertSalted is Insert with a caller-supplied certificate salt: the
// fileId is H(name, owner, salt), so fixing the salt fixes the fileId.
// The conformance harness uses it to drive the identical workload through
// the simulator and a real cluster and compare placement per fileId. An
// empty salt draws one from the node's rng.
func (p *Peer) InsertSalted(card *Smartcard, name string, data []byte, k int, salt []byte) (InsertResult, error) {
	r, err := wait(context.Background(), 4*p.cfg.OpTimeout, func(cb func(InsertResult)) { p.past.InsertSalted(p.own(card), name, data, k, salt, cb) })
	return r, cmp.Or(err, r.Err)
}

// Lookup retrieves a file, blocking until the reply arrives.
func (p *Peer) Lookup(f FileID) (LookupResult, error) {
	return p.LookupCtx(context.Background(), f)
}

// LookupCtx is Lookup bounded by ctx as well as the operation timeout
// (see wait).
func (p *Peer) LookupCtx(ctx context.Context, f FileID) (LookupResult, error) {
	r, err := wait(ctx, 2*p.cfg.OpTimeout, func(cb func(LookupResult)) { p.past.Lookup(f, cb) })
	return r, cmp.Or(err, r.Err)
}

// Reclaim frees a file's storage, blocking until the reclaim window (the
// storage RequestTimeout, OpTimeout by default) closes: it always waits
// the whole window, even when every receipt arrived early (returning on
// the k-th receipt is ROADMAP item 5). card nil uses the peer's own card.
func (p *Peer) Reclaim(card *Smartcard, f FileID) (ReclaimResult, error) {
	r, err := wait(context.Background(), 2*p.cfg.OpTimeout, func(cb func(ReclaimResult)) { p.past.Reclaim(p.own(card), f, cb) })
	return r, cmp.Or(err, r.Err)
}

// StoredFiles returns how many replicas this node currently stores.
func (p *Peer) StoredFiles() int {
	if p.disk != nil {
		return p.disk.Len()
	}
	return p.past.Store().Len()
}

// TransportStats returns the TCP transport's counters: dials (one per
// connection the node opens and keeps for its sends), dial failures,
// breaker opens, sends suppressed at an open address, sends dropped on a
// full peer queue, inbound frames that did not decode, and outbound
// messages dropped for a frame past MaxFrame.
func (p *Peer) TransportStats() TransportStats { return p.tr.Stats() }

// RegisterTelemetry registers this peer's series on rec: the storage
// layer's per-window counts ("past"), the transport's ("transport", the
// TransportStats counters), with a DataDir the log's failed reads
// ("storage": replies dropped because compaction moved their record, and
// records quarantined because they no longer read back as stored), and
// stored_files and known_peers gauges.
// The caller owns the recorder's clock — the daemon ticks it from a
// periodic task and sets PeerConfig-independent wall-clock epochs.
func (p *Peer) RegisterTelemetry(rec *telemetry.Recorder) {
	pastcore.RegisterTelemetry(rec, func() []*pastcore.Node { return []*pastcore.Node{p.past} })
	rec.Counts("transport", []string{
		"dials", "dial_failures", "suppressed", "breaker_opens", "queue_drops", "decode_errors", "oversize",
	}, func(tot []uint64) {
		s := p.tr.Stats()
		for i, v := range [...]int64{s.Dials, s.DialFailures, s.Suppressed, s.BreakerOpens, s.QueueDrops, s.DecodeErrors, s.Oversize} {
			tot[i] = uint64(v)
		}
	})
	if p.disk != nil {
		rec.Counts("storage", []string{"stale_reads", "corrupt_reads"}, func(tot []uint64) {
			s := p.disk.Stats()
			tot[0], tot[1] = uint64(s.StaleReads), uint64(s.CorruptReads)
		})
	}
	rec.Gauge("stored_files", []string{"value"}, func(v []float64) { v[0] = float64(p.StoredFiles()) })
	rec.Gauge("known_peers", []string{"value"}, func(v []float64) { v[0] = float64(p.KnownPeers()) })
}

// KnownPeers returns how many distinct nodes this peer holds in its leaf
// set. Joins return before announce traffic has fully propagated, so
// callers that need a converged membership view (tests, admission
// checks) can poll this instead of sleeping.
func (p *Peer) KnownPeers() int {
	_, leaf, _ := p.node.StateSize()
	return leaf
}

// Close shuts the node down. The data dir's log is closed last, once the
// transport has stopped the handlers that write to it.
func (p *Peer) Close() error {
	p.node.Leave()
	err := p.tr.Close()
	if p.disk != nil {
		err = cmp.Or(err, p.disk.Close())
	}
	return err
}
