package past

import (
	"fmt"
	"time"

	"past/internal/cluster"
	"past/internal/pastry"
	"past/internal/telemetry"
	"past/internal/wire"
)

// NetworkConfig configures a simulated PAST network.
type NetworkConfig struct {
	// N is the number of nodes. Required.
	N int
	// Seed makes the whole network (ids, topology, latencies, request
	// randomness) reproducible.
	Seed int64
	// Storage configures each node's PAST layer; the zero value uses
	// DefaultStorageConfig.
	Storage StorageConfig
	// UserQuota is the usage quota issued to each node's smartcard.
	// Zero means effectively unlimited.
	UserQuota int64
	// KeepAlive enables periodic leaf-set keep-alives (needed for
	// automatic failure recovery); zero disables them.
	KeepAlive time.Duration
	// FailTimeout is the silence period after which a node is presumed
	// failed (only meaningful with KeepAlive set).
	FailTimeout time.Duration
	// RandomizedRouting enables the fault-tolerant randomized routing of
	// section 2.2, which lets retried requests take different paths
	// around malicious or failed nodes.
	RandomizedRouting bool
}

// Network is an in-process simulated PAST network: N storage nodes built
// by running the real join protocol over a deterministic discrete-event
// simulator. All client operations run the full protocol (certificates,
// routing, replication, receipts) and block until the simulation delivers
// a result.
type Network struct {
	clu *cluster.PAST
}

// NewNetwork builds and joins an N-node simulated PAST network.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("past: NetworkConfig.N must be positive, got %d", cfg.N)
	}
	storage := cfg.Storage
	if storage.K == 0 {
		storage = DefaultStorageConfig()
		storage.K = 3
	}
	pcfg := pastry.DefaultConfig()
	if cfg.KeepAlive > 0 {
		pcfg.KeepAlive = cfg.KeepAlive
		if cfg.FailTimeout > 0 {
			pcfg.FailTimeout = cfg.FailTimeout
		}
	}
	pcfg.Randomize = cfg.RandomizedRouting
	clu, err := cluster.BuildPAST(cluster.Options{N: cfg.N, Pastry: pcfg, Seed: cfg.Seed}, storage, nil, cfg.UserQuota)
	if err != nil {
		return nil, err
	}
	if cfg.KeepAlive > 0 {
		clu.EnableProbes()
	}
	return &Network{clu: clu}, nil
}

// Len returns the number of nodes (live and crashed).
func (nw *Network) Len() int { return len(nw.clu.PASTNodes()) }

// Card returns node i's smartcard (also usable as a client identity).
func (nw *Network) Card(i int) *Smartcard { return nw.clu.Card(i) }

// NodeRef returns node i's overlay identity.
func (nw *Network) NodeRef(i int) NodeRef { return nw.clu.Nodes[i].Ref() }

// Insert stores data via node `node` using card (nil uses the node's own
// card), replicated k times (0 = default). It blocks until the insert
// completes or fails.
func (nw *Network) Insert(node int, card *Smartcard, name string, data []byte, k int) (InsertResult, error) {
	res := nw.clu.Insert(node, card, name, data, k)
	return res, res.Err
}

// Lookup retrieves a file via node `node`.
func (nw *Network) Lookup(node int, f FileID) (LookupResult, error) {
	res := nw.clu.Lookup(node, f)
	return res, res.Err
}

// Reclaim frees a file's storage via node `node` with the owner's card
// (nil uses the node's own card).
func (nw *Network) Reclaim(node int, card *Smartcard, f FileID) (ReclaimResult, error) {
	res := nw.clu.Reclaim(node, card, f)
	return res, res.Err
}

// Crash silently removes node i from the network, as in the paper's
// failure model ("nodes may silently leave the system without warning").
func (nw *Network) Crash(i int) { nw.clu.Crash(i) }

// Down reports whether node i has been crashed.
func (nw *Network) Down(i int) bool { return nw.clu.Down(i) }

// Restart brings a crashed node back; it re-enters the overlay via the
// recovery protocol of section 2.2 (contact last-known leaf set, merge
// their current leaf sets, announce presence).
func (nw *Network) Restart(i int) { nw.clu.Restart(i) }

// RunFor advances the simulation by d of virtual time, letting keep-alive,
// repair and re-replication traffic proceed.
func (nw *Network) RunFor(d time.Duration) { nw.clu.Net.RunFor(d) }

// RegisterTelemetry registers the network's series on rec — live_nodes,
// net_events and the storage layer's per-window counts summed over all
// nodes ("past", the name a Peer's recorder uses) — and ticks rec at every
// simulator window barrier, so windows close as RunFor and the client
// operations advance virtual time.
func (nw *Network) RegisterTelemetry(rec *telemetry.Recorder) { nw.clu.AttachTelemetry(rec) }

// Utilization returns the global storage utilization across live nodes.
func (nw *Network) Utilization() float64 { return nw.clu.Utilization() }

// AuditPeer makes node `auditor` challenge `target` to prove it stores f.
func (nw *Network) AuditPeer(auditor int, target NodeRef, f FileID) (bool, error) {
	var verdict bool
	done := false
	if err := nw.clu.Node(auditor).AuditPeer(target, f, func(ok bool) { verdict = ok; done = true }); err != nil {
		return false, err
	}
	if !nw.clu.Await(func() bool { return done }) {
		return false, ErrTimeout
	}
	return verdict, nil
}

// Messages returns the number of messages delivered by the simulated
// network so far.
func (nw *Network) Messages() uint64 { return nw.clu.Net.Messages() }

// ReplicaHolders lists the indexes of live nodes storing f.
func (nw *Network) ReplicaHolders(f FileID) []int {
	var out []int
	for i, n := range nw.clu.PASTNodes() {
		if !nw.clu.Down(i) && n.Store().Has(f) {
			out = append(out, i)
		}
	}
	return out
}

// SetMalicious turns node i into the attacker of section 2.2
// ("Fault-tolerance"): it accepts messages but silently drops everything
// it should forward on behalf of others, while still answering as a
// destination.
func (nw *Network) SetMalicious(i int) {
	nw.clu.Eps[i].SetSendFilter(func(to string, m wire.Msg) bool {
		_, isRouted := m.(wire.Routed)
		return isRouted
	})
}
