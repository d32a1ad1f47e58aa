package cluster

import (
	"past/internal/id"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/seccrypt"
	"past/internal/simnet"
	"past/internal/telemetry"
)

// EventBudget caps the simulator events one synchronous operation may
// consume before it is reported as timed out. It is a safety net only: an
// operation normally ends on its own RequestTimeout or when the network
// goes idle.
const EventBudget = 100_000_000

// BrokerSeed and CardSeed are the deterministic identity derivation of
// every simulated PAST network: the broker's key is drawn from
// seccrypt.DetRand(BrokerSeed(seed)) and card i's from
// seccrypt.DetRand(CardSeed(seed, i)). The conformance harness hands the
// same two streams to real daemons so both stacks assign identical
// nodeIds.
func BrokerSeed(seed int64) uint64 { return uint64(seed) + 1 }

// CardSeed is the stream seed of card i (see BrokerSeed).
func CardSeed(seed int64, i int) uint64 { return uint64(seed)<<20 + uint64(i) + 7 }

// PAST is a simulated PAST network: a Cluster whose application layer is
// one past.Node per overlay node, each identified by a smartcard derived
// from the seed. Cards and nodes grow on demand, so churn arrivals
// (Cluster.AddNode) join with the next identity in the sequence.
type PAST struct {
	*Cluster
	Broker *seccrypt.Broker

	seed     int64
	storage  past.Config
	capacity func(i int) int64
	quota    int64
	cards    []*seccrypt.Smartcard
	nodes    []*past.Node
}

// BuildPAST builds and joins opts.N PAST nodes configured by storage;
// opts.NodeID and opts.AppFactory are set here. capacity, when non-nil,
// gives node i's storage contribution in place of storage.Capacity (it
// is called once per node, in index order). quota is the usage quota on
// every card; zero means effectively unlimited.
func BuildPAST(opts Options, storage past.Config, capacity func(i int) int64, quota int64) (*PAST, error) {
	broker, err := seccrypt.NewBroker(seccrypt.DetRand(BrokerSeed(opts.Seed)))
	if err != nil {
		return nil, err
	}
	if quota <= 0 {
		quota = 1 << 50
	}
	p := &PAST{Broker: broker, seed: opts.Seed, storage: storage, capacity: capacity, quota: quota}
	// Issue the initial cards up front so that a bad capacity or quota is
	// an error here rather than a panic inside a Build callback.
	for i := 0; i < opts.N; i++ {
		if err := p.issueCard(); err != nil {
			return nil, err
		}
	}
	opts.NodeID = func(i int) id.Node { return p.Card(i).NodeID() }
	opts.AppFactory = func(i int, nd *pastry.Node, _ *simnet.Endpoint) pastry.App {
		cfg := storage
		cfg.Capacity = p.Card(i).Contribution()
		n := past.NewNode(cfg, nd, p.Card(i), broker.PublicKey())
		// Build and AddNode hand out indices densely (a reused slot is
		// below the length), so there is never a gap to fill.
		if i == len(p.nodes) {
			p.nodes = append(p.nodes, n)
		} else {
			p.nodes[i] = n
		}
		return n
	}
	if p.Cluster, err = Build(opts); err != nil {
		return nil, err
	}
	return p, nil
}

// issueCard issues the next card in the sequence.
func (p *PAST) issueCard() error {
	i := len(p.cards)
	contribution := p.storage.Capacity
	if p.capacity != nil {
		contribution = p.capacity(i)
	}
	card, err := p.Broker.IssueCard(p.quota, contribution, 0, seccrypt.DetRand(CardSeed(p.seed, i)))
	if err != nil {
		return err
	}
	p.cards = append(p.cards, card)
	return nil
}

// Card returns node i's smartcard (also usable as a client identity),
// issuing the cards up to i if a churn arrival needs them.
func (p *PAST) Card(i int) *seccrypt.Smartcard {
	for len(p.cards) <= i {
		if err := p.issueCard(); err != nil {
			panic(err) // the same inputs issued the first N cards
		}
	}
	return p.cards[i]
}

// Node returns node i's PAST layer.
func (p *PAST) Node(i int) *past.Node { return p.nodes[i] }

// PASTNodes returns every node's PAST layer (Nodes holds the overlay
// layer), crashed and departed included.
// The slice is the network's own: read it, do not keep it across AddNode.
func (p *PAST) PASTNodes() []*past.Node { return p.nodes }

// Await runs the simulator until done reports true, the network goes
// idle, or EventBudget events have been processed; it reports done().
func (p *PAST) Await(done func() bool) bool {
	return p.Net.RunUntil(done, EventBudget)
}

// await starts one asynchronous client operation and drives the simulator
// until its callback has delivered a result; timeout is returned if it
// never does.
func await[R any](p *PAST, start func(cb func(R)), timeout R) R {
	var res *R
	start(func(r R) { res = &r })
	if !p.Await(func() bool { return res != nil }) {
		return timeout
	}
	return *res
}

// own substitutes node's own card for a nil client card.
func (p *PAST) own(node int, card *seccrypt.Smartcard) *seccrypt.Smartcard {
	if card == nil {
		return p.Card(node)
	}
	return card
}

// Insert stores data via node `node` on behalf of card (nil means the
// node's own), replicated k times (0 means the configured default), and
// blocks until the insert completes or fails.
func (p *PAST) Insert(node int, card *seccrypt.Smartcard, name string, data []byte, k int) past.InsertResult {
	return p.InsertSalted(node, card, name, data, k, nil)
}

// InsertSalted is Insert with a caller-fixed certificate salt (see
// past.Node.InsertSalted); an empty salt draws one from the node's rng.
func (p *PAST) InsertSalted(node int, card *seccrypt.Smartcard, name string, data []byte, k int, salt []byte) past.InsertResult {
	return await(p, func(cb func(past.InsertResult)) {
		p.nodes[node].InsertSalted(p.own(node, card), name, data, k, salt, cb)
	}, past.InsertResult{Err: past.ErrTimeout})
}

// Lookup retrieves f via node `node`.
func (p *PAST) Lookup(node int, f id.File) past.LookupResult {
	return await(p, func(cb func(past.LookupResult)) {
		p.nodes[node].Lookup(f, cb)
	}, past.LookupResult{Err: past.ErrTimeout})
}

// Reclaim frees f's storage via node `node` with the owner's card (nil
// means the node's own).
func (p *PAST) Reclaim(node int, card *seccrypt.Smartcard, f id.File) past.ReclaimResult {
	return await(p, func(cb func(past.ReclaimResult)) {
		p.nodes[node].Reclaim(p.own(node, card), f, cb)
	}, past.ReclaimResult{Err: past.ErrTimeout})
}

// AttachTelemetry is Cluster.AttachTelemetry plus the storage layer's
// per-window deltas summed over every node (past.RegisterTelemetry).
func (p *PAST) AttachTelemetry(rec *telemetry.Recorder) {
	p.Cluster.AttachTelemetry(rec)
	past.RegisterTelemetry(rec, p.PASTNodes)
}

// Utilization returns used/capacity summed over live nodes.
func (p *PAST) Utilization() float64 {
	var used, capTotal int64
	for i, n := range p.nodes {
		if p.Down(i) {
			continue
		}
		used += n.Store().Used()
		capTotal += n.Store().Capacity()
	}
	if capTotal == 0 {
		return 0
	}
	return float64(used) / float64(capTotal)
}

// LiveVerifiedCopies counts live nodes holding a content-verified copy
// of f.
func (p *PAST) LiveVerifiedCopies(f id.File) int {
	n := 0
	for i, pn := range p.nodes {
		if p.Down(i) {
			continue
		}
		if it, err := pn.Store().Get(f); err == nil && seccrypt.VerifyContent(&it.Cert, it.Data) == nil {
			n++
		}
	}
	return n
}
