// Package adversary installs deterministic malicious-node policies for
// the resilience experiments (E18–E21). The paper's security discussion
// (section 2.2 "Fault-tolerance", section 2.1 "Storage quotas") assumes
// nodes may drop or misroute requests, forge receipts, or cheat on
// contributed storage; this package turns those behaviours on for a
// chosen subset of simulated nodes.
//
// Every decision an adversary makes — which nodes are malicious, and
// whether a particular message is dropped or misrouted — is a pure
// function of (experiment seed, node index) plus the node's own traffic
// history, mirroring simnet's per-endpoint RNG discipline, so experiment
// tables are reproducible from their seed.
package adversary

import (
	"math/rand"
	"sort"

	"past/internal/past"
	"past/internal/pastry"
	"past/internal/simnet"
	"past/internal/wire"
)

// Policy identifies one adversarial behaviour.
type Policy int

const (
	// Dropper accepts traffic but silently discards routed requests it
	// is asked to forward; its direct replies and keep-alives still flow,
	// so the overlay keeps treating it as live.
	Dropper Policy = iota
	// Misrouter forwards routed requests to a wrong-but-plausible next
	// hop (a random member of its own leaf set) instead of the one prefix
	// routing chose, inflating routes until a hop budget trips.
	Misrouter
	// Forger returns store receipts whose signatures do not verify;
	// the client drops each on arrival.
	Forger
	// FreeRider claims replicas it never stores, with properly signed
	// receipts; only a content audit exposes the missing data.
	FreeRider
)

func (p Policy) String() string {
	switch p {
	case Dropper:
		return "dropper"
	case Misrouter:
		return "misrouter"
	case Forger:
		return "forger"
	case FreeRider:
		return "free-rider"
	}
	return "unknown"
}

// Pick deterministically selects round(frac·n) victim node indexes in
// [0, n), uniformly from seed, returned sorted. The selection depends
// only on (seed, n, frac).
func Pick(seed int64, n int, frac float64) []int {
	count := int(frac*float64(n) + 0.5)
	if count > n {
		count = n
	}
	if count <= 0 {
		return nil
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := append([]int(nil), perm[:count]...)
	sort.Ints(out)
	return out
}

// rngFor derives the node's private adversarial stream the same way
// simnet derives per-endpoint jitter streams, with a distinct mixing
// constant so the two never correlate.
func rngFor(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(int64(uint64(seed) ^ 0xC2B2AE3D27D4EB4F*uint64(idx+1))))
}

// Install applies policy to one node. prob is the per-message misbehaviour
// probability for the traffic policies (Dropper, Misrouter); the storage
// policies (Forger, FreeRider) cheat on every replica they are asked to
// hold. Call after the overlay is built and before the measured workload.
func Install(policy Policy, seed int64, ep *simnet.Endpoint, node *past.Node, prob float64) {
	switch policy {
	case Dropper:
		InstallDropper(ep, seed, prob)
	case Misrouter:
		InstallMisrouter(ep, node.Pastry(), seed, prob)
	case Forger:
		node.SetMischief(past.Mischief{ForgeReceipts: true})
	case FreeRider:
		node.SetMischief(past.Mischief{FreeRide: true})
	}
}

// InstallDropper makes ep a black hole for the lookup protocol: with
// probability prob each, it silently drops the routed requests it is
// asked to forward and the lookup replies it owes as a replica holder
// (the "accepts traffic but does not forward it correctly" node of
// section 2.2). Keep-alives and join traffic still flow, so the overlay
// keeps routing through it.
func InstallDropper(ep *simnet.Endpoint, seed int64, prob float64) {
	rng := rngFor(seed, ep.Index())
	ep.SetSendFilter(func(to string, m wire.Msg) bool {
		switch m.(type) {
		case wire.Routed, wire.LookupReply:
			return prob >= 1 || rng.Float64() < prob
		}
		return false
	})
}

// InstallMisrouter rewrites, with probability prob each, the routed
// requests ep forwards so they go to a random member of the node's own
// leaf set instead of the hop prefix routing chose. The target is a real,
// live overlay node — a wrong-but-plausible hop — so the request keeps
// bouncing plausibly until it strays into the replica set or a hop budget
// aborts it. Decisions draw on the node's own leaf set and private
// stream only.
func InstallMisrouter(ep *simnet.Endpoint, pn *pastry.Node, seed int64, prob float64) {
	rng := rngFor(seed, ep.Index())
	ep.SetSendRewrite(func(to string, m wire.Msg) (string, wire.Msg) {
		if _, ok := m.(wire.Routed); !ok {
			return to, m
		}
		if prob < 1 && rng.Float64() >= prob {
			return to, m
		}
		members := pn.LeafMembers()
		if len(members) == 0 {
			return to, m
		}
		return members[rng.Intn(len(members))].Addr, m
	})
}
