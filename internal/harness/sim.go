package harness

import (
	"sort"

	"past/internal/cluster"
	"past/internal/id"
	pastcore "past/internal/past"
	"past/internal/pastry"
	"past/internal/wire"
)

// simConfig is the storage configuration both stacks run under: caching
// off (a cache hit would make hop counts depend on lookup timing, which
// the real stack cannot reproduce), everything else at paper defaults.
func simConfig(spec *Spec) pastcore.Config {
	cfg := pastcore.DefaultConfig()
	cfg.K = spec.K
	cfg.Capacity = spec.Capacity
	cfg.Caching = false
	return cfg
}

// RunSim drives the Spec through a simulated cluster of Nodes storage
// nodes plus one capacity-zero client (the same membership the real
// cluster gets), using the simulator's deterministic identity derivation
// (cluster.BuildPAST). It returns the protocol Outcome plus the
// store-level holders map (fileId → sorted nodeIds) for the k-replica
// invariant check.
func RunSim(spec *Spec) (Outcome, map[string][]string, error) {
	out := Outcome{Placement: map[string][]string{}}
	client := spec.ClientIndex()
	c, err := cluster.BuildPAST(
		cluster.Options{N: spec.Nodes + 1, Pastry: pastry.DefaultConfig(), Seed: spec.Seed},
		simConfig(spec),
		func(i int) int64 {
			if i == client {
				return 0
			}
			return spec.Capacity
		}, 0)
	if err != nil {
		return out, nil, err
	}

	fileIDs := make([]id.File, len(spec.Items))
	ok := make([]bool, len(spec.Items))
	for i, it := range spec.Items {
		res := c.InsertSalted(client, nil, it.Name, it.Data, spec.K, it.Salt)
		if res.Err != nil {
			continue
		}
		out.Delivered++
		fileIDs[i], ok[i] = res.FileID, true
		out.Placement[res.FileID.String()] = receiptHolders(res.Receipts)
	}
	for i := range spec.Items {
		if !ok[i] {
			out.Hops = append(out.Hops, -1)
			continue
		}
		res := c.Lookup(client, fileIDs[i])
		if res.Err != nil {
			out.Hops = append(out.Hops, -1)
			continue
		}
		out.Lookups++
		out.Hops = append(out.Hops, res.Hops)
	}

	holders := make(map[string][]string)
	for i := 0; i < spec.Nodes; i++ {
		nodeID := c.Nodes[i].Ref().ID.String()
		for _, f := range c.Node(i).Store().Files() {
			holders[f.String()] = append(holders[f.String()], nodeID)
		}
	}
	for f := range holders {
		sort.Strings(holders[f])
	}
	return out, holders, nil
}

// receiptHolders extracts the sorted holder nodeIds from store receipts.
func receiptHolders(receipts []wire.StoreReceipt) []string {
	var hs []string
	for _, r := range receipts {
		hs = append(hs, r.StoredBy.ID.String())
	}
	sort.Strings(hs)
	return hs
}
