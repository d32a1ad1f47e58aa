package experiments

import (
	"fmt"
	"math"

	"past/internal/chord"
	"past/internal/cluster"
	"past/internal/id"
	"past/internal/metrics"
	"past/internal/pastry"
	"past/internal/simnet"
	"past/internal/wire"
	"past/internal/workload"
)

// E1RoutingHops reproduces the hop-count scaling figure: the average
// number of overlay hops stays below ceil(log_2b N) as the network grows
// (paper section 2: "less than ceil(log16 N) steps on average").
func E1RoutingHops(scale Scale, seed int64) Result {
	sizes := []int{64, 256, 1024}
	trials := 500
	switch scale {
	case Full:
		sizes = []int{256, 1024, 4096, 16384, 32768}
		trials = 2000
	case Large:
		sizes = []int{4096, 20000}
		trials = 1000
	case Huge:
		sizes = []int{100000}
		trials = 1000
	}
	tbl := &metrics.Table{Header: []string{"N", "ceil(log16 N)", "avg hops", "p95 hops", "max hops", "delivered"}}
	type point struct {
		hops      metrics.Summary
		delivered int
		events    uint64
	}
	pts := make([]point, len(sizes))
	forEachPoint(len(sizes), func(i int) {
		n := sizes[i]
		if scale >= Large {
			// Bulk-constructed network, million-user workload: each probe
			// is a logical client folded onto its entry node, and only the
			// oracle-known destination's recorder is armed (arming all
			// 100k is the dominant cost otherwise).
			c, recs := mustRoutingCluster(n, seed, largeTier)
			mux := workload.NewClientMux(int64(n)*50, seed)
			for t := 0; t < trials; t++ {
				client := mux.Client(uint64(t))
				from := mux.EntryNode(client, n)
				key := mux.Key(client, uint64(t))
				dest := c.IndexByID(c.NumericallyClosest(key).ID)
				d, ok := probeRouteTo(c, recs, from, dest, key, uint64(t))
				if !ok {
					continue
				}
				pts[i].delivered++
				pts[i].hops.Add(float64(d.Routed.Hops))
			}
			pts[i].events = c.Net.Messages()
			return
		}
		c, recs := mustRoutingCluster(n, seed, nil)
		for t := 0; t < trials; t++ {
			key := id.Rand(uint64(seed)<<32 + uint64(t))
			d, ok := probeRoute(c, recs, c.RandomLiveNode(), key, uint64(t))
			if !ok {
				continue
			}
			pts[i].delivered++
			pts[i].hops.Add(float64(d.Routed.Hops))
		}
		pts[i].events = c.Net.Messages()
	})
	var events uint64
	for i, n := range sizes {
		bound := int(math.Ceil(math.Log(float64(n)) / math.Log(16)))
		tbl.AddRow(n, bound, pts[i].hops.Mean(), pts[i].hops.Percentile(95), pts[i].hops.Max(),
			fmt.Sprintf("%d/%d", pts[i].delivered, trials))
		events += pts[i].events
	}
	return Result{
		ID:         "E1",
		Title:      "Average routing hops vs network size (b=4, l=32)",
		PaperClaim: "routes complete in < ceil(log16 N) hops on average",
		Table:      tbl,
		Nodes:      sizes[len(sizes)-1],
		Events:     events,
	}
}

// E2HopDistribution reproduces the hop-count probability distribution
// figure: the mass concentrates at floor/ceil(log16 N).
func E2HopDistribution(scale Scale, seed int64) Result {
	n, trials := 1024, 2000
	if scale == Full {
		n, trials = 10000, 10000
	}
	c, recs := mustRoutingCluster(n, seed, nil)
	var h metrics.Hist
	for t := 0; t < trials; t++ {
		key := id.Rand(uint64(seed)<<32 + uint64(t))
		if d, ok := probeRoute(c, recs, c.RandomLiveNode(), key, uint64(t)); ok {
			h.Add(d.Routed.Hops)
		}
	}
	tbl := &metrics.Table{Header: []string{"hops", "probability"}}
	for v := 0; v <= h.MaxValue(); v++ {
		tbl.AddRow(v, h.Frac(v))
	}
	return Result{
		ID:         "E2",
		Title:      fmt.Sprintf("Distribution of per-lookup hop counts (N=%d)", n),
		PaperClaim: "hop counts concentrate at ~log16 N with small variance",
		Table:      tbl,
		Notes:      []string{fmt.Sprintf("mean %.2f, log16(N) = %.2f", h.Mean(), math.Log(float64(n))/math.Log(16))},
	}
}

// E3Locality reproduces the route-distance figure: the proximity-metric
// distance travelled by a Pastry route is a small constant factor above
// the direct source-destination distance (paper section 2.2, "Locality":
// "only 50% higher than the corresponding distance ... in the underlying
// network").
func E3Locality(scale Scale, seed int64) Result {
	n, trials := 512, 400
	if scale == Full {
		n, trials = 5000, 2000
	}
	c, recs := mustRoutingCluster(n, seed, nil)
	var ratios, routeD, directD metrics.Summary
	for t := 0; t < trials; t++ {
		key := id.Rand(uint64(seed)<<32 + uint64(t))
		from := c.RandomLiveNode()
		d, ok := probeRoute(c, recs, from, key, uint64(t))
		if !ok || d.Routed.Hops == 0 {
			continue
		}
		direct := c.Topo.Distance(from, d.NodeIndex)
		if direct <= 0 {
			continue
		}
		ratios.Add(d.Routed.Distance / direct)
		routeD.Add(d.Routed.Distance)
		directD.Add(direct)
	}
	tbl := &metrics.Table{Header: []string{"metric", "value"}}
	tbl.AddRow("mean route distance (ms)", routeD.Mean())
	tbl.AddRow("mean direct distance (ms)", directD.Mean())
	tbl.AddRow("mean ratio (per route)", ratios.Mean())
	tbl.AddRow("aggregate ratio", routeD.Mean()/directD.Mean())
	tbl.AddRow("p50 ratio", ratios.Percentile(50))
	tbl.AddRow("p95 ratio", ratios.Percentile(95))
	return Result{
		ID:         "E3",
		Title:      fmt.Sprintf("Route distance vs direct network distance (N=%d)", n),
		PaperClaim: "route distance ≈ 1.5× the direct source-destination distance",
		Table:      tbl,
	}
}

// E4ReplicaProximity reproduces the replica-locality claim of section 2.2:
// with k=5 replicas, lookups find the proximally nearest replica ~76% of
// the time and one of the two nearest ~92%.
func E4ReplicaProximity(scale Scale, seed int64) Result {
	n, files, lookups := 256, 40, 300
	var mut func(*cluster.Options)
	switch scale {
	case Full:
		n, files, lookups = 5000, 200, 2000
	case Large:
		n, files, lookups, mut = 20000, 40, 400, largeTier
	case Huge:
		n, files, lookups, mut = 100000, 40, 400, largeTier
	}
	cfg := defaultPASTConfig()
	cfg.K = 5
	cfg.Caching = false // measure pure replica selection, not caches
	pc := mustPAST(n, seed, cfg, nil, mut)
	var mux *workload.ClientMux
	if scale >= Large {
		mux = workload.NewClientMux(int64(n)*50, seed)
	}
	type stored struct {
		f       id.File
		holders []int
	}
	var pop []stored
	for i := 0; i < files; i++ {
		res := pc.Insert(pc.Rand().Intn(n), pc.Card(0), fmt.Sprintf("file-%d", i), make([]byte, 1024), 5)
		if res.Err != nil {
			continue
		}
		var holders []int
		for j, pn := range pc.PASTNodes() {
			if pn.Store().Has(res.FileID) {
				holders = append(holders, j)
			}
		}
		if len(holders) == 5 {
			pop = append(pop, stored{res.FileID, holders})
		}
	}
	nearest, top2, total := 0, 0, 0
	for t := 0; t < lookups && len(pop) > 0; t++ {
		s := pop[t%len(pop)]
		client := pc.Rand().Intn(n)
		if mux != nil {
			// Tiered runs draw the requester from the logical client
			// population folded onto entry nodes.
			client = mux.EntryNode(mux.Client(uint64(t)), n)
		}
		lr := pc.Lookup(client, s.f)
		if lr.Err != nil {
			continue
		}
		responder := pc.IndexByID(lr.From.ID)
		if responder < 0 {
			continue
		}
		// Rank the responder among the k holders by proximity to client.
		rank := 1
		dResp := pc.Topo.Distance(client, responder)
		for _, h := range s.holders {
			if h != responder && pc.Topo.Distance(client, h) < dResp {
				rank++
			}
		}
		total++
		if rank == 1 {
			nearest++
		}
		if rank <= 2 {
			top2++
		}
	}
	tbl := &metrics.Table{Header: []string{"outcome", "fraction", "paper"}}
	tbl.AddRow("nearest replica found", frac(nearest, total), "0.76")
	tbl.AddRow("one of two nearest", frac(top2, total), "0.92")
	tbl.AddRow("lookups measured", total, "")
	return Result{
		ID:         "E4",
		Title:      fmt.Sprintf("Fraction of lookups reaching the proximally nearest of k=5 replicas (N=%d)", n),
		PaperClaim: "nearest replica in 76% of lookups; one of two nearest in 92%",
		Table:      tbl,
		Nodes:      n,
		Events:     pc.Net.Messages(),
	}
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// E5FailureRouting reproduces the node-failure figure: simultaneous
// failures lose deterministic routes until transport-level failure
// detection routes around them and repair restores hop counts.
func E5FailureRouting(scale Scale, seed int64) Result {
	n, trials := 512, 400
	if scale == Full {
		n, trials = 5000, 1500
	}
	c, recs := mustRoutingCluster(n, seed, nil)
	phase := func(label string) (delivered int, hops metrics.Summary) {
		for t := 0; t < trials; t++ {
			key := id.Rand(uint64(seed)<<32 + uint64(t) + uint64(len(label))<<48)
			if d, ok := probeRoute(c, recs, c.RandomLiveNode(), key, uint64(t)); ok {
				delivered++
				hops.Add(float64(d.Routed.Hops))
			}
		}
		return delivered, hops
	}
	tbl := &metrics.Table{Header: []string{"phase", "delivered", "avg hops"}}
	d0, h0 := phase("baseline")
	tbl.AddRow("before failures", fmt.Sprintf("%d/%d", d0, trials), h0.Mean())

	for k := 0; k < n/10; k++ {
		c.Crash(c.RandomLiveNode())
	}
	d1, h1 := phase("failed")
	tbl.AddRow("10% failed, no detection", fmt.Sprintf("%d/%d", d1, trials), h1.Mean())

	c.EnableProbes()
	d2, h2 := phase("probes")
	tbl.AddRow("with failure detection", fmt.Sprintf("%d/%d", d2, trials), h2.Mean())

	// Lazy repair has been running during the probe phase; measure again.
	d3, h3 := phase("repaired")
	tbl.AddRow("after lazy repair", fmt.Sprintf("%d/%d", d3, trials), h3.Mean())
	return Result{
		ID:         "E5",
		Title:      fmt.Sprintf("Routing under 10%% simultaneous node failures (N=%d)", n),
		PaperClaim: "eventual delivery unless l/2 adjacent nodes fail; repair restores route quality",
		Table:      tbl,
	}
}

// E6TableSize reproduces the state-size claim of section 2.2: each node
// keeps (2^b-1)*ceil(log_2b N) + 2l entries.
func E6TableSize(scale Scale, seed int64) Result {
	sizes := []int{64, 256, 1024}
	if scale == Full {
		sizes = []int{256, 1024, 4096, 16384}
	}
	tbl := &metrics.Table{Header: []string{"N", "avg RT entries", "avg leaf", "avg nbhd", "formula RT+leaf"}}
	type point struct {
		rt, leaf, nbhd metrics.Summary
		formula        int
	}
	pts := make([]point, len(sizes))
	forEachPoint(len(sizes), func(i int) {
		n := sizes[i]
		c, _ := mustRoutingCluster(n, seed, nil)
		for _, nd := range c.Nodes {
			r, l, m := nd.StateSize()
			pts[i].rt.Add(float64(r))
			pts[i].leaf.Add(float64(l))
			pts[i].nbhd.Add(float64(m))
		}
		pts[i].formula = 15*int(math.Ceil(math.Log(float64(n))/math.Log(16))) + 2*c.Opts.Pastry.L/2*2
	})
	for i, n := range sizes {
		tbl.AddRow(n, pts[i].rt.Mean(), pts[i].leaf.Mean(), pts[i].nbhd.Mean(), pts[i].formula)
	}
	return Result{
		ID:         "E6",
		Title:      "Per-node routing state vs network size",
		PaperClaim: "state is (2^b-1)*ceil(log_2b N) + 2l entries (logarithmic)",
		Table:      tbl,
		Notes: []string{
			"measured RT entries fall below the formula because only ~N/16^r candidates exist for deep rows",
		},
	}
}

// E7JoinCost reproduces the join-cost claim of section 2.2: restoring the
// invariants after an arrival takes O(log_2b N) messages.
func E7JoinCost(scale Scale, seed int64) Result {
	sizes := []int{64, 256, 1024}
	if scale == Full {
		sizes = []int{256, 1024, 4096, 16384}
	}
	tbl := &metrics.Table{Header: []string{"N before join", "messages", "log16 N"}}
	msgs := make([]uint64, len(sizes))
	forEachPoint(len(sizes), func(i int) {
		n := sizes[i]
		c, _ := mustRoutingCluster(n-1, seed, nil)
		c.Net.ResetCounters()
		c.Topo.Place()
		ep := c.Net.NewEndpoint()
		nd := pastry.New(c.Opts.Pastry, id.Rand(uint64(seed)+0xbeef), ep, ep.Clock(), nil)
		done := false
		nd.Join([]string{simnet.Addr(0)}, func(error) { done = true })
		c.Net.RunUntil(func() bool { return done }, 10_000_000)
		c.Net.RunUntilIdle()
		msgs[i] = c.Net.Messages()
	})
	for i, n := range sizes {
		tbl.AddRow(n-1, msgs[i], math.Log(float64(n))/math.Log(16))
	}
	return Result{
		ID:         "E7",
		Title:      "Messages exchanged to integrate one new node",
		PaperClaim: "invariants restored with O(log_2b N) messages",
		Table:      tbl,
		Notes: []string{
			"counts all traffic including the announce fan-out to the new node's tables, so the constant is ~2l + (2^b-1)·log16 N",
		},
	}
}

// E11MaliciousRouting reproduces the randomized-routing claim of section
// 2.2 ("Fault-tolerance"): deterministic retries keep hitting the same
// malicious node, randomized retries eventually route around it.
func E11MaliciousRouting(scale Scale, seed int64) Result {
	n, trials := 256, 200
	if scale == Full {
		n, trials = 2000, 1000
	}
	fracs := []float64{0.05, 0.10, 0.20, 0.30}
	tbl := &metrics.Table{Header: []string{"malicious", "mode", "1 try", "<=3 tries", "<=8 tries"}}
	type config struct {
		f         float64
		randomize bool
	}
	var grid []config
	for _, f := range fracs {
		for _, randomize := range []bool{false, true} {
			grid = append(grid, config{f, randomize})
		}
	}
	type point struct{ succ1, succ3, succ8 int }
	pts := make([]point, len(grid))
	forEachPoint(len(grid), func(i int) {
		f, randomize := grid[i].f, grid[i].randomize
		c, recs := mustRoutingCluster(n, seed, func(o *cluster.Options) {
			o.Pastry.Randomize = randomize
			o.Pastry.Bias = 0.7
		})
		// Mark a fraction of nodes malicious: they accept traffic but
		// silently drop anything they should forward.
		bad := make(map[int]bool)
		for len(bad) < int(f*float64(n)) {
			j := c.RandomLiveNode()
			if !bad[j] {
				bad[j] = true
				c.Eps[j].SetSendFilter(func(to string, m wire.Msg) bool {
					_, isRouted := m.(wire.Routed)
					return isRouted
				})
			}
		}
		for t := 0; t < trials; t++ {
			key := id.Rand(uint64(seed)<<32 + uint64(t))
			from := c.RandomLiveNode()
			for bad[from] {
				from = c.RandomLiveNode()
			}
			// The destination may itself be malicious; that's fine —
			// it still delivers to its own application.
			attempt := 0
			ok := false
			for attempt < 8 && !ok {
				attempt++
				_, ok = probeRoute(c, recs, from, key, uint64(t)<<8|uint64(attempt))
			}
			if ok {
				if attempt == 1 {
					pts[i].succ1++
				}
				if attempt <= 3 {
					pts[i].succ3++
				}
				if attempt <= 8 {
					pts[i].succ8++
				}
			}
		}
	})
	for i, g := range grid {
		mode := "deterministic"
		if g.randomize {
			mode = "randomized"
		}
		tbl.AddRow(fmt.Sprintf("%.0f%%", g.f*100), mode,
			frac(pts[i].succ1, trials), frac(pts[i].succ3, trials), frac(pts[i].succ8, trials))
	}
	return Result{
		ID:         "E11",
		Title:      fmt.Sprintf("Lookup success vs fraction of malicious (drop-all) nodes (N=%d)", n),
		PaperClaim: "randomized routing lets retried queries route around malicious nodes",
		Table:      tbl,
	}
}

// E13ChordComparison contrasts Pastry with the Chord baseline on the same
// topology: similar hop counts, but Chord ignores proximity so its routes
// travel much farther (related-work section: Chord "makes no explicit
// effort to achieve good network locality").
func E13ChordComparison(scale Scale, seed int64) Result {
	n, trials := 512, 400
	if scale == Full {
		n, trials = 5000, 2000
	}
	c, recs := mustRoutingCluster(n, seed, nil)
	ids := make([]id.Node, n)
	idxs := make([]int, n)
	for i, nd := range c.Nodes {
		ids[i] = nd.ID()
		idxs[i] = i
	}
	ring := chord.Build(ids, idxs)
	var pHops, pRatio, cHops, cRatio metrics.Summary
	for t := 0; t < trials; t++ {
		key := id.Rand(uint64(seed)<<32 + uint64(t))
		from := c.RandomLiveNode()
		d, ok := probeRoute(c, recs, from, key, uint64(t))
		if !ok || d.Routed.Hops == 0 {
			continue
		}
		direct := c.Topo.Distance(from, d.NodeIndex)
		if direct > 0 {
			pHops.Add(float64(d.Routed.Hops))
			pRatio.Add(d.Routed.Distance / direct)
		}
		// Chord on the same pair.
		start := ring.Nodes()[0]
		for _, cn := range ring.Nodes() {
			if cn.Index == from {
				start = cn
				break
			}
		}
		hops, dist, final := ring.Route(start, key, c.Topo.Distance)
		if hops > 0 {
			directC := c.Topo.Distance(from, final.Index)
			if directC > 0 {
				cHops.Add(float64(hops))
				cRatio.Add(dist / directC)
			}
		}
	}
	tbl := &metrics.Table{Header: []string{"protocol", "avg hops", "avg distance ratio"}}
	tbl.AddRow("Pastry", pHops.Mean(), pRatio.Mean())
	tbl.AddRow("Chord", cHops.Mean(), cRatio.Mean())
	return Result{
		ID:         "E13",
		Title:      fmt.Sprintf("Pastry vs Chord: hops and route-distance penalty (N=%d)", n),
		PaperClaim: "both are O(log N) hops; Pastry's locality heuristic yields much shorter routes",
		Table:      tbl,
	}
}

// A1ParameterAblation sweeps the Pastry design parameters b and l called
// out in section 2.2, showing the state-vs-hops tradeoff.
func A1ParameterAblation(scale Scale, seed int64) Result {
	n, trials := 512, 300
	if scale == Full {
		n, trials = 4096, 1000
	}
	tbl := &metrics.Table{Header: []string{"b", "l", "avg hops", "avg RT entries", "avg leaf"}}
	type config struct{ b, l int }
	var grid []config
	for _, b := range []int{2, 3, 4} {
		for _, l := range []int{16, 32} {
			grid = append(grid, config{b, l})
		}
	}
	type point struct{ hops, rt, leaf metrics.Summary }
	pts := make([]point, len(grid))
	forEachPoint(len(grid), func(i int) {
		c, recs := mustRoutingCluster(n, seed, func(o *cluster.Options) {
			o.Pastry.B = grid[i].b
			o.Pastry.L = grid[i].l
		})
		for t := 0; t < trials; t++ {
			key := id.Rand(uint64(seed)<<32 + uint64(t))
			if d, ok := probeRoute(c, recs, c.RandomLiveNode(), key, uint64(t)); ok {
				pts[i].hops.Add(float64(d.Routed.Hops))
			}
		}
		for _, nd := range c.Nodes {
			r, lv, _ := nd.StateSize()
			pts[i].rt.Add(float64(r))
			pts[i].leaf.Add(float64(lv))
		}
	})
	for i, g := range grid {
		tbl.AddRow(g.b, g.l, pts[i].hops.Mean(), pts[i].rt.Mean(), pts[i].leaf.Mean())
	}
	return Result{
		ID:         "A1",
		Title:      fmt.Sprintf("Ablation: digit size b and leaf-set size l (N=%d)", n),
		PaperClaim: "b trades per-node state for hops (b=4, l=32 are the paper's typical values)",
		Table:      tbl,
	}
}

// E14ReplicaDiversity reproduces the diversity claim of section 2: "with
// high probability, the set of nodes that store the file is diverse in
// geographic location, administration, ownership...". NodeIds come from
// hashes of card keys, so adjacent nodeIds land in unrelated parts of the
// topology; the experiment measures how many distinct stub and transit
// domains a fileId's k-replica set spans, against the ideal of k distinct.
func E14ReplicaDiversity(scale Scale, seed int64) Result {
	n, files := 256, 150
	if scale == Full {
		n, files = 4000, 1000
	}
	k := 5
	c, _ := mustRoutingCluster(n, seed, nil)
	var stubs, transits metrics.Summary
	sameStubPairs, pairs := 0, 0
	for f := 0; f < files; f++ {
		key := id.Rand(uint64(seed)<<32 + uint64(f))
		set := c.KClosest(key, k)
		stubSeen := map[int]bool{}
		transitSeen := map[int]bool{}
		var stubList []int
		for _, ref := range set {
			idx := c.IndexByID(ref.ID)
			if idx < 0 {
				continue
			}
			stub := c.Topo.Stub(idx)
			stubSeen[stub] = true
			transitSeen[c.Topo.Transit(idx)] = true
			stubList = append(stubList, stub)
		}
		stubs.Add(float64(len(stubSeen)))
		transits.Add(float64(len(transitSeen)))
		for i := 0; i < len(stubList); i++ {
			for j := i + 1; j < len(stubList); j++ {
				pairs++
				if stubList[i] == stubList[j] {
					sameStubPairs++
				}
			}
		}
	}
	totalStubs := float64(c.Topo.NumStubs())
	tbl := &metrics.Table{Header: []string{"metric", "value", "ideal"}}
	tbl.AddRow("avg distinct stub domains per replica set", stubs.Mean(), k)
	tbl.AddRow("avg distinct transit domains per replica set", transits.Mean(), "")
	tbl.AddRow("replica pairs sharing a stub", frac(sameStubPairs, pairs),
		fmt.Sprintf("%.4f (random)", float64(1)/totalStubs))
	return Result{
		ID:         "E14",
		Title:      fmt.Sprintf("Topological diversity of k=%d replica sets (N=%d)", k, n),
		PaperClaim: "the set of nodes that store a file is diverse (hashed nodeIds decorrelate adjacency from location)",
		Table:      tbl,
	}
}
