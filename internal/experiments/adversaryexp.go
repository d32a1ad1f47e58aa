package experiments

// Adversarial-resilience experiments E18-E21: the paper's section 2.2
// fault model ("nodes may be faulty or malicious ... accept traffic but
// do not forward it correctly") exercised against the client-side
// defenses — retrying lookups with route diversity, hop budgets,
// receipt verification and storage audits — plus two correlated-stress
// scenarios: a regional (transit-domain) outage and a flash crowd.
//
// All four are phase experiments; E18, E19 and E21 build one cluster per
// row and run their rows at once. Adversarial decisions are pure
// functions of (seed, node index) plus each node's own traffic (package
// adversary), the driver draws from the cluster RNG, and churn traces
// are pure functions of their seed, so every table is reproducible from
// its seed.

import (
	"fmt"
	"strings"
	"time"

	"past/internal/adversary"
	"past/internal/churn"
	"past/internal/cluster"
	"past/internal/id"
	"past/internal/metrics"
	"past/internal/past"
	"past/internal/wire"
	"past/internal/workload"
)

// advPASTConfig sizes PAST nodes for the adversary experiments: caching
// off so a retried phase cannot profit from caches warmed by the
// baseline phase, and a short request timeout so timed-out attempts
// (the dropper's signature) retry quickly.
func advPASTConfig() past.Config {
	cfg := defaultPASTConfig()
	cfg.Caching = false
	cfg.RequestTimeout = 3 * time.Second
	return cfg
}

// Defense knobs the "retry on" phases use. Six retries keep the failure
// probability below 5% even when ~40% of per-attempt paths die (the
// 30%-dropper operating point routes 2-3 hops, each surviving w.p. 0.7).
const (
	advRetries   = 8
	advBackoff   = 150 * time.Millisecond
	advHopBudget = 6
)

// advPopulate inserts files 4 KiB files from random honest nodes and
// returns their ids. Adversaries are installed after population, so the
// stored state is clean and only the measured workload sees them.
func advPopulate(pc *cluster.PAST, files int, prefix string) []id.File {
	var ids []id.File
	for f := 0; len(ids) < files && f < 2*files; f++ {
		i := pc.Rand().Intn(len(pc.PASTNodes()))
		res := pc.Insert(i, pc.Card(i), fmt.Sprintf("%s-%d", prefix, f), make([]byte, 4096), 0)
		if res.Err == nil {
			ids = append(ids, res.FileID)
		}
	}
	return ids
}

// honestNodes returns the cluster indexes outside the malicious set.
func honestNodes(n int, bad []int) []int {
	isBad := make(map[int]bool, len(bad))
	for _, i := range bad {
		isBad[i] = true
	}
	honest := make([]int, 0, n-len(bad))
	for i := 0; i < n; i++ {
		if !isBad[i] {
			honest = append(honest, i)
		}
	}
	return honest
}

// advLookups runs count lookups of random files from random honest
// clients and reports successes and the hop summary of the successes.
func advLookups(pc *cluster.PAST, honest []int, ids []id.File, count int, es *expSeries) (ok int, hops metrics.Summary) {
	for l := 0; l < count; l++ {
		client := honest[pc.Rand().Intn(len(honest))]
		f := ids[pc.Rand().Intn(len(ids))]
		t0 := es.now()
		lr := pc.Lookup(client, f)
		es.lookup(es.now()-t0, lr.Hops, lr.Err)
		if lr.Err == nil {
			ok++
			hops.Add(float64(lr.Hops))
		}
	}
	return ok, hops
}

// E18AdversarialLookups measures lookup availability against the two
// traffic adversaries of section 2.2 — nodes that accept requests but
// silently drop them, and nodes that forward them to wrong hops — as
// the malicious fraction grows, with the client defenses off and on.
// The defense is randomized: each retry re-enters the ring through a
// different neighbor (the paper's randomized-routing argument), so a
// fixed set of bad hops cannot kill every attempt, and a hop budget
// converts endless misrouting into a fast abort-and-retry.
func E18AdversarialLookups(scale Scale, seed int64) Result {
	n, files, lookups := 64, 24, 60
	if scale == Full {
		n, files, lookups = 160, 96, 120
	}
	cfg := advPASTConfig()
	// k=5 (the paper's usual replication degree) rather than the storage
	// experiments' k=3: with a malicious root, a retry survives only if it
	// strays into an honest replica holder on the way in, and that rescue
	// probability is what replication degree buys.
	cfg.K = 5
	type row struct {
		policy adversary.Policy
		frac   float64
	}
	rows := []row{
		{adversary.Dropper, 0}, {adversary.Dropper, 0.2}, {adversary.Dropper, 0.3}, {adversary.Dropper, 0.4},
		{adversary.Misrouter, 0.2}, {adversary.Misrouter, 0.3}, {adversary.Misrouter, 0.4},
	}
	tbl := &metrics.Table{Header: []string{"policy", "malicious", "success (no retry)", "hops", "success (retry)", "hops", "retries", "aborts"}}
	type point struct {
		cells  []any
		series strings.Builder
	}
	pts := make([]point, len(rows))
	forEachPoint(len(rows), func(i int) {
		r, pt := rows[i], &pts[i]
		pc := mustPAST(n, seed, cfg, nil, nil)
		ids := advPopulate(pc, files, "adv")
		bad := adversary.Pick(seed+101, n, r.frac)
		for _, i := range bad {
			adversary.Install(r.policy, seed+102, pc.Eps[i], pc.Node(i), 1)
		}
		honest := honestNodes(n, bad)
		// One recorder per row; the defense phase flip shows up as a step
		// in lookup_ok and the past series' lookup_retries deltas.
		es := newExpSeries(pc, &pt.series,
			[2]string{"exp", "E18"}, [2]string{"policy", r.policy.String()},
			[2]string{"frac", fmt.Sprintf("%.2f", r.frac)}, [2]string{"scale", scale.String()})
		// Phase 1: defenses off (the build config has LookupRetries=0).
		offOK, offHops := advLookups(pc, honest, ids, lookups, es)
		// Phase 2: same overlay, same adversaries, defenses on.
		for _, pn := range pc.PASTNodes() {
			pn.SetResilience(advRetries, advBackoff, advHopBudget)
		}
		onOK, onHops := advLookups(pc, honest, ids, lookups, es)
		es.finish()
		var retries, aborts int
		for _, pn := range pc.PASTNodes() {
			st := pn.Stats()
			retries += st.LookupRetries
			aborts += st.RouteAborts
		}
		pt.cells = []any{r.policy.String(), fmt.Sprintf("%.0f%%", r.frac*100),
			frac(offOK, lookups), fmt.Sprintf("%.2f", offHops.Mean()),
			frac(onOK, lookups), fmt.Sprintf("%.2f", onHops.Mean()),
			retries, aborts}
	})
	var series strings.Builder
	for i := range pts {
		tbl.AddRow(pts[i].cells...)
		series.WriteString(pts[i].series.String())
	}
	return Result{
		ID:         "E18",
		Title:      fmt.Sprintf("Lookup availability vs malicious-node fraction (N=%d, k=%d, %d lookups/phase)", n, cfg.K, lookups),
		PaperClaim: "randomized routing decisions make it hard for malicious nodes to keep a client from reaching a replica",
		Table:      tbl,
		Notes: []string{
			fmt.Sprintf("defense: up to %d retries, each via a different neighbor, backoff base %s, hop budget %d", advRetries, advBackoff, advHopBudget),
			"droppers discard routed requests they should forward but still answer directly; misrouters bounce requests to random leaf-set members",
		},
		SeriesLP: series.String(),
	}
}

// E19ReceiptContainment measures how the storage defenses of section 2.1
// contain cheating storage nodes. Forgers return receipts whose
// signatures fail the client's receipt verification, so the client simply
// never counts them and re-targets the insert (file diversion).
// Free-riders sign honestly but discard the data, which only a content
// audit — a nonce challenge against the stored bytes — exposes.
func E19ReceiptContainment(scale Scale, seed int64) Result {
	n, files := 40, 20
	if scale == Full {
		n, files = 120, 60
	}
	cfg := advPASTConfig()
	type row struct {
		policy adversary.Policy
		frac   float64
	}
	rows := []row{
		{adversary.Forger, 0.1}, {adversary.Forger, 0.2},
		{adversary.FreeRider, 0.1}, {adversary.FreeRider, 0.2},
	}
	tbl := &metrics.Table{Header: []string{"policy", "malicious", "inserts ok", "forged rcpts dropped", "diversion retries", "cheats flagged", "false alarms", "lookup success"}}
	cells := make([][]any, len(rows))
	forEachPoint(len(rows), func(ri int) {
		r := rows[ri]
		pc := mustPAST(n, seed, cfg, nil, nil)
		bad := adversary.Pick(seed+201, n, r.frac)
		isBad := make(map[int]bool, len(bad))
		for _, i := range bad {
			isBad[i] = true
			adversary.Install(r.policy, seed+202, pc.Eps[i], pc.Node(i), 1)
		}
		honest := honestNodes(n, bad)
		// Inserts from honest clients, against cheating storage nodes.
		insertsOK, divRetries := 0, 0
		var stored []past.InsertResult
		for f := 0; f < files; f++ {
			i := honest[pc.Rand().Intn(len(honest))]
			res := pc.Insert(i, pc.Card(i), fmt.Sprintf("rc-%d", f), make([]byte, 4096), 0)
			divRetries += res.Retries
			if res.Err == nil {
				insertsOK++
				stored = append(stored, res)
			}
		}
		forged := 0
		for _, i := range honest {
			forged += pc.Node(i).Stats().ForgedReceiptsDropped
		}
		// Audit sweep: an honest holder of each file challenges every other
		// node the client holds a receipt from. A failed audit of a cheat is
		// a detection; a failed audit of an honest holder is a false alarm.
		cheatsFlagged, falseAlarms := 0, 0
		for _, res := range stored {
			auditor := -1
			for _, rc := range res.Receipts {
				i := pc.IndexByID(rc.StoredBy.ID)
				if i >= 0 && !isBad[i] {
					if _, err := pc.Node(i).Store().Get(res.FileID); err == nil {
						auditor = i
						break
					}
				}
			}
			if auditor < 0 {
				continue
			}
			for _, rc := range res.Receipts {
				i := pc.IndexByID(rc.StoredBy.ID)
				if i < 0 || i == auditor {
					continue
				}
				held, err := syncAudit(pc, auditor, rc.StoredBy, res.FileID)
				if err != nil {
					continue
				}
				if !held && isBad[i] {
					cheatsFlagged++
				}
				if !held && !isBad[i] {
					falseAlarms++
				}
			}
		}
		// Reads still succeed off the honest replicas.
		var fileIDs []id.File
		for _, res := range stored {
			fileIDs = append(fileIDs, res.FileID)
		}
		lookups := 2 * len(fileIDs)
		lookOK := 0
		if lookups > 0 {
			lookOK, _ = advLookups(pc, honest, fileIDs, lookups, nil)
		}
		cells[ri] = []any{r.policy.String(), fmt.Sprintf("%.0f%%", r.frac*100),
			fmt.Sprintf("%d/%d", insertsOK, files), forged, divRetries,
			cheatsFlagged, falseAlarms, frac(lookOK, lookups)}
	})
	for _, row := range cells {
		tbl.AddRow(row...)
	}
	return Result{
		ID:         "E19",
		Title:      fmt.Sprintf("Containment of forged receipts and storage free-riders (N=%d, k=%d, %d inserts)", n, cfg.K, files),
		PaperClaim: "store receipts prevent a malicious node from claiming storage it does not provide; smartcard signatures make forgeries detectable",
		Table:      tbl,
		Notes: []string{
			"forgers are contained at insert time: receipts are verified as they arrive, so theirs are dropped and the client diverts the file elsewhere",
			"free-riders sign honestly and are only exposed by the nonce content audit; reads survive on the k-1 honest replicas",
		},
	}
}

// syncAudit drives one content audit to completion.
func syncAudit(pc *cluster.PAST, auditor int, peer wire.NodeRef, f id.File) (bool, error) {
	var res *bool
	if err := pc.Node(auditor).AuditPeer(peer, f, func(ok bool) { res = &ok }); err != nil {
		return false, err
	}
	if !pc.Await(func() bool { return res != nil }) {
		return false, past.ErrTimeout
	}
	return *res, nil
}

// E20RegionalOutage crashes an entire transit domain at once — the
// correlated failure a single backbone cut produces — while background
// arrivals join asynchronously, then heals it and measures how fast the
// replica invariant recovers. Crashed nodes keep their disks, so
// recovery is leaf-set repair plus anti-entropy, not full re-insertion.
func E20RegionalOutage(scale Scale, seed int64) Result {
	n, files := 48, 24
	if scale == Full {
		n, files = 160, 96
	}
	outageAt, healAt, horizon := 5*time.Second, 25*time.Second, 45*time.Second
	cfg := churnPASTConfig()
	cp := buildChurnPAST(n, seed, cfg, nil)
	var ids []id.File
	for f := 0; len(ids) < files && f < 2*files; f++ {
		res := cp.Insert(cp.Rand().Intn(n), nil, fmt.Sprintf("out-%d", f), make([]byte, 1024), 0)
		if res.Err == nil {
			ids = append(ids, res.FileID)
		}
	}
	// Let diverted replicas and anti-entropy settle so the pre-outage
	// phase measures the steady state, not the insert transient.
	cp.RunSettle(3 * time.Second)
	countHealthy := func() (atLeast1, atLeastK int) {
		for _, f := range ids {
			c := cp.LiveVerifiedCopies(f)
			if c >= 1 {
				atLeast1++
			}
			if c >= cfg.K {
				atLeastK++
			}
		}
		return
	}
	// Telemetry opens on the settled steady state: the series shows the
	// outage dip (live_nodes, lookup_ok, replicas ge_k) and the post-heal
	// recovery window by window.
	var series strings.Builder
	es := newExpSeries(cp, &series,
		[2]string{"exp", "E20"}, [2]string{"scale", scale.String()})
	es.trackReplicas(func() (int, int) { return countHealthy() }, func() int { return len(ids) })
	dom := cp.Topo.Transit(0)
	tr := &churn.Trace{Events: []churn.Event{
		{At: outageAt, Kind: churn.Outage, Node: dom},
		{At: 10 * time.Second, Kind: churn.Arrive},
		{At: 15 * time.Second, Kind: churn.Arrive},
		{At: healAt, Kind: churn.Heal, Node: dom},
		{At: 30 * time.Second, Kind: churn.Arrive},
		{At: 35 * time.Second, Kind: churn.Arrive},
	}}
	d := churn.NewDriver(cp.Cluster, tr)
	d.AsyncJoins = true
	d.MinLive = n / 4
	type phase struct {
		name     string
		from, to time.Duration
	}
	// Phase ends stop one tick short of the next trace event, so each
	// phase's health count reflects its own regime: the tick that applies
	// the outage (or the heal) belongs to the phase it begins.
	phases := []phase{
		{"before outage", 0, outageAt - time.Second},
		{"during outage", outageAt - time.Second, healAt - time.Second},
		{"after heal", healAt - time.Second, horizon},
	}
	tbl := &metrics.Table{Header: []string{"phase", "lookups", "success", "avg hops", "files >= 1 copy", "files >= k"}}
	outageSize, recoverAt := 0, time.Duration(0)
	for _, ph := range phases {
		ok, total := 0, 0
		var hops metrics.Summary
		for tick := ph.from + time.Second; tick <= ph.to; tick += time.Second {
			d.Advance(tick)
			if outageSize == 0 && tick > outageAt {
				for i := 0; i < n; i++ {
					if cp.Down(i) && cp.Topo.Transit(i) == dom {
						outageSize++
					}
				}
			}
			if recoverAt == 0 && tick >= healAt {
				if _, atLeastK := countHealthy(); atLeastK == len(ids) {
					recoverAt = tick
				}
			}
			for l := 0; l < 2; l++ {
				f := ids[cp.Rand().Intn(len(ids))]
				t0 := es.now()
				lr := cp.Lookup(cp.RandomLiveNode(), f)
				es.lookup(es.now()-t0, lr.Hops, lr.Err)
				total++
				if lr.Err == nil {
					ok++
					hops.Add(float64(lr.Hops))
				}
			}
		}
		atLeast1, atLeastK := countHealthy()
		tbl.AddRow(ph.name, total, frac(ok, total), fmt.Sprintf("%.2f", hops.Mean()),
			fmt.Sprintf("%d/%d", atLeast1, len(ids)), fmt.Sprintf("%d/%d", atLeastK, len(ids)))
	}
	es.finish()
	recovery := "not within horizon"
	if recoverAt > 0 {
		recovery = fmt.Sprintf("%s after heal", recoverAt-healAt)
	}
	return Result{
		ID:         "E20",
		Title:      fmt.Sprintf("Regional outage: transit domain %d dark from %s to %s (N=%d, k=%d)", dom, outageAt, healAt, n, cfg.K),
		PaperClaim: "replicas are spread over nodes with diverse geographic location and network attachment, so a localized fault leaves files available",
		Table:      tbl,
		Notes: []string{
			fmt.Sprintf("outage crashed %d nodes at once; crashed nodes keep their stores and rejoin on heal", outageSize),
			fmt.Sprintf("full k-replica invariant restored: %s; %d async arrivals joined during the run", recovery, d.Stats.Arrivals),
		},
		SeriesLP: series.String(),
	}
}

// E21FlashCrowd subjects one previously cold file to a sudden read storm
// (rank-0 Zipf popularity) and measures what the unpinned cache tier
// buys: lookups that terminate at caches along the route, shorter
// routes, and read load spread over many nodes instead of concentrating
// on the file's k replica holders.
func E21FlashCrowd(scale Scale, seed int64) Result {
	n, files, reqs := 40, 24, 240
	if scale == Full {
		n, files, reqs = 120, 64, 960
	}
	tbl := &metrics.Table{Header: []string{"caching", "lookups", "success", "avg hops", "cache hits", "cache pushes", "top-node share"}}
	modes := []bool{false, true} // caching off, then on
	rows := make([][]any, len(modes))
	forEachPoint(len(modes), func(i int) {
		caching := modes[i]
		cfg := defaultPASTConfig()
		cfg.Caching = caching
		pc := mustPAST(n, seed, cfg, nil, nil)
		ids := advPopulate(pc, files, "fc")
		viral := len(ids) - 1 // an unpopular file until the crowd arrives
		fcw := workload.NewFlashCrowd(seed+31, 1.2, len(ids), viral)
		ok, cached := 0, 0
		var hops metrics.Summary
		for l := 0; l < reqs; l++ {
			client := pc.Rand().Intn(n)
			lr := pc.Lookup(client, ids[fcw.Draw()])
			if lr.Err == nil {
				ok++
				hops.Add(float64(lr.Hops))
				if lr.Cached {
					cached++
				}
			}
		}
		pushes, served, maxServed := 0, 0, 0
		for _, pn := range pc.PASTNodes() {
			st := pn.Stats()
			pushes += st.CachePushes
			served += st.LookupsServed
			if st.LookupsServed > maxServed {
				maxServed = st.LookupsServed
			}
		}
		rows[i] = []any{onOff(caching), reqs, frac(ok, reqs), fmt.Sprintf("%.2f", hops.Mean()),
			frac(cached, ok), pushes, frac(maxServed, served)}
	})
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return Result{
		ID:         "E21",
		Title:      fmt.Sprintf("Flash crowd on one cold file (N=%d, %d requests, Zipf body s=1.2)", n, reqs),
		PaperClaim: "cached copies created along lookup paths absorb high demand for popular files and balance the query load",
		Table:      tbl,
		Notes: []string{
			"the viral file takes popularity rank 0; the rest of the request mix is unchanged Zipf traffic",
			"top-node share is the busiest node's fraction of all lookups served (replica + cache)",
		},
	}
}
