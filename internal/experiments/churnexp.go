package experiments

// Churn experiments E15-E17: the paper's "Persistence" claim (section
// 2.1) exercised under continuous membership change. All three are
// phase experiments (E15 and E16 build one cluster per row and run their
// rows at once); the churn schedule itself comes from internal/churn,
// whose traces are a pure function of their seed.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"past/internal/churn"
	"past/internal/cluster"
	"past/internal/id"
	"past/internal/metrics"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/simnet"
	"past/internal/wire"
)

// ChurnKnobs are the shared parameters of the churn experiments,
// exposed so cmd/pastsim can override them from the command line.
// Changing them changes the tables (they are part of the scenario, like
// the seed); the defaults are the canonical values the CI tables use.
type ChurnKnobs struct {
	// RateScale multiplies every experiment's arrival rates.
	RateScale float64
	// MedianSession is the median node session length (lognormal body).
	MedianSession time.Duration
	// CrashFrac is the fraction of departures that are silent crashes
	// rather than graceful leaves.
	CrashFrac float64
}

// ChurnDefaults is what CI and the recorded tables use.
func ChurnDefaults() ChurnKnobs {
	return ChurnKnobs{RateScale: 1, MedianSession: 15 * time.Second, CrashFrac: 0.5}
}

// Churn is the live knob set (see cmd/pastsim's -churn-* flags).
var Churn = ChurnDefaults()

// churnPASTConfig sizes PAST nodes for the churn experiments: small
// files, failure detection fast enough that a Small-scale horizon sees
// full repair cycles.
func churnPASTConfig() past.Config {
	cfg := defaultPASTConfig()
	cfg.Caching = false // measure replica maintenance, not caches
	cfg.RequestTimeout = 5 * time.Second
	return cfg
}

// churnPastryConfig enables the keep-alive failure detector the churn
// scenarios rely on.
func churnPastryConfig() pastry.Config {
	cfg := pastry.DefaultConfig()
	cfg.KeepAlive = 500 * time.Millisecond
	cfg.FailTimeout = 1500 * time.Millisecond
	return cfg
}

// buildChurnPAST constructs an n-node PAST network ready for mid-run
// membership changes (keep-alive failure detection, probes installed).
func buildChurnPAST(n int, seed int64, cfg past.Config, mut func(*cluster.Options)) *cluster.PAST {
	cp := mustPAST(n, seed, cfg, nil, func(o *cluster.Options) {
		o.Pastry = churnPastryConfig()
		if mut != nil {
			mut(o)
		}
	})
	cp.EnableProbes()
	return cp
}

// churnTrace derives one experiment's trace from the shared knobs.
func churnTrace(seed int64, initial int, rate float64, session, horizon time.Duration) *churn.Trace {
	return churn.Generate(churn.Config{
		Seed:        seed,
		Initial:     initial,
		ArrivalRate: rate * Churn.RateScale,
		Session:     churn.LognormalSessions(session),
		CrashFrac:   Churn.CrashFrac,
		Horizon:     horizon,
		MinLive:     initial / 2,
	})
}

// E15ChurnAvailability measures lookup success and route quality while
// nodes continuously arrive, leave and crash — the operational face of
// the persistence claim: the storage invariant keeps files reachable
// through membership change.
func E15ChurnAvailability(scale Scale, seed int64) Result {
	n, files, horizon := 40, 24, 40*time.Second
	rates := []float64{0, 0.1, 0.25, 0.5} // arrivals per virtual second
	var tier func(*cluster.Options)
	var notes []string
	switch scale {
	case Full:
		n, files, horizon = 200, 120, 150*time.Second
	case Large, Huge:
		// Huge reuses the Large churn sizing: the keep-alive failure
		// detector at 100k nodes would spend the whole run heartbeating
		// (100k nodes x 32 leaf members every keep-alive interval), which
		// measures the detector, not availability under churn.
		n, files, horizon = 20000, 60, 15*time.Second
		rates = []float64{0, 0.25}
		tier = func(o *cluster.Options) {
			largeTier(o)
			// Slow the detector to keep the heartbeat load proportionate
			// to the shorter tier horizon.
			o.Pastry.KeepAlive = time.Second
			o.Pastry.FailTimeout = 3 * time.Second
		}
		if scale == Huge {
			notes = append(notes, "huge tier runs the large (20k) churn sizing: keep-alive heartbeat load dominates beyond it")
		}
	}
	cfg := churnPASTConfig()
	tbl := &metrics.Table{Header: []string{"arrivals/min", "arrived", "departed", "live at end", "lookups", "success", "avg hops"}}
	type point struct {
		cells  []any
		events uint64
		series strings.Builder
	}
	pts := make([]point, len(rates))
	forEachPoint(len(rates), func(i int) {
		rate, pt := rates[i], &pts[i]
		cp := buildChurnPAST(n, seed, cfg, tier)
		var ids []id.File
		for f := 0; len(ids) < files && f < 2*files; f++ {
			res := cp.Insert(cp.Rand().Intn(n), nil, fmt.Sprintf("a-%d", f), make([]byte, 1024), 0)
			if res.Err == nil {
				ids = append(ids, res.FileID)
			}
		}
		// Telemetry attaches after population so the series opens on the
		// steady state; the churn dip then stands out per window.
		es := newExpSeries(cp, &pt.series,
			[2]string{"exp", "E15"}, [2]string{"rate", fmt.Sprintf("%.2f", rate)},
			[2]string{"scale", scale.String()})
		if scale == Small || scale == Full {
			// Replica health sweeps every live node's store per tracked
			// file — fine here, skipped on the 20k-node tiers.
			es.trackReplicas(healthCounter(&ids, cfg.K, cp.LiveVerifiedCopies))
		}
		d := churn.NewDriver(cp.Cluster, churnTrace(seed+21, n, rate, Churn.MedianSession, horizon))
		d.MinLive = n / 2
		ok, total := 0, 0
		var hops metrics.Summary
		for tick := time.Second; tick <= horizon; tick += time.Second {
			d.Advance(tick)
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
		es.finish()
		pt.cells = []any{fmt.Sprintf("%.0f", rate*Churn.RateScale*60),
			d.Stats.Arrivals, d.Stats.Leaves + d.Stats.Crashes, cp.LiveCount(),
			total, frac(ok, total), hops.Mean()}
		pt.events = cp.Net.Messages()
	})
	var events uint64
	var series strings.Builder
	for i := range pts {
		tbl.AddRow(pts[i].cells...)
		events += pts[i].events
		series.WriteString(pts[i].series.String())
	}
	return Result{
		ID:         "E15",
		Title:      fmt.Sprintf("Lookup availability under continuous churn (N=%d, k=%d, median session %s)", n, cfg.K, Churn.MedianSession),
		PaperClaim: "the storage invariant is maintained as nodes join, leave and fail, so files stay reachable",
		Table:      tbl,
		Notes: append([]string{
			fmt.Sprintf("crash fraction %.0f%% of departures; departures floored at N/2 live", Churn.CrashFrac*100),
		}, notes...),
		Nodes:    n,
		Events:   events,
		SeriesLP: series.String(),
	}
}

// pushAll is E16's comparator: the replica maintenance PAST ran before
// anti-entropy, kept beside the experiment that measures it. On every
// leaf-set change a holder pushes each primary body it stores to every
// other member of that file's replica set, and receivers drop what they
// already hold; there is no periodic sweep. It adds the bodies it pushes
// and their frame bytes to sent.
type pushAll struct {
	*past.Node
	sent *past.Stats
}

// Maintain overrides the embedded node's periodic anti-entropy sweep.
func (*pushAll) Maintain() {}

// LeafSetChanged pushes every body this node is a replica holder of.
func (p *pushAll) LeafSetChanged() {
	pn := p.Pastry()
	self := pn.Ref()
	isSelf := func(r wire.NodeRef) bool { return r.ID == self.ID }
	for _, it := range p.Store().Items() {
		set := pn.ClosestK(it.Cert.FileID.Key(), it.Cert.Replicas)
		if it.Diverted || !slices.ContainsFunc(set, isSelf) {
			continue // the primary handles diverted copies; a stale extra copy acts as cache
		}
		for _, ref := range set {
			if !isSelf(ref) {
				m := wire.Replicate{Cert: it.Cert, Data: it.Data, From: self}
				p.sent.Replications++
				p.sent.MaintenanceBytes += int64(wire.FrameLen(self.Addr, m))
				pn.Send(ref, m)
			}
		}
	}
}

// E16MaintenanceBandwidth compares the replica-maintenance cost of
// digest-based anti-entropy against the push-all comparator over the
// same churn trace: same membership events, same files, two maintenance
// protocols.
func E16MaintenanceBandwidth(scale Scale, seed int64) Result {
	n, files, horizon := 40, 32, 30*time.Second
	rate := 0.25
	if scale == Full {
		n, files, horizon = 160, 150, 120*time.Second
	}
	tbl := &metrics.Table{Header: []string{"scheme", "maint msgs", "maint KiB", "bodies", "offers", "requests", "files >= k"}}
	schemes := []string{"anti-entropy", "push-all (legacy)"}
	rows := make([][]any, len(schemes))
	forEachPoint(len(schemes), func(i int) {
		cfg := churnPASTConfig()
		cp := buildChurnPAST(n, seed, cfg, nil)
		var agg past.Stats
		if i == 1 { // push-all on every node, arrivals included
			for j, nd := range cp.Nodes {
				nd.SetApp(&pushAll{Node: cp.Node(j), sent: &agg})
			}
			build := cp.Opts.AppFactory
			cp.Opts.AppFactory = func(j int, nd *pastry.Node, ep *simnet.Endpoint) pastry.App {
				return &pushAll{Node: build(j, nd, ep).(*past.Node), sent: &agg}
			}
		}
		var ids []id.File
		for f := 0; len(ids) < files && f < 2*files; f++ {
			res := cp.Insert(cp.Rand().Intn(n), nil, fmt.Sprintf("m-%d", f), make([]byte, 2048), 0)
			if res.Err == nil {
				ids = append(ids, res.FileID)
			}
		}
		d := churn.NewDriver(cp.Cluster, churnTrace(seed+22, n, rate, Churn.MedianSession, horizon))
		d.MinLive = n / 2
		d.Advance(horizon)
		cp.RunSettle(10 * time.Second)
		for _, pn := range cp.PASTNodes() {
			if pn == nil {
				continue
			}
			st := pn.Stats()
			agg.MaintenanceBytes += st.MaintenanceBytes
			agg.Replications += st.Replications
			agg.SyncOffers += st.SyncOffers
			agg.SyncRequests += st.SyncRequests
		}
		healthy := 0
		for _, f := range ids {
			if cp.LiveVerifiedCopies(f) >= cfg.K {
				healthy++
			}
		}
		rows[i] = []any{schemes[i], agg.SyncOffers + agg.SyncRequests + agg.Replications, fmt.Sprintf("%.1f", float64(agg.MaintenanceBytes)/1024),
			agg.Replications, agg.SyncOffers, agg.SyncRequests,
			fmt.Sprintf("%d/%d", healthy, len(ids))}
	})
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return Result{
		ID:         "E16",
		Title:      fmt.Sprintf("Replica-maintenance bandwidth under churn: anti-entropy vs push-all (N=%d, %d files)", n, files),
		PaperClaim: "restoring the invariant needs only the missing copies; exchanging fileId digests first avoids re-shipping full bodies on every leaf-set change",
		Table:      tbl,
		Notes: []string{
			"same churn trace and file population for both schemes; bytes are frame-codec sizes (the 4-byte length prefix not counted)",
		},
	}
}

// E17ReplicaDurability runs churn for a long simulated horizon and then
// audits every file's replica count: the distribution should concentrate
// at k, with losses only when all k holders departed within one repair
// interval.
func E17ReplicaDurability(scale Scale, seed int64) Result {
	n, files, horizon := 40, 32, 120*time.Second
	rate := 0.2
	if scale == Full {
		n, files, horizon = 160, 150, 600*time.Second
	}
	cfg := churnPASTConfig()
	cp := buildChurnPAST(n, seed, cfg, nil)
	var ids []id.File
	for f := 0; len(ids) < files && f < 2*files; f++ {
		res := cp.Insert(cp.Rand().Intn(n), nil, fmt.Sprintf("d-%d", f), make([]byte, 1024), 0)
		if res.Err == nil {
			ids = append(ids, res.FileID)
		}
	}
	// Durability is about the steady state, so sessions here are long
	// relative to the repair interval (real deployments are further still
	// in that direction); E15 stresses the fast-churn end of the spectrum.
	d := churn.NewDriver(cp.Cluster, churnTrace(seed+23, n, rate, 3*Churn.MedianSession, horizon))
	d.MinLive = n / 2
	d.Advance(horizon)
	cp.RunSettle(15 * time.Second)
	var h metrics.Hist
	atLeastK, lost := 0, 0
	for _, f := range ids {
		c := cp.LiveVerifiedCopies(f)
		h.Add(c)
		if c >= cfg.K {
			atLeastK++
		}
		if c == 0 {
			lost++
		}
	}
	tbl := &metrics.Table{Header: []string{"live verified replicas", "files", "fraction"}}
	for v := 0; v <= h.MaxValue(); v++ {
		if h.Count(v) == 0 {
			continue
		}
		tbl.AddRow(v, h.Count(v), h.Frac(v))
	}
	tbl.AddRow(fmt.Sprintf(">= k (%d)", cfg.K), atLeastK, frac(atLeastK, len(ids)))
	return Result{
		ID:         "E17",
		Title:      fmt.Sprintf("Replica-count distribution after %s of churn (N=%d, k=%d)", horizon, n, cfg.K),
		PaperClaim: "the system maintains k copies of each file as part of continuous failure recovery",
		Table:      tbl,
		Notes: []string{
			fmt.Sprintf("churn applied: %d arrivals, %d leaves, %d crashes (%d skipped at the N/2 floor); %d live nodes at end",
				d.Stats.Arrivals, d.Stats.Leaves, d.Stats.Crashes, d.Stats.Skipped, cp.LiveCount()),
			fmt.Sprintf("files lost outright: %d/%d", lost, len(ids)),
			fmt.Sprintf("mean live replicas per file: %.2f", h.Mean()),
		},
	}
}
