package experiments

import (
	"fmt"

	"past/internal/cluster"
	"past/internal/id"
	"past/internal/metrics"
	"past/internal/past"
	"past/internal/seccrypt"
	"past/internal/workload"
)

// defaultPASTConfig sizes PAST nodes for the storage experiments.
func defaultPASTConfig() past.Config {
	cfg := past.DefaultConfig()
	cfg.K = 3
	cfg.Capacity = 512 << 10 // 512 KiB per node at experiment scale
	cfg.RequestTimeout = 10_000_000_000
	return cfg
}

// experimentSizes scales the file-size distribution to the node capacity
// the way the SOSP'01 traces related to their node sizes: the mean file is
// ~1000x smaller than a node, and even the largest file is small relative
// to an empty node's t_pri acceptance bound (capacity/10). Without this
// scaling, files near the capacity would be rejected even by empty nodes
// and the utilization experiment would measure the workload, not the
// storage-management scheme.
func experimentSizes(seed int64, capacity int64) *workload.SizeDist {
	s := workload.DefaultSizes(seed)
	s.Mu = 8.0 // median ~3 KiB
	s.Sigma = 1.1
	s.TailProb = 0.01
	s.TailXm = float64(capacity) / 64
	s.Min = 256
	s.Max = capacity / 24
	return s
}

// storageRun drives inserts from the size distribution until the network
// saturates, recording outcomes per utilization band and per size bucket.
type storageRun struct {
	attempts  int
	accepts   int
	rejects   int
	diverted  int
	retried   int
	byUtil    []utilBand
	sizeBands []sizeBand
	finalUtil float64
}

type utilBand struct {
	lo, hi            float64
	attempts, rejects int
}

type sizeBand struct {
	lo, hi            int64
	attempts, rejects int
}

func newStorageRun() *storageRun {
	r := &storageRun{}
	for _, lo := range []float64{0, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
		r.byUtil = append(r.byUtil, utilBand{lo: lo, hi: 2})
	}
	for i := range r.byUtil[:len(r.byUtil)-1] {
		r.byUtil[i].hi = r.byUtil[i+1].lo
	}
	for _, b := range []int64{0, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		r.sizeBands = append(r.sizeBands, sizeBand{lo: b, hi: 1 << 62})
	}
	for i := range r.sizeBands[:len(r.sizeBands)-1] {
		r.sizeBands[i].hi = r.sizeBands[i+1].lo
	}
	return r
}

func (r *storageRun) record(util float64, size int64, res past.InsertResult) {
	r.attempts++
	rejected := res.Err != nil
	if rejected {
		r.rejects++
	} else {
		r.accepts++
		r.diverted += res.Diverted
		if res.Retries > 0 {
			r.retried++
		}
	}
	for i := range r.byUtil {
		if util >= r.byUtil[i].lo && util < r.byUtil[i].hi {
			r.byUtil[i].attempts++
			if rejected {
				r.byUtil[i].rejects++
			}
			break
		}
	}
	for i := range r.sizeBands {
		if size >= r.sizeBands[i].lo && size < r.sizeBands[i].hi {
			r.sizeBands[i].attempts++
			if rejected {
				r.sizeBands[i].rejects++
			}
			break
		}
	}
}

// driveToSaturation inserts drawn files until `stopAfter` consecutive
// rejections or maxInserts attempts.
func driveToSaturation(pc *cluster.PAST, sizes *workload.SizeDist, k, maxInserts, stopAfter int) *storageRun {
	run := newStorageRun()
	consecutive := 0
	n := len(pc.PASTNodes())
	for i := 0; i < maxInserts && consecutive < stopAfter; i++ {
		size := sizes.Draw()
		util := pc.Utilization()
		node := pc.Rand().Intn(n)
		res := pc.Insert(node, pc.Card(node), fmt.Sprintf("w-%d", i), make([]byte, size), k)
		run.record(util, size, res)
		if res.Err != nil {
			consecutive++
		} else {
			consecutive = 0
		}
	}
	run.finalUtil = pc.Utilization()
	return run
}

// E8Utilization reproduces the headline storage-management result quoted
// in section 2.3: global utilization beyond 95% while rejecting few
// inserts, using replica and file diversion.
func E8Utilization(scale Scale, seed int64) Result {
	n, maxInserts := 48, 3000
	if scale == Full {
		n, maxInserts = 500, 40000
	}
	cfg := defaultPASTConfig()
	caps := workload.DefaultCapacities(seed+3, cfg.Capacity)
	sizes := experimentSizes(seed+4, cfg.Capacity)
	pc := mustPAST(n, seed, cfg, func(int) int64 { return caps.Draw() }, nil)
	run := driveToSaturation(pc, sizes, cfg.K, maxInserts, 15)

	tbl := &metrics.Table{Header: []string{"utilization band", "attempts", "rejects", "reject rate"}}
	for _, b := range run.byUtil {
		if b.attempts == 0 {
			continue
		}
		label := fmt.Sprintf("%.0f%%-%.0f%%", b.lo*100, min2(b.hi, 1)*100)
		tbl.AddRow(label, b.attempts, b.rejects, frac(b.rejects, b.attempts))
	}
	tbl.AddRow("TOTAL", run.attempts, run.rejects, frac(run.rejects, run.attempts))
	// The paper's <5% figure counts rejections over a fixed insertion
	// trace that ends near full utilization; our driver keeps inserting
	// until the network refuses 15 in a row, which inflates the total.
	// Report the comparable cumulative rate up to 90% utilization too.
	att90, rej90 := 0, 0
	for _, b := range run.byUtil {
		if b.hi <= 0.9001 {
			att90 += b.attempts
			rej90 += b.rejects
		}
	}
	tbl.AddRow("cumulative to 90%", att90, rej90, frac(rej90, att90))
	return Result{
		ID:         "E8",
		Title:      fmt.Sprintf("Storage utilization vs insert rejections (N=%d, t_pri=%.2f, t_div=%.2f)", n, cfg.TPri, cfg.TDiv),
		PaperClaim: ">95% global utilization with <5% of inserts rejected",
		Table:      tbl,
		Notes: []string{
			fmt.Sprintf("final global utilization: %.1f%%", run.finalUtil*100),
			fmt.Sprintf("accepted inserts that needed file diversion (re-salt): %d", run.retried),
			fmt.Sprintf("replica-diverted receipts: %d", run.diverted),
		},
	}
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// E9RejectionBias reproduces the companion observation quoted in section
// 2.3: "failed insertions are heavily biased towards large files".
func E9RejectionBias(scale Scale, seed int64) Result {
	n, maxInserts := 48, 3000
	if scale == Full {
		n, maxInserts = 500, 40000
	}
	cfg := defaultPASTConfig()
	sizes := experimentSizes(seed+4, cfg.Capacity)
	pc := mustPAST(n, seed, cfg, nil, nil)
	run := driveToSaturation(pc, sizes, cfg.K, maxInserts, 15)

	tbl := &metrics.Table{Header: []string{"file size", "attempts", "rejects", "reject rate"}}
	for _, b := range run.sizeBands {
		if b.attempts == 0 {
			continue
		}
		tbl.AddRow(fmt.Sprintf("%s-%s", byteLabel(b.lo), byteLabel(b.hi)),
			b.attempts, b.rejects, frac(b.rejects, b.attempts))
	}
	return Result{
		ID:         "E9",
		Title:      fmt.Sprintf("Insert rejection rate by file size at saturation (N=%d)", n),
		PaperClaim: "failed insertions are heavily biased towards large files",
		Table:      tbl,
	}
}

func byteLabel(b int64) string {
	switch {
	case b >= 1<<62:
		return "inf"
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// E10Caching reproduces the caching figure: caching along lookup/insert
// paths cuts client fetch distance and hop counts for popular files, with
// the benefit shrinking as utilization rises and cache space evaporates.
func E10Caching(scale Scale, seed int64) Result {
	n, files, lookups := 128, 60, 1500
	if scale == Full {
		n, files, lookups = 2000, 400, 20000
	}
	tbl := &metrics.Table{Header: []string{"caching", "fill", "hit rate", "avg hops", "avg distance (ms)"}}
	type config struct {
		caching bool
		fill    string
	}
	grid := []config{{true, "low"}, {true, "high"}, {false, "low"}, {false, "high"}}
	type point struct {
		hops, dist  metrics.Summary
		hits, total int
	}
	pts := make([]point, len(grid))
	forEachPoint(len(grid), func(i int) {
		caching, fill := grid[i].caching, grid[i].fill
		cfg := defaultPASTConfig()
		cfg.Caching = caching
		pc := mustPAST(n, seed, cfg, nil, nil)
		sizes := experimentSizes(seed+5, cfg.Capacity)
		// Insert the popular file population.
		var ids []pastInsert
		for f := 0; f < files; f++ {
			node := pc.Rand().Intn(n)
			res := pc.Insert(node, pc.Card(node), fmt.Sprintf("pop-%d", f), make([]byte, sizes.Draw()), cfg.K)
			if res.Err == nil {
				ids = append(ids, pastInsert{res.FileID, res.Cert.Size})
			}
		}
		if fill == "high" {
			// Consume most remaining capacity with filler files.
			driveToSaturation(pc, sizes, cfg.K, 20*n, 10)
		}
		z := workload.NewZipf(seed+6, 1.1, len(ids))
		for t := 0; t < lookups; t++ {
			f := ids[z.Draw()]
			lr := pc.Lookup(pc.Rand().Intn(n), f.id)
			if lr.Err != nil {
				continue
			}
			pts[i].total++
			if lr.Cached {
				pts[i].hits++
			}
			pts[i].hops.Add(float64(lr.Hops))
			pts[i].dist.Add(lr.Distance)
		}
	})
	for i, g := range grid {
		tbl.AddRow(onOff(g.caching), g.fill, frac(pts[i].hits, pts[i].total), pts[i].hops.Mean(), pts[i].dist.Mean())
	}
	return Result{
		ID:         "E10",
		Title:      fmt.Sprintf("Effect of caching on fetch distance under Zipf(1.1) popularity (N=%d)", n),
		PaperClaim: "caching popular files near clients balances query load and cuts fetch distance; benefit fades near full utilization",
		Table:      tbl,
	}
}

type pastInsert struct {
	id   id.File
	size int64
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// E12Quota demonstrates the smartcard quota system of section 2.1: cards
// block over-quota inserts, reclaim receipts restore quota, and the
// broker's books balance supply against demand.
func E12Quota(scale Scale, seed int64) Result {
	n := 24
	if scale == Full {
		n = 64
	}
	cfg := defaultPASTConfig()
	pc := mustPAST(n, seed, cfg, nil, nil)
	user, err := pc.Broker.IssueCard(100<<10, 0, 0, seccrypt.DetRand(uint64(seed)+99))
	if err != nil {
		panic(err)
	}
	tbl := &metrics.Table{Header: []string{"step", "outcome", "remaining quota"}}
	// 1: insert within quota: 20 KiB × 3 = 60 KiB.
	res1 := pc.Insert(0, user, "a.bin", make([]byte, 20<<10), 3)
	tbl.AddRow("insert 20KiB k=3", errLabel(res1.Err), user.RemainingQuota())
	// 2: second insert would need 60 KiB > 40 KiB left: card refuses.
	res2 := pc.Insert(0, user, "b.bin", make([]byte, 20<<10), 3)
	tbl.AddRow("insert 20KiB k=3 again", errLabel(res2.Err), user.RemainingQuota())
	// 3: reclaim the first file: quota restored.
	rr := pc.Reclaim(0, user, res1.FileID)
	tbl.AddRow("reclaim first file", errLabel(rr.Err), user.RemainingQuota())
	// 4: the insert now fits.
	res4 := pc.Insert(0, user, "c.bin", make([]byte, 20<<10), 3)
	tbl.AddRow("insert 20KiB k=3 after reclaim", errLabel(res4.Err), user.RemainingQuota())
	demand, supply := pc.Broker.Balance()
	return Result{
		ID:         "E12",
		Title:      "Smartcard quota enforcement end to end",
		PaperClaim: "quotas debit size×k at insert, credit on reclaim receipts, and block over-quota use",
		Table:      tbl,
		Notes: []string{
			fmt.Sprintf("broker books: demand=%d bytes across %d cards, supply=%d bytes", demand, pc.Broker.CardsIssued(), supply),
		},
	}
}

func errLabel(err error) string {
	if err == nil {
		return "ok"
	}
	return "refused"
}

// A2DiversionAblation toggles the two storage-management mechanisms of
// section 2.3 to show each one's contribution to achievable utilization.
func A2DiversionAblation(scale Scale, seed int64) Result {
	n, maxInserts := 48, 2500
	if scale == Full {
		n, maxInserts = 300, 20000
	}
	tbl := &metrics.Table{Header: []string{"replica diversion", "file diversion", "final util", "reject rate"}}
	type config struct{ rd, fd bool }
	grid := []config{{false, false}, {false, true}, {true, false}, {true, true}}
	runs := make([]*storageRun, len(grid))
	forEachPoint(len(grid), func(i int) {
		cfg := defaultPASTConfig()
		cfg.ReplicaDiversion = grid[i].rd
		cfg.FileDiversion = grid[i].fd
		sizes := experimentSizes(seed+4, cfg.Capacity)
		pc := mustPAST(n, seed, cfg, nil, nil)
		runs[i] = driveToSaturation(pc, sizes, cfg.K, maxInserts, 15)
	})
	for i, g := range grid {
		tbl.AddRow(onOff(g.rd), onOff(g.fd),
			fmt.Sprintf("%.1f%%", runs[i].finalUtil*100), frac(runs[i].rejects, runs[i].attempts))
	}
	return Result{
		ID:         "A2",
		Title:      fmt.Sprintf("Ablation: replica and file diversion vs achievable utilization (N=%d)", n),
		PaperClaim: "both diversion mechanisms are needed to approach full utilization with few rejects",
		Table:      tbl,
	}
}
