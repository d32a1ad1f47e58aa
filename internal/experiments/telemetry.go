package experiments

import (
	"strings"
	"time"

	"past/internal/cluster"
	"past/internal/id"
	"past/internal/telemetry"
)

// CollectSeries turns on per-window telemetry for the experiments that
// instrument it (E15, E18, E20). Off by default: the recorded tables
// must not depend on whether series were collected, so instrumentation
// only ever samples state — it never drives the cluster RNG or the
// schedule. pastsim sets it for -series.
var CollectSeries bool

// seriesWindow is the aggregation window for experiment series. One
// virtual second matches the experiments' own tick loops.
const seriesWindow = time.Second

// expSeries is one experiment phase's telemetry: a recorder ticked at
// window barriers plus the lookup-driver series every instrumented
// experiment shares. nil (when CollectSeries is off) disables every
// method, so call sites stay unconditional.
type expSeries struct {
	rec               *telemetry.Recorder
	lookups, lookupOK uint64
	hops              *telemetry.Dist
	latMs             *telemetry.Dist
	out               *strings.Builder
	c                 *cluster.Cluster
}

// newExpSeries attaches a recorder to c: cluster series (live_nodes,
// net_events), storage-layer counts over its PAST nodes, and the lookup
// driver series. tags label every emitted point; finish() appends the
// line protocol to out.
func newExpSeries(c *cluster.PAST, out *strings.Builder, tags ...[2]string) *expSeries {
	if !CollectSeries {
		return nil
	}
	rec := telemetry.New(telemetry.Config{Window: seriesWindow, Capacity: 1024})
	for _, t := range tags {
		rec.SetTag(t[0], t[1])
	}
	c.AttachTelemetry(rec)
	s := &expSeries{rec: rec, out: out, c: c.Cluster}
	rec.Counts("lookups", []string{"value"}, func(tot []uint64) { tot[0] = s.lookups })
	rec.Counts("lookup_ok", []string{"value"}, func(tot []uint64) { tot[0] = s.lookupOK })
	s.hops = rec.Dist("lookup_hops")
	s.latMs = rec.Dist("lookup_latency_ms")
	return s
}

// lookup records one driver lookup: attempt count, success count, hops
// and virtual-time latency (milliseconds) on success.
func (s *expSeries) lookup(lat time.Duration, hops int, err error) {
	if s == nil {
		return
	}
	s.lookups++
	if err == nil {
		s.lookupOK++
		s.hops.Observe(float64(hops))
		s.latMs.Observe(float64(lat) / float64(time.Millisecond))
	}
}

// trackReplicas registers the replica-health series: how many of the
// tracked files have >= 1 and >= k live content-verified copies, sampled
// at each window flush. count sweeps the store of every live node, so
// callers skip it on the large tiers.
func (s *expSeries) trackReplicas(count func() (ge1, geK int), tracked func() int) {
	if s == nil {
		return
	}
	s.rec.Gauge("replicas", []string{"ge_1", "ge_k", "tracked"}, func(v []float64) {
		ge1, geK := count()
		v[0], v[1], v[2] = float64(ge1), float64(geK), float64(tracked())
	})
}

// now returns the cluster's virtual time (for latency measurement around
// a synchronous lookup). Safe on nil.
func (s *expSeries) now() time.Duration {
	if s == nil {
		return 0
	}
	return s.c.Net.Now()
}

// finish closes the final partial window, appends the series to the
// output builder and detaches the barrier hook.
func (s *expSeries) finish() {
	if s == nil {
		return
	}
	s.rec.Flush(s.c.Net.Now())
	_ = s.rec.WriteLP(s.out)
	s.c.Net.SetBarrierHook(nil)
}

// healthCounter builds the count/tracked closures trackReplicas wants
// from a live-verified-copies probe over a (growing) id list.
func healthCounter(ids *[]id.File, k int, copies func(id.File) int) (func() (int, int), func() int) {
	return func() (ge1, geK int) {
			for _, f := range *ids {
				c := copies(f)
				if c >= 1 {
					ge1++
				}
				if c >= k {
					geK++
				}
			}
			return
		}, func() int {
			return len(*ids)
		}
}
