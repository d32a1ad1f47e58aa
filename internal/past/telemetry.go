package past

import (
	"past/internal/telemetry"
)

// RegisterTelemetry registers the "past" series on rec: every Stats
// counter, summed over nodes() (nil entries are skipped, so a cluster's
// raw slot slice works directly), as a per-window count. Crashed nodes
// keep their frozen counters in the sum. The read is a pure read of
// mutex-protected copies — safe at simulator barriers and from the
// daemon's tasks goroutine.
func RegisterTelemetry(rec *telemetry.Recorder, nodes func() []*Node) {
	rec.Counts("past", []string{
		"primary_stores", "diverted_stores", "insert_rejects", "replications",
		"cache_pushes", "lookups_served", "cache_serves",
		"lookup_retries", "route_aborts", "forged_receipts_dropped",
		"sync_offers", "sync_requests", "maintenance_bytes",
	}, func(tot []uint64) {
		for _, n := range nodes() {
			if n == nil {
				continue
			}
			s := n.Stats()
			for i, v := range [...]int64{
				int64(s.PrimaryStores), int64(s.DivertedStores), int64(s.InsertRejects), int64(s.Replications),
				int64(s.CachePushes), int64(s.LookupsServed), int64(s.CacheServes),
				int64(s.LookupRetries), int64(s.RouteAborts), int64(s.ForgedReceiptsDropped),
				int64(s.SyncOffers), int64(s.SyncRequests), s.MaintenanceBytes,
			} {
				tot[i] += uint64(v)
			}
		}
	})
}
