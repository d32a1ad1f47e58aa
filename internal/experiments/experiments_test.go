package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// runSmall executes an experiment at Small scale and does basic sanity
// checks on its output shape.
func runSmall(t *testing.T, idStr string) Result {
	t.Helper()
	res, err := Run(idStr, Small, 42)
	if err != nil {
		t.Fatalf("Run(%s): %v", idStr, err)
	}
	if res.ID != idStr {
		t.Fatalf("result id %q != %q", res.ID, idStr)
	}
	if len(res.Table.Rows) == 0 {
		t.Fatalf("%s produced no rows", idStr)
	}
	if res.Title == "" || res.PaperClaim == "" {
		t.Fatalf("%s missing title or claim", idStr)
	}
	return res
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("E99", Small, 1); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 23 {
		t.Fatalf("expected 23 experiments, have %d: %v", len(ids), ids)
	}
	seen := map[string]bool{}
	for _, i := range ids {
		if seen[i] {
			t.Fatalf("duplicate id %s", i)
		}
		seen[i] = true
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestE1HopsLogarithmic(t *testing.T) {
	res := runSmall(t, "E1")
	// Every row: avg hops < bound + 0.5 and all messages delivered.
	for _, row := range res.Table.Rows {
		bound := parseF(t, row[1])
		avg := parseF(t, row[2])
		if avg > bound+0.5 {
			t.Errorf("N=%s: avg hops %.2f above bound %.0f", row[0], avg, bound)
		}
		parts := strings.Split(row[5], "/")
		if parts[0] != parts[1] {
			t.Errorf("N=%s: losses %s", row[0], row[5])
		}
	}
}

func TestE2DistributionSumsToOne(t *testing.T) {
	res := runSmall(t, "E2")
	sum := 0.0
	for _, row := range res.Table.Rows {
		sum += parseF(t, row[1])
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("PMF sums to %f", sum)
	}
}

func TestE3LocalityRatioSane(t *testing.T) {
	res := runSmall(t, "E3")
	var ratio float64
	for _, row := range res.Table.Rows {
		if row[0] == "aggregate ratio" {
			ratio = parseF(t, row[1])
		}
	}
	// The paper reports ~1.5; accept a generous band but insist the
	// locality heuristic keeps it far below the random-routing regime.
	if ratio < 1.0 || ratio > 4.0 {
		t.Fatalf("aggregate route/direct ratio %.2f implausible", ratio)
	}
}

func TestE4ReplicaProximityShape(t *testing.T) {
	res := runSmall(t, "E4")
	nearest := parseF(t, res.Table.Rows[0][1])
	top2 := parseF(t, res.Table.Rows[1][1])
	if top2 < nearest {
		t.Fatalf("top2 %.2f < nearest %.2f", top2, nearest)
	}
	if nearest < 0.4 {
		t.Fatalf("nearest-replica rate %.2f too low: locality heuristic broken", nearest)
	}
	if top2 < 0.6 {
		t.Fatalf("top-2 rate %.2f too low", top2)
	}
}

func TestE5FailureRecovery(t *testing.T) {
	res := runSmall(t, "E5")
	rows := res.Table.Rows
	frac := func(cell string) float64 {
		parts := strings.Split(cell, "/")
		return parseF(t, parts[0]) / parseF(t, parts[1])
	}
	if frac(rows[0][1]) != 1.0 {
		t.Fatalf("baseline lost messages: %s", rows[0][1])
	}
	if frac(rows[1][1]) >= 1.0 {
		t.Fatalf("killing 10%% without detection should lose some routes")
	}
	if frac(rows[2][1]) != 1.0 || frac(rows[3][1]) != 1.0 {
		t.Fatalf("failure detection should restore delivery: %s / %s", rows[2][1], rows[3][1])
	}
}

func TestE6StateBounded(t *testing.T) {
	res := runSmall(t, "E6")
	for _, row := range res.Table.Rows {
		rt := parseF(t, row[1])
		formula := parseF(t, row[4])
		if rt > formula {
			t.Errorf("N=%s: measured RT %.1f above formula %.0f", row[0], rt, formula)
		}
	}
}

func TestE7JoinCostGrowsSlowly(t *testing.T) {
	res := runSmall(t, "E7")
	first := parseF(t, res.Table.Rows[0][1])
	last := parseF(t, res.Table.Rows[len(res.Table.Rows)-1][1])
	if last > first*8 {
		t.Fatalf("join cost grew %f -> %f over 16x nodes: not logarithmic", first, last)
	}
}

func TestE8UtilizationHigh(t *testing.T) {
	res := runSmall(t, "E8")
	// The final-utilization note must report a high number.
	var util float64
	for _, n := range res.Notes {
		if strings.HasPrefix(n, "final global utilization:") {
			util = parseF(t, strings.TrimSuffix(strings.Fields(n)[3], "%"))
		}
	}
	if util < 70 {
		t.Fatalf("final utilization %.1f%% far below the paper's >95%%", util)
	}
	t.Logf("final utilization %.1f%%", util)
	// Early bands must have near-zero rejection.
	firstBand := res.Table.Rows[0]
	if parseF(t, firstBand[3]) > 0.05 {
		t.Fatalf("rejections at low utilization: %s", firstBand[3])
	}
}

func TestE9LargeFilesRejectedMore(t *testing.T) {
	res := runSmall(t, "E9")
	rows := res.Table.Rows
	if len(rows) < 2 {
		t.Fatal("need at least two size bands")
	}
	small := parseF(t, rows[0][3])
	large := parseF(t, rows[len(rows)-1][3])
	if large < small {
		t.Fatalf("rejection not biased to large files: small %.3f, large %.3f", small, large)
	}
}

func TestE10CachingHelps(t *testing.T) {
	res := runSmall(t, "E10")
	// Row order: on/low, on/high, off/low, off/high.
	var onLowHops, offLowHops, onLowHit float64
	for _, row := range res.Table.Rows {
		if row[0] == "on" && row[1] == "low" {
			onLowHit = parseF(t, row[2])
			onLowHops = parseF(t, row[3])
		}
		if row[0] == "off" && row[1] == "low" {
			offLowHops = parseF(t, row[3])
		}
	}
	if onLowHit == 0 {
		t.Fatal("caching produced zero hits")
	}
	if onLowHops >= offLowHops {
		t.Fatalf("caching did not reduce hops: on=%.2f off=%.2f", onLowHops, offLowHops)
	}
}

func TestE11RandomizedBeatsDeterministic(t *testing.T) {
	res := runSmall(t, "E11")
	// For each malicious fraction, randomized <=8 tries must beat
	// deterministic <=8 tries.
	byFrac := map[string]map[string]float64{}
	for _, row := range res.Table.Rows {
		if byFrac[row[0]] == nil {
			byFrac[row[0]] = map[string]float64{}
		}
		byFrac[row[0]][row[1]] = parseF(t, row[4])
	}
	for f, m := range byFrac {
		if m["randomized"] < m["deterministic"] {
			t.Errorf("at %s malicious, randomized %.2f < deterministic %.2f", f, m["randomized"], m["deterministic"])
		}
	}
}

func TestE12QuotaSteps(t *testing.T) {
	res := runSmall(t, "E12")
	rows := res.Table.Rows
	if rows[0][1] != "ok" {
		t.Fatal("in-quota insert refused")
	}
	if rows[1][1] != "refused" {
		t.Fatal("over-quota insert allowed")
	}
	if rows[3][1] != "ok" {
		t.Fatal("post-reclaim insert refused")
	}
}

func TestE13PastryBeatsChordOnDistance(t *testing.T) {
	res := runSmall(t, "E13")
	var pRatio, cRatio float64
	for _, row := range res.Table.Rows {
		if row[0] == "Pastry" {
			pRatio = parseF(t, row[2])
		}
		if row[0] == "Chord" {
			cRatio = parseF(t, row[2])
		}
	}
	if pRatio >= cRatio {
		t.Fatalf("Pastry ratio %.2f not better than Chord %.2f", pRatio, cRatio)
	}
}

func TestA1MoreBitsFewerHops(t *testing.T) {
	res := runSmall(t, "A1")
	// Compare b=2,l=32 vs b=4,l=32: higher b must not route worse.
	var hopsB2, hopsB4 float64
	for _, row := range res.Table.Rows {
		if row[0] == "2" && row[1] == "32" {
			hopsB2 = parseF(t, row[2])
		}
		if row[0] == "4" && row[1] == "32" {
			hopsB4 = parseF(t, row[2])
		}
	}
	if hopsB4 > hopsB2 {
		t.Fatalf("b=4 routed worse than b=2: %.2f vs %.2f", hopsB4, hopsB2)
	}
}

func TestA2DiversionImprovesUtilization(t *testing.T) {
	res := runSmall(t, "A2")
	var none, both float64
	for _, row := range res.Table.Rows {
		util := parseF(t, strings.TrimSuffix(row[2], "%"))
		if row[0] == "off" && row[1] == "off" {
			none = util
		}
		if row[0] == "on" && row[1] == "on" {
			both = util
		}
	}
	if both < none {
		t.Fatalf("diversion hurt utilization: none=%.1f both=%.1f", none, both)
	}
}

func TestE14DiversityNearIdeal(t *testing.T) {
	res := runSmall(t, "E14")
	distinctStubs := parseF(t, res.Table.Rows[0][1])
	// k=5 replicas should span nearly 5 distinct stub domains; heavy
	// clustering would indicate nodeIds correlate with topology.
	if distinctStubs < 4.0 {
		t.Fatalf("replica sets span only %.2f distinct stubs", distinctStubs)
	}
}

// TestAntiEntropySavesBandwidth pins E16's headline: at the same churn
// rate, digest-based anti-entropy moves strictly fewer maintenance bytes
// (and messages) than the legacy push-all baseline, while keeping as
// many files at full replication.
func TestAntiEntropySavesBandwidth(t *testing.T) {
	res, err := Run("E16", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("E16 rows = %d, want 2", len(res.Table.Rows))
	}
	parseKiB := func(row []string) float64 {
		var v float64
		if _, err := fmt.Sscanf(row[2], "%f", &v); err != nil {
			t.Fatalf("bad maint KiB cell %q: %v", row[2], err)
		}
		return v
	}
	ae, legacy := parseKiB(res.Table.Rows[0]), parseKiB(res.Table.Rows[1])
	if ae <= 0 || legacy <= 0 {
		t.Fatalf("degenerate measurement: anti-entropy %.1f KiB, legacy %.1f KiB", ae, legacy)
	}
	if ae >= legacy {
		t.Fatalf("anti-entropy used %.1f KiB, not below legacy push-all's %.1f KiB", ae, legacy)
	}
	// The savings must not come from skipping repairs: both schemes must
	// end the run with the same number of fully replicated files.
	if aeHealthy, legacyHealthy := res.Table.Rows[0][6], res.Table.Rows[1][6]; aeHealthy != legacyHealthy {
		t.Fatalf("replication health diverges: anti-entropy %s vs legacy %s files >= k", aeHealthy, legacyHealthy)
	}
}
