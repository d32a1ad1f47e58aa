package experiments

import (
	"strconv"
	"testing"
)

// TestShardedDeterminismAdversary asserts the adversarial experiments'
// acceptance bar: E18-E21 — malicious-node fault injection, retrying
// lookups with scattered routes, a transit-domain outage with async
// joins, and a flash crowd — produce byte-identical tables at shards=1,
// 2 and 4 for a fixed seed. Adversarial decisions derive from (seed,
// node index) and per-endpoint streams only, so shard count must not
// leak into any cell. Run under -race in CI.
func TestShardedDeterminismAdversary(t *testing.T) {
	defer func(old int) { Shards = old }(Shards)

	for _, exp := range []string{"E18", "E19", "E20", "E21"} {
		t.Run(exp, func(t *testing.T) {
			var base string
			for _, shards := range []int{1, 2, 4} {
				Shards = shards
				res, err := Run(exp, Small, 42)
				if err != nil {
					t.Fatalf("%s at shards=%d: %v", exp, shards, err)
				}
				got := render(res)
				if shards == 1 {
					base = got
					continue
				}
				if got != base {
					t.Fatalf("%s tables diverge between shards=1 and shards=%d:\n--- shards=1:\n%s\n--- shards=%d:\n%s",
						exp, shards, base, shards, got)
				}
			}
		})
	}
}

// TestE18RetryAcceptance pins the E18 headline at the canonical
// scale/seed: with 30% of nodes silently dropping lookup traffic,
// retries with route diversity keep lookup success at or above 0.95,
// while the no-retry baseline is measurably degraded (at least ten
// points worse). A regression in the retry path, the scatter logic or
// the adversary hooks shows up here as a table change.
func TestE18RetryAcceptance(t *testing.T) {
	res, err := Run("E18", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Table.Rows {
		if row[0] != "dropper" || row[1] != "30%" {
			continue
		}
		found = true
		baseline, err1 := strconv.ParseFloat(row[2], 64)
		withRetry, err2 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable success cells in row %v: %v %v", row, err1, err2)
		}
		if withRetry < 0.95 {
			t.Errorf("lookup success with retries at 30%% droppers = %.3f, want >= 0.95", withRetry)
		}
		if baseline > withRetry-0.10 {
			t.Errorf("no-retry baseline %.3f not measurably degraded vs %.3f with retries", baseline, withRetry)
		}
	}
	if !found {
		t.Fatalf("no dropper/30%% row in E18 table:\n%s", res.Table.String())
	}
}

// TestE19AuditContainment pins E19's containment mechanics: forgers
// never land a receipt (every forged one is identified and dropped, no
// cheat survives to be audited), free-riders are only caught by the
// audit (nonzero cheats flagged), and neither policy ever produces a
// false alarm against an honest holder.
func TestE19AuditContainment(t *testing.T) {
	res, err := Run("E19", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Table.Rows {
		policy, forged, flagged, alarms := row[0], row[3], row[5], row[6]
		if alarms != "0" {
			t.Errorf("%s %s: %s false alarms, audits must never flag honest holders", policy, row[1], alarms)
		}
		switch policy {
		case "forger":
			if forged == "0" {
				t.Errorf("forger %s: no forged receipts dropped; receipt verification not engaging", row[1])
			}
		case "free-rider":
			if flagged == "0" {
				t.Errorf("free-rider %s: no cheats flagged by audit", row[1])
			}
			if forged != "0" {
				t.Errorf("free-rider %s: %s receipts dropped, but free-riders sign honestly", row[1], forged)
			}
		}
	}
}
