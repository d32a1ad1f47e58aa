package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"

	"past/internal/past"
	"past/internal/pastry"
	"past/internal/telemetry"
)

// snake spells a Go field name as its series field: ForgedReceiptsDropped
// is forged_receipts_dropped.
func snake(name string) string {
	var b strings.Builder
	for i, r := range name {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

// TestPastSeriesExact attaches a recorder to a simulated PAST cluster
// that then inserts, looks up and churns (crash, restart, graceful
// leave, a mid-run arrival). For every field of past.Stats, the "past"
// series summed over its windows must equal that counter's growth since
// registration, summed over every node — nothing counted is lost to a
// first window, a restart or the trailing partial window.
func TestPastSeriesExact(t *testing.T) {
	cfg := past.DefaultConfig()
	cfg.K = 3
	cfg.Capacity = 1 << 20
	cfg.RequestTimeout = 2 * time.Second
	pcfg := pastry.DefaultConfig()
	pcfg.KeepAlive = 500 * time.Millisecond
	pcfg.FailTimeout = 1500 * time.Millisecond
	c, err := BuildPAST(Options{N: 16, Pastry: pcfg, Seed: 5}, cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableProbes()
	// Traffic before registration is the baseline, not part of the series.
	for i := 0; i < 2; i++ {
		c.Insert(i, nil, fmt.Sprintf("before-%d", i), make([]byte, 1024), 0)
	}
	var before []past.Stats
	for _, n := range c.PASTNodes() {
		before = append(before, n.Stats())
	}
	rec := telemetry.New(telemetry.Config{Window: time.Second})
	c.AttachTelemetry(rec)

	var files []past.InsertResult
	for i := 0; i < 4; i++ {
		res := c.Insert(i, nil, fmt.Sprintf("f-%d", i), make([]byte, 2048), 0)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		files = append(files, res)
	}
	c.Insert(4, nil, "too-big", make([]byte, 700<<10), 0) // diverted or rejected
	for i := 0; i < 12; i++ {
		c.Lookup(8+i%4, files[i%len(files)].FileID)
	}
	c.Crash(c.IndexByID(files[0].Receipts[0].StoredBy.ID))
	c.Crash(c.IndexByID(files[1].Receipts[0].StoredBy.ID))
	c.RunSettle(3 * time.Second)
	c.Restart(c.IndexByID(files[1].Receipts[0].StoredBy.ID))
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	c.Leave(15)
	for _, f := range files {
		c.Lookup(12, f.FileID)
	}
	c.RunSettle(2500 * time.Millisecond)
	rec.Flush(c.Net.Now())

	var b bytes.Buffer
	if err := rec.WriteLP(&b); err != nil {
		t.Fatal(err)
	}
	pts, err := telemetry.ParseLP(&b)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	windows := 0
	for _, p := range pts {
		if p.Name == "past" {
			windows++
			for f, v := range p.Fields {
				series[f] += v
			}
		}
	}
	if windows < 5 {
		t.Fatalf("only %d windows of the past series", windows)
	}
	st := reflect.TypeOf(past.Stats{})
	if len(series) != st.NumField() {
		t.Errorf("past series has %d fields, past.Stats %d", len(series), st.NumField())
	}
	for f := 0; f < st.NumField(); f++ {
		var grew int64
		for i, n := range c.PASTNodes() {
			grew += reflect.ValueOf(n.Stats()).Field(f).Int()
			if i < len(before) {
				grew -= reflect.ValueOf(before[i]).Field(f).Int()
			}
		}
		name := snake(st.Field(f).Name)
		if got, ok := series[name]; !ok || got != float64(grew) {
			t.Errorf("%s: series sums to %v (present %v), nodes counted %d", name, got, ok, grew)
		}
	}
	if series["primary_stores"] != 12 {
		t.Errorf("primary_stores = %v, want 12 for four k=3 inserts", series["primary_stores"])
	}
}
