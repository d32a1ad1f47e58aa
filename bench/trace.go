package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"past/internal/seccrypt"
	"past/internal/storage"
	"past/internal/wire"
)

// span is one timed interval. The spans of one operation share Op; a
// child names the span that caused it in Parent.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	Msg     string  `json:"msg,omitempty"` // message kind, for transport spans
	StartUs float64 `json:"start_us"`      // since the run's epoch
	DurUs   float64 `json:"dur_us"`
	// Replayed marks a ladder span: this PR may not instrument the
	// program, so the layer calls of a sampled op are re-executed in
	// isolation on the same inputs after the window, and laid out one
	// after the other from the op's start. Count is how many times the
	// call sits on the op's blocking path.
	Replayed bool `json:"replayed,omitempty"`
	Count    int  `json:"count,omitempty"`
}

// tracer collects spans in memory; they are written when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// root records the root span of one finished op and returns its id.
func (t *tracer) root(r opRecord) int {
	name := "op.lookup"
	if r.insert {
		name = "op.insert"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Op: id, Name: name, StartUs: us(r.start), DurUs: us(r.end - r.start)})
	return id
}

// traceResult is what the traced run adds to an ordinary one.
type traceResult struct {
	workload string
	seed     int64
	spans    []span
	metrics  []metric
	notes    []string // human-readable lines for the run's header
}

func (t *traceResult) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.workload, t.seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ladderSample is how many ops of each kind the ladder replays.
const ladderSample = 200

// traceRun makes the traced run's extra measurements after the timed part:
// the ladder replay of a seeded sample of the ops just issued, the
// per-layer microbenchmarks, and the tracing overhead. dir is scratch space
// on the data-dir filesystem, ownDir on the checkout's own.
func traceRun(cfg runConfig, m *measurement, dir, ownDir string) (*traceResult, error) {
	res := &traceResult{workload: cfg.spec.name, seed: cfg.seed}
	lb := &layerBench{seed: cfg.seed, dir: filepath.Join(dir, "layers"), ownDir: ownDir, scale: 1}
	if cfg.quick {
		lb.scale = 20
	}
	if err := lb.run(); err != nil {
		return nil, fmt.Errorf("layer microbenchmarks: %w", err)
	}
	res.metrics = lb.metrics

	lad := &ladder{fx: lb.fx, seed: cfg.seed, tr: cfg.tracer, sim: cfg.spec.sim}
	if err := lad.open(filepath.Join(dir, "ladder")); err != nil {
		return nil, err
	}
	defer lad.close()
	rng := rand.New(rand.NewSource(cfg.seed*131 + 5))
	for _, kind := range []struct {
		insert bool
		from   phase
		p50Ms  float64
		name   string
	}{
		{true, m.insertFrom, percentile(m.inserts, 50), "insert_4k"},
		{false, m.lookupFrom, percentile(m.lookups, 50), "lookup_4k"},
	} {
		var pool []opRecord
		for _, r := range m.res.records {
			if r.ok && r.insert == kind.insert && r.phase == kind.from {
				pool = append(pool, r)
			}
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		if len(pool) > ladderSample {
			pool = pool[:ladderSample]
		}
		var sums []float64
		for _, r := range pool {
			d, err := lad.replay(r)
			if err != nil {
				return nil, fmt.Errorf("ladder replay: %w", err)
			}
			sums = append(sums, us(d))
		}
		explained := median(sums)
		res.notes = append(res.notes, fmt.Sprintf("ladder %s: %d ops replayed, blocking path explains %.0f us of the p50 of %.0f us, remainder %.0f us",
			kind.name, len(pool), explained, kind.p50Ms*1000, kind.p50Ms*1000-explained))
		res.metrics = append(res.metrics,
			metric{"ladder." + kind.name + "_explained_us", "us", explained},
			metric{"ladder." + kind.name + "_explained_frac", "ratio", ratio(explained, kind.p50Ms*1000)})
	}
	// Median cycles, not the halves' mean rates: a neighbour's burst in one
	// half would otherwise read as tracing overhead.
	overhead := 0.0
	if plain, traced := m.medianCycle(phWindow), m.medianCycle(phTraced); traced > 0 {
		overhead = ratio(traced-plain, plain)
	}
	res.metrics = append(res.metrics, metric{"trace.overhead_frac", "ratio", overhead})
	res.spans = cfg.tracer.spans
	return res, nil
}

// ladder re-executes an op's constituent layer calls in isolation: two
// standalone transports for the hops, the fixture's cards for the crypto,
// a disk store on the run's filesystem for the puts. For an op of the
// simulator (sim) the hops and the disk fall away: a simulated hop is an
// event, and a simulated node stores in memory.
type ladder struct {
	fx   *fixture
	seed int64
	tr   *tracer
	sim  bool
	pair *pair
	disk *storage.DiskStore
	mem  *storage.Store
	n    int
}

func (l *ladder) open(dir string) error {
	var err error
	if l.pair, err = newPair(); err != nil {
		return err
	}
	l.pair.sendDeliver(wire.Heartbeat{}) // dial outside any span
	if l.disk, err = storage.OpenDiskStore(dir, 1<<40); err != nil {
		l.pair.close()
		return err
	}
	l.mem = storage.NewStore(1 << 40)
	return nil
}

func (l *ladder) close() { l.pair.close() }

// replay re-executes r's layer calls, records them as child spans of a
// root span for r, and returns the time along the blocking path.
func (l *ladder) replay(r opRecord) (time.Duration, error) {
	root := l.tr.root(r)
	at := r.start
	var path time.Duration
	step := func(name, msg string, count int, fn func()) {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		l.tr.mu.Lock()
		l.tr.spans = append(l.tr.spans, span{
			ID: len(l.tr.spans) + 1, Parent: root, Op: root, Name: name, Msg: msg,
			StartUs: us(at), DurUs: us(d), Replayed: true, Count: count,
		})
		l.tr.mu.Unlock()
		at += d * time.Duration(count)
		path += d * time.Duration(count)
	}
	send := func(m wire.Msg, count int) {
		if l.sim {
			return
		}
		step("transport.send_deliver", m.Kind(), count, func() { l.pair.sendDeliver(m) })
	}
	l.n++
	fx := l.fx
	brokerPub := fx.broker.PublicKey()
	// Every hop decodes into a fresh buffer, so each verifier hashes the
	// content anew; fresh copies stand in for that.
	fresh := func() []byte {
		b := make([]byte, r.size)
		fillContent(b, l.seed, r.client, r.serial)
		return b
	}
	data := fresh()
	name := fmt.Sprintf("ladder/%d/%d/%d", l.n, r.client, r.serial)
	if !r.insert {
		// Set the stage outside any span: the file exists at a holder.
		c := fx.cert(name, data)
		if err := l.mem.Put(storage.Item{Cert: c, Data: data}); err != nil {
			return 0, err
		}
		key := c.FileID.Key()
		send(wire.Routed{Key: key, Origin: fx.refs[0], Nonce: 1, Payload: wire.LookupRequest{FileID: c.FileID, Client: fx.refs[0], ReqID: 1}}, max(r.hops, 1))
		var it storage.Item
		step("storage.Store.Get", "", 1, func() { it, _ = l.mem.Get(c.FileID) })
		send(wire.LookupReply{Cert: it.Cert, Data: it.Data, From: fx.refs[1], ReqID: 1, Hops: r.hops}, 1)
		got := fresh()
		step("seccrypt.VerifyFileCertificate", "", 1, func() { seccrypt.VerifyFileCertificate(brokerPub, &c, benchEpoch) }) //nolint:errcheck // fixture certificate; timing only
		step("seccrypt.VerifyContent", "", 1, func() { seccrypt.VerifyContentFresh(&c, got) })                              //nolint:errcheck // fixture content; timing only
		return path, nil
	}

	// Insert, along the path to the last of the k receipts: client issues
	// and routes; the root verifies and fans out; a replica holder
	// verifies, stores, signs and answers; the client flushes the batch.
	var c wire.FileCertificate
	var err error
	step("seccrypt.IssueFileCertificate", "", 1, func() {
		c, err = fx.client.IssueFileCertificate(name, data, replicas, []byte(name), benchEpoch)
	})
	if err != nil {
		return 0, err
	}
	fx.client.RefundFileCertificate(&c)
	send(wire.Routed{Key: c.FileID.Key(), Origin: fx.refs[0], Nonce: 1, Payload: wire.InsertRequest{Cert: c, Data: data, Client: fx.refs[0], ReqID: 1}}, 1)
	atRoot, atHolder := fresh(), fresh()
	step("seccrypt.VerifyFileCertificate", "", 1, func() { seccrypt.VerifyFileCertificate(brokerPub, &c, benchEpoch) }) //nolint:errcheck // fixture certificate; timing only
	step("seccrypt.VerifyContent", "", 1, func() { seccrypt.VerifyContent(&c, atRoot) })                                //nolint:errcheck // fixture content; timing only
	send(wire.ReplicaStore{Cert: c, Data: atRoot, Client: fx.refs[0], ReqID: 1, Primary: fx.refs[1]}, 1)
	step("seccrypt.VerifyFileCertificate", "memo", 1, func() { seccrypt.VerifyFileCertificate(brokerPub, &c, benchEpoch) }) //nolint:errcheck // as above, now memoised
	step("seccrypt.VerifyContent", "", 1, func() { seccrypt.VerifyContent(&c, atHolder) })                                  //nolint:errcheck // fixture content; timing only
	item := storage.Item{Cert: c, Data: atHolder, Primary: fx.refs[1]}
	if l.sim {
		step("storage.Store.Put", "", 1, func() { err = l.mem.Put(item) })
	} else {
		step("storage.DiskStore.Put", "", 1, func() { err = l.disk.Put(item) })
	}
	if err != nil {
		return 0, err
	}
	rcpts := make([]wire.StoreReceipt, replicas)
	step("seccrypt.SignStoreReceipt", "", 1, func() { rcpts[0] = fx.receipt(0, &c, 1) })
	for k := 1; k < replicas; k++ {
		rcpts[k] = fx.receipt(k, &c, 1) // the other holders' receipts, off the path
	}
	send(rcpts[0], 1)
	step("seccrypt.Deferred.Flush", "", 1, func() { flushInsert(&c, rcpts) })
	return path, nil
}
