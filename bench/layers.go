package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"past"
	simcluster "past/internal/cluster"
	"past/internal/id"
	"past/internal/pastry"
	"past/internal/seccrypt"
	"past/internal/simnet"
	"past/internal/storage"
	"past/internal/telemetry"
	"past/internal/transport"
	"past/internal/wire"
)

// layerBench runs the per-layer microbenchmarks of the traced run: direct
// calls into each module's exported functions on inputs shaped like the
// workloads'. The numbers are not gated; they attribute the end-to-end
// figures to layers (see the interaction table in README.md).
type layerBench struct {
	seed    int64
	dir     string // on the run's data-dir filesystem
	ownDir  string // on the checkout's own filesystem
	scale   int    // divides iteration counts (-quick)
	metrics []metric
	fx      *fixture
}

func (b *layerBench) add(name, unit string, v float64) {
	b.metrics = append(b.metrics, metric{name, unit, v})
}

// n scales an iteration count down for -quick, keeping at least 2.
func (b *layerBench) n(full int) int { return max(full/b.scale, 2) }

// perOp times fn over n calls, three passes, and returns the median
// pass's mean time per call.
func perOp(n int, fn func(i int)) time.Duration {
	var passes []float64
	for p := 0; p < 3; p++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(p*n + i)
		}
		passes = append(passes, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(median(passes))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// fixture holds signed protocol objects the microbenchmarks and the ladder
// replay share: a broker, a client card, k node cards.
type fixture struct {
	broker *past.Broker
	client *past.Smartcard
	nodes  []*past.Smartcard
	refs   []wire.NodeRef
}

func newFixture(seed int64) (*fixture, error) {
	broker, err := past.DeriveBroker(fmt.Sprintf("det:%d", seed+9001))
	if err != nil {
		return nil, err
	}
	fx := &fixture{broker: broker}
	for i := 0; i <= replicas; i++ {
		card, err := broker.IssueCard(1<<50, 1<<40, 0, past.DetCardRand(seed+9001, i))
		if err != nil {
			return nil, err
		}
		ref := wire.NodeRef{ID: card.NodeID(), Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i)}
		if i == 0 {
			fx.client = card
		} else {
			fx.nodes = append(fx.nodes, card)
		}
		fx.refs = append(fx.refs, ref)
	}
	return fx, nil
}

const benchEpoch = 1_000_000_000 // the certificate clock of past.DefaultStorageConfig

// cert issues a certificate for content under a name unique to tag. The
// quota charge is refunded so the fixture card never runs dry.
func (fx *fixture) cert(tag string, content []byte) wire.FileCertificate {
	salt := []byte(tag)
	c, err := fx.client.IssueFileCertificate(tag, content, replicas, salt, benchEpoch)
	if err != nil {
		panic(err) // unlimited quota and valid arguments: a bug
	}
	fx.client.RefundFileCertificate(&c)
	return c
}

func (fx *fixture) receipt(node int, c *wire.FileCertificate, reqID uint64) wire.StoreReceipt {
	r := wire.StoreReceipt{FileID: c.FileID, StoredBy: fx.refs[node+1], OnBehalfOf: fx.refs[node+1], Size: c.Size, ReqID: reqID}
	fx.nodes[node].SignStoreReceipt(&r)
	return r
}

// content returns a fresh buffer of deterministic bytes; fresh because
// seccrypt memoises content hashes by buffer identity.
func content(size int, seed int64, i int) []byte {
	b := make([]byte, size)
	fillContent(b, seed, 1<<20, i)
	return b
}

func (b *layerBench) run() error {
	var err error
	if b.fx, err = newFixture(b.seed); err != nil {
		return err
	}
	for _, step := range []func() error{b.idLayer, b.seccryptLayer, b.storageLayer, b.wireLayer, b.transportLayer, b.simnetLayer, b.clusterLayer, b.pastLayer, b.telemetryLayer} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

var sink any // defeats dead-code elimination of measured calls

func (b *layerBench) idLayer() error {
	pub := b.fx.client.PublicKey()
	salt := []byte("saltsalt")
	b.add("id.hash_file_ns", "ns", ns(perOp(b.n(20000), func(i int) { sink = id.HashFile("bench/file/name", pub, salt) })))
	x, y := id.Rand(uint64(b.seed)), id.Rand(uint64(b.seed)+1)
	b.add("id.common_prefix_ns", "ns", ns(perOp(b.n(2000000), func(i int) { sink = id.CommonPrefix(x, y, 4) })))
	return nil
}

func (b *layerBench) seccryptLayer() error {
	fx := b.fx
	for _, sz := range []struct {
		tag  string
		size int
		n    int
	}{{"4k", smallFile, 300}, {"256k", maxFile, 30}} {
		n := b.n(sz.n)
		bufs := make([][]byte, 3*n)
		for i := range bufs {
			bufs[i] = content(sz.size, b.seed, i)
		}
		certs := make([]wire.FileCertificate, 3*n)
		d := perOp(n, func(i int) { certs[i] = fx.cert(fmt.Sprintf("issue-%s-%d", sz.tag, i), bufs[i]) })
		b.add("seccrypt.issue_cert_us."+sz.tag, "us", us(d))
		d = perOp(n, func(i int) {
			if err := seccrypt.VerifyContentFresh(&certs[i], bufs[i]); err != nil {
				panic(err)
			}
		})
		b.add("seccrypt.verify_content_us."+sz.tag, "us", us(d))
		if sz.size != smallFile {
			continue
		}
		verify := func(i int) {
			if err := seccrypt.VerifyFileCertificate(fx.broker.PublicKey(), &certs[i], benchEpoch); err != nil {
				panic(err)
			}
		}
		b.add("seccrypt.verify_cert_fresh_us", "us", us(perOp(n, verify)))
		b.add("seccrypt.verify_cert_memo_ns", "ns", ns(perOp(n, verify)))
		rcpts := make([]wire.StoreReceipt, 3*n)
		b.add("seccrypt.sign_receipt_us", "us", us(perOp(n, func(i int) { rcpts[i] = fx.receipt(i%replicas, &certs[i], uint64(i)) })))
		// The client's flush: its own certificate plus k receipts, none of
		// the receipts seen before.
		fresh := make([][]wire.StoreReceipt, 3*n)
		for i := range fresh {
			for k := 0; k < replicas; k++ {
				fresh[i] = append(fresh[i], fx.receipt(k, &certs[i], uint64(1000+i)))
			}
		}
		b.add("seccrypt.flush_cert_k3_us", "us", us(perOp(n, func(i int) { flushInsert(&certs[i], fresh[i]) })))
	}
	return nil
}

// flushInsert is the client's end-of-insert batch verification.
func flushInsert(c *wire.FileCertificate, rcpts []wire.StoreReceipt) {
	d := seccrypt.NewDeferred()
	d.DeferFileCertificate(c)
	for i := range rcpts {
		d.DeferStoreReceipt(&rcpts[i])
	}
	if !d.Flush() {
		panic("bench: fixture receipts failed batch verification")
	}
	d.Release()
}

func (b *layerBench) item(tag string, size, i int) storage.Item {
	data := content(size, b.seed, i)
	return storage.Item{Cert: b.fx.cert(fmt.Sprintf("%s-%d", tag, i), data), Data: data, Primary: b.fx.refs[1]}
}

func (b *layerBench) storageLayer() error {
	n := b.n(1000)
	items := make([]storage.Item, 3*n)
	for i := range items {
		items[i] = b.item("mem", 1024, i)
	}
	mem := storage.NewStore(1 << 40)
	b.add("storage.mem_put_ns", "ns", ns(perOp(n, func(i int) {
		if err := mem.Put(items[i]); err != nil {
			panic(err)
		}
	})))
	b.add("storage.mem_get_ns", "ns", ns(perOp(n, func(i int) {
		if _, err := mem.Get(items[i].Cert.FileID); err != nil {
			panic(err)
		}
	})))
	cache := storage.NewCache(1 << 20)
	b.add("storage.cache_put_get_ns", "ns", ns(perOp(n, func(i int) {
		it := items[i%256]
		cache.Put(it, float64(i%37))
		cache.Get(it.Cert.FileID)
	})))

	// Disk: the run's data-dir filesystem, and the checkout's own (the same
	// unless -datadir points elsewhere, e.g. at a tmpfs).
	put := func(dir, tag string, size, n int) (time.Duration, error) {
		ds, err := storage.OpenDiskStore(dir, 1<<40)
		if err != nil {
			return 0, err
		}
		its := make([]storage.Item, 3*n)
		for i := range its {
			its[i] = b.item(tag, size, i)
		}
		var perr error
		d := perOp(n, func(i int) {
			if err := ds.Put(its[i]); err != nil {
				perr = err
			}
		})
		return d, perr
	}
	n4k := b.n(300) // x3 passes: 900 entries for the reopen below
	dir4k := filepath.Join(b.dir, "disk4k")
	w0 := procField("/proc/self/io", "syscw:")
	d, err := put(dir4k, "d4k", smallFile, n4k)
	if err != nil {
		return err
	}
	w1 := procField("/proc/self/io", "syscw:")
	b.add("storage.disk_put_us.4k", "us", us(d))
	b.add("storage.write_syscalls_per_put", "count", ratio(float64(w1-w0), float64(3*n4k)))
	entries, err := os.ReadDir(dir4k)
	if err != nil {
		return err
	}
	b.add("storage.files_per_replica", "count", ratio(float64(len(entries)), float64(3*n4k)))
	t0 := time.Now()
	_, rep, err := storage.OpenDiskStoreVerify(dir4k, 1<<40, func(c wire.FileCertificate, data []byte) error {
		return seccrypt.VerifyContent(&c, data)
	})
	if err != nil {
		return err
	}
	if rep.Recovered != 3*n4k || rep.Quarantined != 0 {
		return fmt.Errorf("storage reopen recovered %d of %d entries and quarantined %d", rep.Recovered, 3*n4k, rep.Quarantined)
	}
	b.add("storage.open_verify_us_per_file", "us", ratio(us(time.Since(t0)), float64(rep.Recovered)))
	if d, err = put(filepath.Join(b.dir, "disk256k"), "d256k", maxFile, b.n(10)); err != nil {
		return err
	}
	b.add("storage.disk_put_us.256k", "us", us(d))
	if err := os.MkdirAll(b.ownDir, 0o755); err != nil {
		return err
	}
	own, err := os.MkdirTemp(b.ownDir, "ondisk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(own) //nolint:errcheck // scratch data
	if d, err = put(own, "own4k", smallFile, b.n(150)); err != nil {
		return err
	}
	b.add("storage.ondisk_put_us.4k", "us", us(d))
	return nil
}

// frames returns the protocol messages of one 4 KiB insert and lookup as
// they cross a socket, built from real signed objects.
func (b *layerBench) frames(size int) map[string]wire.Msg {
	fx := b.fx
	data := content(size, b.seed, 7)
	c := fx.cert(fmt.Sprintf("frame-%d", size), data)
	key := c.FileID.Key()
	return map[string]wire.Msg{
		"lookup_request": wire.Routed{Key: key, Origin: fx.refs[0], Nonce: 1, Payload: wire.LookupRequest{FileID: c.FileID, Client: fx.refs[0], ReqID: 1}},
		"lookup_reply":   wire.LookupReply{Cert: c, Data: data, From: fx.refs[1], ReqID: 1, Hops: 1, Distance: 0.1},
		"insert_request": wire.Routed{Key: key, Origin: fx.refs[0], Nonce: 1, Payload: wire.InsertRequest{Cert: c, Data: data, Client: fx.refs[0], ReqID: 1}},
		"replica_store":  wire.ReplicaStore{Cert: c, Data: data, Client: fx.refs[0], ReqID: 1, Primary: fx.refs[1]},
		"store_receipt":  fx.receipt(0, &c, 1),
		"keepalive":      wire.Heartbeat{From: fx.refs[1]},
	}
}

// wireLayer measures encoded frame sizes by pointing a transport at a raw
// listener and reading what arrives.
func (b *layerBench) wireLayer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tr.Close()
	msgs := b.frames(smallFile)
	order := []struct{ key, metric string }{
		{"lookup_request", "lookup_request"}, {"lookup_reply", "lookup_reply_4k"},
		{"insert_request", "insert_request_4k"}, {"replica_store", "replica_store_4k"},
		{"store_receipt", "store_receipt"}, {"keepalive", "keepalive"},
	}
	if err := tr.Send(ln.Addr().String(), msgs[order[0].key]); err != nil {
		return err
	}
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	size := map[string]float64{}
	for i, o := range order {
		if i > 0 {
			if err := tr.Send(ln.Addr().String(), msgs[o.key]); err != nil {
				return err
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a TCP conn accepts deadlines
		payload, err := transport.ReadRawFrame(conn, 8<<20)
		if err != nil {
			return fmt.Errorf("read %s frame: %w", o.key, err)
		}
		size[o.key] = float64(len(payload) + 4) // plus the length prefix
		b.add("wire.frame_bytes."+o.metric, "B", size[o.key])
	}
	// One routed hop to the root (18 members < L=32), k-1 replica stores
	// from the root, k receipts back; one request and one reply per lookup.
	b.add("wire.bytes_per_insert_4k", "B", size["insert_request"]+(replicas-1)*size["replica_store"]+replicas*size["store_receipt"])
	b.add("wire.bytes_per_lookup_4k", "B", size["lookup_request"]+size["lookup_reply"])
	return nil
}

// pair is two standalone transports on loopback. b either echoes what it
// receives back to a, whose handler signals back, or acknowledges each
// delivery on credits.
type pair struct {
	a, b      *transport.TCP
	delivered atomic.Int64
	echo      atomic.Bool
	back      chan struct{}
	// credits holds one token per message b's handler has seen; its
	// capacity exceeds anything a test keeps in flight.
	credits chan struct{}
}

func newPair() (*pair, error) {
	p := &pair{back: make(chan struct{}, 1), credits: make(chan struct{}, 4096)}
	var err error
	if p.a, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if p.b, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		p.a.Close() //nolint:errcheck // already failing
		return nil, err
	}
	p.b.SetHandler(func(from string, m wire.Msg) {
		p.delivered.Add(1)
		if p.echo.Load() {
			p.b.Send(from, m) //nolint:errcheck // Send reports only a closed transport
			return
		}
		p.credits <- struct{}{}
	})
	p.a.SetHandler(func(string, wire.Msg) { p.back <- struct{}{} })
	return p, nil
}

func (p *pair) close() {
	p.a.Close() //nolint:errcheck // teardown
	p.b.Close() //nolint:errcheck // teardown
}

func (p *pair) send(m wire.Msg) {
	p.a.Send(p.b.Addr(), m) //nolint:errcheck // Send reports only a closed transport
}

// sendDeliver sends m from a and waits until b's handler has it.
func (p *pair) sendDeliver(m wire.Msg) time.Duration {
	t0 := time.Now()
	p.send(m)
	<-p.credits
	return time.Since(t0)
}

// flood sends n copies of m one way, keeping at most window in flight so
// the 256-slot peer queue never drops, and returns the wall time.
func (p *pair) flood(m wire.Msg, n, window int) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if i >= window {
			<-p.credits
		}
		p.send(m)
	}
	for i := 0; i < min(n, window); i++ {
		<-p.credits
	}
	return time.Since(t0)
}

func (b *layerBench) transportLayer() error {
	p, err := newPair()
	if err != nil {
		return err
	}
	defer p.close()
	small := b.frames(smallFile)["keepalive"]
	reply4k := b.frames(smallFile)["lookup_reply"]
	reply256k := b.frames(maxFile)["lookup_reply"]
	p.sendDeliver(small) // dial

	p.echo.Store(true)
	rtt := func(m wire.Msg) time.Duration {
		return perOp(b.n(500), func(int) {
			p.send(m)
			<-p.back
		})
	}
	b.add("transport.rtt_us.small", "us", us(rtt(small)))
	b.add("transport.rtt_us.4k", "us", us(rtt(reply4k)))
	p.echo.Store(false)

	var m0, m1 runtime.MemStats
	n := b.n(10000)
	runtime.ReadMemStats(&m0)
	io0 := procField("/proc/self/io", "syscr:") + procField("/proc/self/io", "syscw:")
	wall := p.flood(small, n, 128)
	io1 := procField("/proc/self/io", "syscr:") + procField("/proc/self/io", "syscw:")
	runtime.ReadMemStats(&m1)
	b.add("transport.oneway_msgs_s.small", "1/s", ratio(float64(n), wall.Seconds()))
	b.add("transport.allocs_per_msg.small", "count", ratio(float64(m1.Mallocs-m0.Mallocs), float64(n)))
	b.add("transport.syscalls_per_msg.small", "count", ratio(float64(io1-io0), float64(n)))

	n = b.n(2000)
	runtime.ReadMemStats(&m0)
	p.flood(reply4k, n, 128)
	runtime.ReadMemStats(&m1)
	b.add("transport.alloc_bytes_per_msg.4k", "B", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(n)))

	n = b.n(100)
	wall = p.flood(reply256k, n, 16)
	b.add("transport.oneway_mib_s.256k", "MiB/s", ratio(float64(n)*maxFile/(1<<20), wall.Seconds()))

	// A burst with nothing pacing it: what the bounded peer queue drops,
	// it drops silently.
	const burst = 1000
	start := p.delivered.Load()
	for i := 0; i < burst; i++ {
		p.send(small)
	}
	for last, idle := int64(-1), 0; idle < 20; {
		time.Sleep(5 * time.Millisecond)
		if now := p.delivered.Load(); now == last {
			idle++
		} else {
			last, idle = now, 0
		}
	}
	got := p.delivered.Load() - start
	for i := int64(0); i < got; i++ {
		<-p.credits
	}
	b.add("transport.burst_delivered_frac", "ratio", float64(got)/burst)

	// First message to a peer never contacted: listen, dial, deliver.
	var dials []float64
	for i := 0; i < b.n(60); i++ {
		c, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return err
		}
		t0 := time.Now()
		c.Send(p.b.Addr(), small) //nolint:errcheck // Send reports only a closed transport
		<-p.credits
		dials = append(dials, us(time.Since(t0)))
		c.Close() //nolint:errcheck // teardown
	}
	b.add("transport.dial_us", "us", median(dials))
	return nil
}

func (b *layerBench) simnetLayer() error {
	net := simnet.New(simnet.Config{Seed: b.seed}, nil)
	src, dst := net.NewEndpoint(), net.NewEndpoint()
	dst.SetHandler(func(string, wire.Msg) {})
	hb := wire.Heartbeat{}
	b.add("simnet.send_deliver_ns", "ns", ns(perOp(b.n(300000), func(int) {
		src.Send(dst.Addr(), hb) //nolint:errcheck // the simulated send cannot fail between live endpoints
		net.Step()
	})))
	b.add("simnet.timer_ns", "ns", ns(perOp(b.n(300000), func(int) {
		net.AfterFunc(time.Millisecond, func() {}).Release()
		net.Step()
	})))
	return nil
}

func (b *layerBench) clusterLayer() error {
	nodes := b.n(1024)
	factory, recs := simcluster.RecorderFactory(nodes)
	t0 := time.Now()
	c, err := simcluster.Build(simcluster.Options{N: nodes, Pastry: pastry.DefaultConfig(), Seed: b.seed, AppFactory: factory})
	if err != nil {
		return err
	}
	b.add("cluster.build_ms.1024", "ms", ms(time.Since(t0)))

	delivered, hops := 0, 0
	for _, r := range recs {
		r.OnDeliver = func(d simcluster.Delivery) {
			delivered++
			hops += d.Routed.Hops
		}
	}
	rng := c.Rand()
	d := perOp(b.n(3000), func(i int) {
		c.Nodes[rng.Intn(nodes)].Route(id.Rand(uint64(b.seed)<<32+uint64(i)), simcluster.ProbeMsg{Seq: uint64(i)})
		c.Net.RunUntil(func() bool { return delivered > i }, 1_000_000)
	})
	b.add("pastry.sim_route_us.1024", "us", us(d))
	b.add("pastry.sim_hops_per_lookup.1024", "count", ratio(float64(hops), float64(delivered)))

	// Keep-alive load, on a network of its own: with heartbeats on, the
	// route probes above would each wade through a round of them.
	ka := b.n(256)
	pcfg := pastry.DefaultConfig()
	pcfg.KeepAlive = 500 * time.Millisecond
	pcfg.FailTimeout = 1500 * time.Millisecond
	if c, err = simcluster.Build(simcluster.Options{N: ka, Pastry: pcfg, Seed: b.seed}); err != nil {
		return err
	}
	c.EnableProbes()
	c.Net.ResetCounters()
	const virtual = 4 * time.Second
	c.Net.RunFor(virtual)
	b.add("pastry.sim_keepalive_msgs_per_node_s", "1/s", float64(c.Net.MessagesByKind()["heartbeat"])/float64(ka)/virtual.Seconds())

	big := b.n(20000)
	pcfg = pastry.DefaultConfig()
	pcfg.CompactRand = true
	t0 = time.Now()
	if _, err := simcluster.Build(simcluster.Options{N: big, Pastry: pcfg, Seed: b.seed, Analytic: true, Shards: 1}); err != nil {
		return err
	}
	b.add("cluster.analytic_build_ms.20000", "ms", ms(time.Since(t0)))
	return nil
}

// pastLayer is the historic Insert4KiB / Lookup4KiB shape: the full
// protocol on a 64-node simulated network, no sockets and no disk, so
// real minus sim is what sockets, codec and disk add.
func (b *layerBench) pastLayer() error {
	nw, err := past.NewNetwork(past.NetworkConfig{N: 64, Seed: b.seed})
	if err != nil {
		return err
	}
	n := b.n(200)
	bufs := make([][]byte, 3*n)
	for i := range bufs {
		bufs[i] = content(smallFile, b.seed, 100000+i)
	}
	ids := make([]past.FileID, 3*n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	msgs0 := nw.Messages()
	var ierr error
	d := perOp(n, func(i int) {
		r, err := nw.Insert(i%64, nil, fmt.Sprintf("sim-%d", i), bufs[i], replicas)
		if err != nil {
			ierr = err
		}
		ids[i] = r.FileID
	})
	if ierr != nil {
		return fmt.Errorf("sim insert: %w", ierr)
	}
	msgs1 := nw.Messages()
	runtime.ReadMemStats(&m1)
	b.add("past.sim_insert_4k_us", "us", us(d))
	b.add("past.sim_insert_allocs", "count", ratio(float64(m1.Mallocs-m0.Mallocs), float64(3*n)))
	b.add("past.msgs_per_insert", "count", ratio(float64(msgs1-msgs0), float64(3*n)))
	d = perOp(n, func(i int) {
		if _, err := nw.Lookup((i+17)%64, ids[i]); err != nil {
			ierr = err
		}
	})
	if ierr != nil {
		return fmt.Errorf("sim lookup: %w", ierr)
	}
	b.add("past.sim_lookup_4k_us", "us", us(d))
	b.add("past.msgs_per_lookup", "count", ratio(float64(nw.Messages()-msgs1), float64(3*n)))
	return nil
}

// telemetryLayer times one window flush of a recorder holding one peer's
// series. Nothing ticks a recorder in the benchmark's cluster; this is the
// cost the daemon pays per window.
func (b *layerBench) telemetryLayer() error {
	p, err := past.ListenPeer(past.PeerConfig{Card: b.fx.nodes[0], BrokerPub: b.fx.broker.PublicKey()})
	if err != nil {
		return err
	}
	defer p.Close() //nolint:errcheck // teardown
	p.Bootstrap()
	rec := telemetry.New(telemetry.Config{Window: time.Second})
	p.RegisterTelemetry(rec)
	rec.Tick(0)
	b.add("telemetry.tick_us", "us", us(perOp(b.n(20000), func(i int) { rec.Tick(time.Duration(i+1) * time.Second) })))
	return nil
}
