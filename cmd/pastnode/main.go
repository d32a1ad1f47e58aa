// Command pastnode runs one PAST storage node over TCP as a long-lived
// daemon: it joins the network with retry and backoff, re-joins through
// the same seeds by itself when a partition cuts it off (the keep-alive
// tick notices its leaf set fell below half its largest), persists
// replicas to disk when given -data (and re-verifies them against their
// certificates on restart), and shuts down cleanly on SIGINT/SIGTERM.
//
// All nodes of a deployment must share the same -broker-seed: the broker
// key pair is derived deterministically from it, standing in for the real
// third-party broker of the paper (which would distribute smartcards out
// of band). Each node then issues itself a card from that broker.
//
// Start the first node of a network:
//
//	pastnode -listen 127.0.0.1:7001 -broker-seed demo -bootstrap -data /var/lib/past/n1
//
// Add more nodes (a comma list or a seeds file; all are tried, with
// retry until one answers):
//
//	pastnode -listen 127.0.0.1:7002 -broker-seed demo -join 127.0.0.1:7001 -data /var/lib/past/n2
//	pastnode -listen 127.0.0.1:7003 -broker-seed demo -join-file seeds.txt
//
// Then use pastctl to insert and fetch files. Stop a node with SIGINT or
// SIGTERM: it leaves silently (its peers time it out, as after a crash)
// and, with -data, restarts later with its replicas intact.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"past"
	"past/internal/seccrypt"
	"past/internal/telemetry"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		brokerSeed = flag.String("broker-seed", "", "shared secret all nodes of this network derive the broker from (required); det:<n> selects the deterministic stream n")
		bootstrap  = flag.Bool("bootstrap", false, "start a brand-new network")
		join       = flag.String("join", "", "comma-separated addresses of existing nodes to join via")
		joinFile   = flag.String("join-file", "", "file with one bootstrap address per line (# comments allowed)")
		dataDir    = flag.String("data", "", "directory for persistent replica storage (empty = in-memory)")
		capacity   = flag.Int64("capacity", 256<<20, "contributed storage in bytes")
		quota      = flag.Int64("quota", 1<<40, "this node's client usage quota in bytes")
		k          = flag.Int("k", 3, "default replication factor")
		idSeed     = flag.Uint64("id-seed", 0, "deterministic card/nodeId seed (0 = random identity)")
		caching    = flag.Bool("caching", true, "cache popular files in unused storage")
		keepAlive  = flag.Duration("keepalive", 5*time.Second, "overlay keep-alive (and anti-entropy trigger) interval")
		failAfter  = flag.Duration("failtimeout", 0, "declare a silent peer dead after this long (0 = 3x keepalive)")
		sweepEvery = flag.Duration("anti-entropy", 10*time.Second, "period of the replica-repair sweep (rides the keep-alive tick): each sweep re-offers file digests to replica-set peers, so a healed cluster converges back to k replicas without operator action")
		status     = flag.Duration("status", 30*time.Second, "status print interval (0 disables)")
		telAddr    = flag.String("telemetry", "", "TCP address serving a plaintext line-protocol telemetry dump per connection (empty disables)")
		telWindow  = flag.Duration("telemetry-window", 10*time.Second, "telemetry aggregation window")
		pprofAddr  = flag.String("pprof", "", "TCP address serving net/http/pprof's /debug/pprof/ endpoints (empty disables)")
		joinWait   = flag.Duration("join-timeout", 5*time.Second, "bound on one join attempt through one seed; a join pass gives each seed in turn this long, so a dead seed costs this much, not a full operation timeout")
		dialVia    = flag.String("dial-via", "", "route all outbound connections through the egress proxy at this address (chaos/fault-injection harness); empty dials peers directly")
		brkFails   = flag.Int("breaker-threshold", 0, "consecutive dial failures before the per-peer circuit breaker opens (0 disables; suppressed peers are probed before reinstatement)")
		brkCool    = flag.Duration("breaker-cooldown", time.Second, "initial circuit-breaker cooldown (doubles per failed probe)")
		brkMax     = flag.Duration("breaker-max-cooldown", 30*time.Second, "cap on the doubled circuit-breaker cooldown; bounds how long a healed peer waits for its reinstatement probe")
	)
	flag.Parse()
	if *brokerSeed == "" {
		fmt.Fprintln(os.Stderr, "pastnode: -broker-seed is required")
		os.Exit(2)
	}
	seeds, err := bootstrapSeeds(*join, *joinFile)
	if err != nil {
		fatal(err)
	}
	if *bootstrap == (len(seeds) > 0) {
		fmt.Fprintln(os.Stderr, "pastnode: pass exactly one of -bootstrap or -join/-join-file")
		os.Exit(2)
	}
	broker, card, err := deriveIdentity(*brokerSeed, *idSeed, *quota, *capacity)
	if err != nil {
		fatal(err)
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = *k
	scfg.Capacity = *capacity
	scfg.Caching = *caching
	scfg.AntiEntropyEvery = *sweepEvery
	if *failAfter <= 0 {
		*failAfter = 3 * *keepAlive
	}
	peer, err := past.ListenPeer(past.PeerConfig{
		Listen:      *listen,
		Card:        card,
		BrokerPub:   broker.PublicKey(),
		Storage:     scfg,
		DataDir:     *dataDir,
		KeepAlive:   *keepAlive,
		FailTimeout: *failAfter,
		// Membership anti-entropy: exchange leaf sets with one random peer
		// every 4th keep-alive tick, repairing partial views left by lossy
		// joins.
		LeafSync:    4,
		JoinTimeout: *joinWait,
		DialVia:     *dialVia,
		Breaker:     past.BreakerOptions{Threshold: *brkFails, Cooldown: *brkCool, MaxCooldown: *brkMax},
	})
	if err != nil {
		fatal(err)
	}
	defer peer.Close()
	fmt.Printf("pastnode: nodeId %s listening on %s\n", peer.Ref().ID, peer.Addr())
	if *dataDir != "" {
		recovered, quarantined := peer.Recovered()
		fmt.Printf("pastnode: recovered %d files from %s (%d quarantined)\n", recovered, *dataDir, quarantined)
	}

	// Telemetry: wall-clock windows relative to process start, stamped
	// with real time via the epoch. The recorder always runs (it is a few
	// ring buffers); -telemetry only controls the dump listener.
	start := time.Now()
	rec := telemetry.New(telemetry.Config{Window: *telWindow, EpochNs: start.UnixNano()})
	rec.SetTag("node", peer.Ref().ID.String())
	peer.RegisterTelemetry(rec)
	// The verification memo is process-wide, so only a process that is
	// one node can export it as that node's series.
	rec.Counts("seccrypt", []string{"memo_hits", "memo_misses"}, func(tot []uint64) {
		tot[0], tot[1] = seccrypt.MemoStats()
	})

	if *telAddr != "" {
		ln, err := net.Listen("tcp", *telAddr)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Printf("pastnode: telemetry on %s\n", ln.Addr())
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return // listener closed on shutdown
				}
				rec.Tick(time.Since(start))
				_ = rec.WriteLP(conn)
				conn.Close() //nolint:errcheck // one-shot dump socket
			}
		}()
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		// Its own mux: nothing else the process registers on
		// http.DefaultServeMux is served here.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("pastnode: pprof on %s\n", ln.Addr())
		go http.Serve(ln, mux) //nolint:errcheck // returns when the listener closes on shutdown
	}
	if *bootstrap {
		peer.Bootstrap()
		fmt.Println("pastnode: bootstrapped new PAST network")
	} else {
		// Join until it succeeds, with capped backoff: a node started
		// before its seeds keeps retrying instead of dying, and each pass
		// starts past the seeds the last one burned. Once joined, the
		// node's keep-alive tick re-joins through the same seeds whenever
		// its view collapses (the small side of a partition), so nothing
		// here watches membership. Shutdown does not wait for this loop:
		// a pass still pending ends with the process.
		go func() {
			for delay := 500 * time.Millisecond; ; delay = min(2*delay, 15*time.Second) {
				err := peer.Join(seeds...)
				if err == nil {
					fmt.Printf("pastnode: joined network (%d peers known)\n", peer.KnownPeers())
					return
				}
				fmt.Printf("pastnode: join: %v; retrying in %s\n", err, delay)
				time.Sleep(delay)
			}
		}()
	}

	// snapshot flushes the telemetry ring buffers and prints the full
	// operator view: disk recovery counts and every series (transport and
	// breaker counters included) in line protocol. Used by SIGUSR1 on
	// demand and once more on graceful shutdown, so the last partial
	// window is never lost.
	snapshot := func(label string) {
		rec.Tick(time.Since(start))
		recovered, quarantined := peer.Recovered()
		fmt.Printf("pastnode: %s (uptime %s)\n", label, time.Since(start).Round(time.Second))
		fmt.Printf("pastnode: disk: recovered %d, quarantined %d\n", recovered, quarantined)
		_ = rec.WriteLP(os.Stdout)
	}

	// The periodic work is one loop. The telemetry flush is the daemon's
	// analogue of the simulator's window barrier: it ticks the recorder on
	// the real clock, at half-window cadence to bound how late a boundary
	// can be noticed.
	flush := time.NewTicker(*telWindow / 2)
	defer flush.Stop()
	var statusC <-chan time.Time
	if *status > 0 {
		st := time.NewTicker(*status)
		defer st.Stop()
		statusC = st.C
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for {
		select {
		case <-flush.C:
			rec.Tick(time.Since(start))
		case <-statusC:
			recovered, quarantined := peer.Recovered()
			line := fmt.Sprintf("pastnode: storing %d files, %d peers known", peer.StoredFiles(), peer.KnownPeers())
			if *dataDir != "" {
				line += fmt.Sprintf(", disk recovered %d / quarantined %d", recovered, quarantined)
			}
			fmt.Println(line)
		case s := <-sig:
			if s == syscall.SIGUSR1 {
				snapshot("telemetry snapshot")
				continue
			}
			fmt.Printf("pastnode: %s: shutting down\n", s)
			snapshot("final telemetry snapshot")
			return // peer.Close (deferred) leaves silently and closes the transport
		}
	}
}

// bootstrapSeeds merges the -join list and the -join-file contents.
func bootstrapSeeds(join, joinFile string) ([]string, error) {
	var seeds []string
	for _, s := range strings.Split(join, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}
	if joinFile != "" {
		data, err := os.ReadFile(joinFile)
		if err != nil {
			return nil, fmt.Errorf("read -join-file: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			seeds = append(seeds, line)
		}
	}
	return seeds, nil
}

// deriveIdentity derives the shared broker from the seed and issues this
// node's card. In a real deployment the broker is a third party and cards
// arrive out of band (section 2.1); the shared seed is the demo stand-in.
// idSeed non-zero pins the card (and so the nodeId) to a deterministic
// stream — how the conformance harness reproduces the simulator's
// identities in real processes.
func deriveIdentity(seed string, idSeed uint64, quota, capacity int64) (*seccrypt.Broker, *seccrypt.Smartcard, error) {
	broker, err := past.DeriveBroker(seed)
	if err != nil {
		return nil, nil, err
	}
	var rng io.Reader
	if idSeed != 0 {
		rng = seccrypt.DetRand(idSeed)
	}
	card, err := broker.IssueCard(quota, capacity, 0, rng)
	if err != nil {
		return nil, nil, err
	}
	return broker, card, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pastnode: %v\n", err)
	os.Exit(1)
}
