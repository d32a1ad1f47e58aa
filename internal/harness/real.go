package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"past"
	"past/internal/cluster"
	"past/internal/seccrypt"
)

// ClusterOptions extend StartRealCluster for the chaos scenarios.
type ClusterOptions struct {
	// KeepAlive is the overlay keep-alive interval (failure detection
	// cadence derives from it).
	KeepAlive time.Duration
	// ExtraArgs are appended to every node's flag list — how scenarios
	// switch on -dial-via, -failtimeout, -breaker-threshold, -telemetry, ...
	ExtraArgs []string
	// ListenAddrs, when non-empty, pins node i's listen address to
	// ListenAddrs[i] instead of a kernel-picked port. Chaos schedules name
	// links by address, so a scenario that wants per-link rules reserves
	// addresses first (ReserveAddrs) and hands them to both the proxy
	// schedule and the cluster.
	ListenAddrs []string
}

// RealCluster is a set of pastnode processes on loopback sharing one
// deterministic identity scheme with RunSim (cluster.BrokerSeed,
// cluster.CardSeed) — so node i's nodeId equals simulator node i's.
type RealCluster struct {
	Spec      *Spec
	Dir       string
	Nodes     []*ProcNode
	KeepAlive time.Duration
	Opts      ClusterOptions
}

// BrokerSeed returns the -broker-seed string all members share.
func (rc *RealCluster) BrokerSeed() string {
	return "det:" + strconv.FormatUint(cluster.BrokerSeed(rc.Spec.Seed), 10)
}

// nodeArgs assembles the pastnode flags for node i. joinAddr empty means
// -bootstrap (node 0).
func (rc *RealCluster) nodeArgs(i int, joinAddr string) []string {
	listen := "127.0.0.1:0"
	if i < len(rc.Opts.ListenAddrs) {
		listen = rc.Opts.ListenAddrs[i]
	}
	args := []string{
		"-listen", listen,
		"-broker-seed", rc.BrokerSeed(),
		"-id-seed", strconv.FormatUint(cluster.CardSeed(rc.Spec.Seed, i), 10),
		"-data", filepath.Join(rc.Dir, fmt.Sprintf("n%d", i)),
		"-capacity", strconv.FormatInt(rc.Spec.Capacity, 10),
		"-k", strconv.Itoa(rc.Spec.K),
		"-caching=false",
		"-keepalive", rc.KeepAlive.String(),
		"-anti-entropy", (2 * rc.KeepAlive).String(),
		"-status", "300ms",
	}
	args = append(args, rc.Opts.ExtraArgs...)
	if joinAddr == "" {
		args = append(args, "-bootstrap")
	} else {
		args = append(args, "-join", joinAddr)
	}
	return args
}

// StartRealCluster builds the data dirs under dir, boots node 0 as the
// bootstrap and joins the rest through it sequentially, then waits until
// every member sees the full membership. Node logs go to dir/n<i>.log.
func StartRealCluster(bin, dir string, spec *Spec, keepAlive time.Duration) (*RealCluster, error) {
	return StartRealClusterOpts(bin, dir, spec, ClusterOptions{KeepAlive: keepAlive})
}

// StartRealClusterOpts is StartRealCluster with per-scenario options; the
// chaos scenarios use it to interpose the fault proxy and switch on the
// daemon's self-healing knobs.
func StartRealClusterOpts(bin, dir string, spec *Spec, opts ClusterOptions) (*RealCluster, error) {
	if opts.KeepAlive <= 0 {
		opts.KeepAlive = 500 * time.Millisecond
	}
	rc := &RealCluster{Spec: spec, Dir: dir, KeepAlive: opts.KeepAlive, Opts: opts}
	for i := 0; i < spec.Nodes; i++ {
		joinAddr := ""
		if i > 0 {
			joinAddr = rc.Nodes[0].Addr()
		}
		p, err := StartProc(bin, rc.nodeArgs(i, joinAddr), filepath.Join(dir, fmt.Sprintf("n%d.log", i)))
		if err != nil {
			rc.StopAll()
			return nil, err
		}
		rc.Nodes = append(rc.Nodes, p)
		if err := p.WaitListening(20 * time.Second); err != nil {
			rc.StopAll()
			return nil, err
		}
		marker := "joined network"
		if i == 0 {
			marker = "bootstrapped"
		}
		if _, err := p.WaitLine(marker, 30*time.Second); err != nil {
			rc.StopAll()
			return nil, err
		}
	}
	if err := rc.WaitConverged(spec.Nodes-1, 30*time.Second); err != nil {
		rc.StopAll()
		return nil, err
	}
	return rc, nil
}

// WaitConverged blocks until every running node's status line reports at
// least want known peers.
func (rc *RealCluster) WaitConverged(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, p := range rc.Nodes {
			if p.PeersKnown() < want {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: membership did not converge to %d peers within %v", want, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// DataDirs maps each node's nodeId to its data directory, the input for
// DiskHolders.
func (rc *RealCluster) DataDirs() map[string]string {
	dirs := make(map[string]string)
	for i, p := range rc.Nodes {
		dirs[p.NodeID()] = filepath.Join(rc.Dir, fmt.Sprintf("n%d", i))
	}
	return dirs
}

// StopAll terminates every node (gracefully, escalating as needed).
func (rc *RealCluster) StopAll() {
	for _, p := range rc.Nodes {
		p.Stop(5 * time.Second) //nolint:errcheck // teardown is best-effort
	}
}

// NewClient starts the in-process capacity-zero client peer — the
// pastctl role — holding the deterministic client card (index
// spec.Nodes, matching the simulator's client node) and joined through
// node 0.
func (rc *RealCluster) NewClient(opTimeout time.Duration) (*past.Peer, *past.Smartcard, error) {
	return rc.NewClientOpts(opTimeout, nil)
}

// NewClientOpts is NewClient with a configuration hook: mutate (nil ok)
// runs on the assembled PeerConfig before the peer starts, so chaos
// scenarios can route the client through the fault proxy and arm its
// retry/resend knobs without another constructor variant.
func (rc *RealCluster) NewClientOpts(opTimeout time.Duration, mutate func(*past.PeerConfig)) (*past.Peer, *past.Smartcard, error) {
	broker, err := past.DeriveBroker(rc.BrokerSeed())
	if err != nil {
		return nil, nil, err
	}
	card, err := broker.IssueCard(1<<50, 0, 0, seccrypt.DetRand(cluster.CardSeed(rc.Spec.Seed, rc.Spec.ClientIndex())))
	if err != nil {
		return nil, nil, err
	}
	scfg := past.DefaultStorageConfig()
	scfg.K = rc.Spec.K
	scfg.Capacity = 0
	scfg.Caching = false
	// Derive the per-attempt protocol timeout from opTimeout (the facade
	// fills zero with it); a mutate hook that sets its own wins.
	scfg.RequestTimeout = 0
	pcfg := past.PeerConfig{
		Card:      card,
		BrokerPub: broker.PublicKey(),
		Storage:   scfg,
		KeepAlive: rc.KeepAlive,
		OpTimeout: opTimeout,
	}
	if mutate != nil {
		mutate(&pcfg)
	}
	peer, err := past.ListenPeer(pcfg)
	if err != nil {
		return nil, nil, err
	}
	// A few join rounds with backoff: on a lossy chaos network the first
	// attempt's handshake frames may simply vanish.
	var joinErr error
	for attempt := 0; attempt < 5; attempt++ {
		if joinErr = peer.Join(rc.liveAddrs()...); joinErr == nil {
			break
		}
		time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
	}
	if joinErr != nil {
		peer.Close()
		return nil, nil, joinErr
	}
	// Converge: the client must see all storage nodes, and they must all
	// see the client, before placement is meaningful.
	deadline := time.Now().Add(20 * time.Second)
	for peer.KnownPeers() < rc.Spec.Nodes {
		if time.Now().After(deadline) {
			peer.Close()
			return nil, nil, fmt.Errorf("harness: client sees %d peers, want %d", peer.KnownPeers(), rc.Spec.Nodes)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := rc.WaitConverged(rc.Spec.Nodes, 20*time.Second); err != nil {
		peer.Close()
		return nil, nil, err
	}
	return peer, card, nil
}

func (rc *RealCluster) liveAddrs() []string {
	var addrs []string
	for _, p := range rc.Nodes {
		if a := p.Addr(); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// RunReal drives the Spec through the real cluster exactly as RunSim
// drives it through the simulator: the same items, salts, k, and client
// identity, via real pastctl-style blocking calls over TCP.
func RunReal(rc *RealCluster) (Outcome, error) {
	out := Outcome{Placement: map[string][]string{}}
	client, card, err := rc.NewClient(20 * time.Second)
	if err != nil {
		return out, err
	}
	defer client.Close()

	fileIDs := make([]past.FileID, len(rc.Spec.Items))
	ok := make([]bool, len(rc.Spec.Items))
	for i, it := range rc.Spec.Items {
		res, err := client.InsertSalted(card, it.Name, it.Data, rc.Spec.K, it.Salt)
		if err != nil {
			continue
		}
		out.Delivered++
		fileIDs[i], ok[i] = res.FileID, true
		out.Placement[res.FileID.String()] = receiptHolders(res.Receipts)
	}
	for i := range rc.Spec.Items {
		if !ok[i] {
			out.Hops = append(out.Hops, -1)
			continue
		}
		res, err := client.Lookup(fileIDs[i])
		if err != nil {
			out.Hops = append(out.Hops, -1)
			continue
		}
		out.Lookups++
		out.Hops = append(out.Hops, res.Hops)
	}
	return out, nil
}

// CollectLogs concatenates all node logs (for test failure output).
func (rc *RealCluster) CollectLogs() string {
	var sb []byte
	for _, p := range rc.Nodes {
		data, err := os.ReadFile(p.LogPath)
		if err != nil {
			continue
		}
		sb = append(sb, []byte("---- "+p.LogPath+" ----\n")...)
		sb = append(sb, data...)
	}
	return string(sb)
}
