package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"past"
)

// identitySeed derives the broker, every peer's smartcard (hence its nodeId
// and ring position) and the peers' protocol randomness. The deployment is
// configuration, like the peer count and k; --seed drives the inputs (file
// names, content, sizes, op order). With 18 nodes the ring layout alone
// moved the lookup p50 by +-15% from one seed to the next, more than any
// other source of spread, and a layout says nothing about a change.
const identitySeed = 1

// clientTimeout is the client peers' RequestTimeout: what one silently
// dropped frame (the transport's bounded peer queue drops on overflow)
// costs the client before it retries. At the facade's default of 30 s a
// single drop outlasts the whole timed window and stalls one of the two
// generators for the rest of it; at 2 s it shows as one slow op.
const clientTimeout = 2 * time.Second

// clusterSpec sizes the system under test.
type clusterSpec struct {
	storage int    // disk-backed storage peers
	clients int    // capacity-zero client peers (the pastctl role)
	dir     string // parent of the per-peer data dirs
}

// cluster is the in-process loopback deployment: storage peers 0..storage-1
// followed by the client peers, all joined through peer 0.
type cluster struct {
	spec    clusterSpec
	broker  *past.Broker
	cards   []*past.Smartcard
	storage []*past.Peer
	clients []*past.Peer

	nextCard int // next unused index of the client card stream

	joinMs    []float64 // one sample per Peer.Join
	convergeS float64   // summed waits from a join's return to a converged view
	admitS    []float64 // per peer: ListenPeer, Join and the wait for a converged view
	dialS     float64   // the wait for the first keep-alive round
}

// typicalBootS is the time the boot takes at its typical pace: peers times
// the median admission, taken to the reference speed by scale, plus the
// keep-alive wait, which is a timer and not work. An admission is a few
// milliseconds; a neighbour's burst of load that doubles the boot's wall
// time leaves most admissions alone.
func (c *cluster) typicalBootS(scale float64) float64 {
	return float64(len(c.admitS))*median(c.admitS)*scale + c.dialS
}

func (c *cluster) dataDir(i int) string {
	return filepath.Join(c.spec.dir, "n"+strconv.Itoa(i))
}

// peerConfig is the daemon's configuration (pastnode defaults: caching on,
// LeafSync 4) with k=3 and a 1 s keep-alive. Clients contribute no storage
// and do not cache, as harness.NewClient builds them, and give up on an
// attempt after clientTimeout.
func (c *cluster) peerConfig(i int) past.PeerConfig {
	scfg := past.DefaultStorageConfig()
	scfg.K = replicas
	cfg := past.PeerConfig{
		Card:      c.cards[i],
		BrokerPub: c.broker.PublicKey(),
		KeepAlive: time.Second,
		LeafSync:  4,
		Seed:      identitySeed<<8 + int64(i) + 1,
	}
	if i < c.spec.storage {
		cfg.DataDir = c.dataDir(i)
	} else {
		scfg.Capacity = 0
		scfg.Caching = false
		scfg.RequestTimeout = clientTimeout
	}
	cfg.Storage = scfg
	return cfg
}

// bootCluster starts every peer and joins them sequentially through peer 0,
// each join followed by a wait until membership has converged. On error
// everything already started is closed.
func bootCluster(spec clusterSpec) (*cluster, error) {
	broker, err := past.DeriveBroker("det:" + strconv.Itoa(identitySeed))
	if err != nil {
		return nil, err
	}
	c := &cluster{spec: spec, broker: broker}
	n := spec.storage + spec.clients
	for i := 0; i < spec.storage; i++ {
		card, err := broker.IssueCard(1<<50, past.DefaultStorageConfig().Capacity, 0, past.DetCardRand(identitySeed, i))
		if err != nil {
			return nil, err
		}
		c.cards = append(c.cards, card)
	}
	for i := spec.storage; i < n; i++ {
		if err := c.addClientCard(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		admit := time.Now()
		p, err := past.ListenPeer(c.peerConfig(i))
		if err != nil {
			c.close()
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		if i < spec.storage {
			c.storage = append(c.storage, p)
		} else {
			c.clients = append(c.clients, p)
		}
		if i == 0 {
			p.Bootstrap()
			c.admitS = append(c.admitS, time.Since(admit).Seconds())
			continue
		}
		t0 := time.Now()
		if err := p.Join(c.storage[0].Addr()); err != nil {
			c.close()
			return nil, fmt.Errorf("peer %d join: %w", i, err)
		}
		c.joinMs = append(c.joinMs, ms(time.Since(t0)))
		// Admit one peer at a time: joining the next while announces of
		// this one are still in flight leaves partial views that only the
		// leaf-sync tick repairs, 0-10 s later.
		t0 = time.Now()
		if err := c.waitConverged(30 * time.Second); err != nil {
			c.close()
			return nil, err
		}
		c.convergeS += time.Since(t0).Seconds()
		c.admitS = append(c.admitS, time.Since(admit).Seconds())
	}
	t0 := time.Now()
	if err := c.waitDialled(30 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	c.dialS = time.Since(t0).Seconds()
	return c, nil
}

// addClientCard issues the next zero-capacity peer's card: the first of
// the card stream whose nodeId sits at least k ring positions from
// every other zero-capacity peer. A replica set is k consecutive nodes of
// the ring, so none then holds two peers that cannot store; when one does,
// both divert their replica to the same leaf-set neighbour, the client
// sees one receipt twice, and the insert stalls until RequestTimeout.
func (c *cluster) addClientCard() error {
	for try := 0; try < 1000; try++ {
		card, err := c.broker.IssueCard(1<<50, 0, 0, past.DetCardRand(identitySeed, c.nextCard+c.spec.storage))
		c.nextCard++
		if err != nil {
			return err
		}
		if c.spaced(card.NodeID()) {
			c.cards = append(c.cards, card)
			return nil
		}
	}
	return fmt.Errorf("no client card is %d ring positions from the other clients", replicas)
}

// spaced reports whether cand would sit at least k ring positions from
// every zero-capacity peer issued so far.
func (c *cluster) spaced(cand past.NodeID) bool {
	ring := []past.NodeID{cand}
	for _, card := range c.cards {
		ring = append(ring, card.NodeID())
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].Less(ring[j]) })
	pos := make(map[past.NodeID]int, len(ring))
	for i, id := range ring {
		pos[id] = i
	}
	for _, card := range c.cards[min(c.spec.storage, len(c.cards)):] {
		d := pos[card.NodeID()] - pos[cand]
		if d < 0 {
			d = -d
		}
		if min(d, len(ring)-d) < replicas {
			return false
		}
	}
	return true
}

func (c *cluster) peers() []*past.Peer {
	return append(append([]*past.Peer(nil), c.storage...), c.clients...)
}

// waitConverged polls until every peer holds every other peer in its leaf
// set (18 members < L=32, so a converged view is the full membership).
func (c *cluster) waitConverged(timeout time.Duration) error {
	all := c.peers()
	deadline := time.Now().Add(timeout)
	for {
		low := -1
		for i, p := range all {
			if p.KnownPeers() < len(all)-1 {
				low = i
				break
			}
		}
		if low < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership did not converge within %v: peer %d sees %d of %d", timeout, low, all[low].KnownPeers(), len(all)-1)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitDialled polls until every peer has dialled every other, which the
// first keep-alive round (a heartbeat to each leaf-set member) brings
// about within KeepAlive of the last join. Without it the 306 lazy dials
// land in the first few hundred operations.
func (c *cluster) waitDialled(timeout time.Duration) error {
	all := c.peers()
	deadline := time.Now().Add(timeout)
	for _, p := range all {
		for p.TransportStats().Dials < int64(len(all)-1) {
			if time.Now().After(deadline) {
				return fmt.Errorf("peer %s dialled %d of %d peers within %v", p.Addr(), p.TransportStats().Dials, len(all)-1, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// storedFiles sums the replicas held by all storage peers.
func (c *cluster) storedFiles() int {
	n := 0
	for _, p := range c.storage {
		n += p.StoredFiles()
	}
	return n
}

// restartReport is what reopening every storage peer on its DataDir found.
type restartReport struct {
	stored                 int // replicas the peers held when they closed
	recovered, quarantined int
	wall                   time.Duration // the reopens alone
	peerRates              []float64     // replicas re-verified per second, one per peer that held any
}

// restartStorage closes every peer and re-opens the storage peers on their
// DataDirs, which re-verifies each replica on disk against its
// certificate (verify-on-boot). The reopened peers do not rejoin: this
// measures recovery, and the cluster serves no further operation.
func (c *cluster) restartStorage() (restartReport, error) {
	c.closePeers()
	c.clients = nil
	var rep restartReport
	for _, p := range c.storage {
		rep.stored += p.StoredFiles()
	}
	for i := range c.storage {
		t0 := time.Now()
		p, err := past.ListenPeer(c.peerConfig(i))
		if err != nil {
			return rep, fmt.Errorf("reopen peer %d: %w", i, err)
		}
		wall := time.Since(t0)
		r, q := p.Recovered()
		rep.recovered += r
		rep.quarantined += q
		rep.wall += wall
		if r > 0 {
			rep.peerRates = append(rep.peerRates, float64(r)/wall.Seconds())
		}
		c.storage[i] = p
	}
	return rep, nil
}

// diskBytes is the exact number of bytes under all data dirs.
func (c *cluster) diskBytes() (int64, error) {
	var total int64
	err := filepath.Walk(c.spec.dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// closePeers shuts every peer down, in parallel because Close waits for
// connection teardown. Closing twice is harmless.
func (c *cluster) closePeers() {
	var wg sync.WaitGroup
	for _, p := range c.peers() {
		wg.Add(1)
		go func(p *past.Peer) {
			defer wg.Done()
			p.Close() //nolint:errcheck // teardown is best-effort
		}(p)
	}
	wg.Wait()
}

// close shuts the cluster down and removes its data dirs.
func (c *cluster) close() {
	c.closePeers()
	c.storage, c.clients = nil, nil
	os.RemoveAll(c.spec.dir) //nolint:errcheck // scratch data; a leftover is reported by the tests
}
