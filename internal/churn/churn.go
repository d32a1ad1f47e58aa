package churn

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"past/internal/cluster"
)

// Kind classifies a membership event.
type Kind uint8

// Event kinds: a brand-new node arrives and joins; an existing node
// departs gracefully (announcing to its leaf set) or crashes silently
// (the paper's "nodes may silently leave the system without warning").
const (
	Arrive Kind = iota
	Leave
	Crash
	// Outage silently crashes every live node in one transit domain at
	// once — a correlated regional failure (router outage, partition).
	// For Outage and Heal events, Event.Node names the transit domain,
	// not a node index.
	Outage
	// Heal restarts exactly the nodes the matching Outage took down that
	// are still down (partition rejoin); each runs the recovery protocol
	// against its last known leaf set.
	Heal
)

// String returns the trace-format name of the kind.
func (k Kind) String() string {
	switch k {
	case Arrive:
		return "arrive"
	case Leave:
		return "leave"
	case Crash:
		return "crash"
	case Outage:
		return "outage"
	case Heal:
		return "heal"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// parseKind inverts Kind.String.
func parseKind(s string) (Kind, error) {
	switch s {
	case "arrive":
		return Arrive, nil
	case "leave":
		return Leave, nil
	case "crash":
		return Crash, nil
	case "outage":
		return Outage, nil
	case "heal":
		return Heal, nil
	}
	return 0, fmt.Errorf("churn: unknown event kind %q", s)
}

// Event is one membership change at a point in virtual time. For
// arrivals, Node is the cluster index the new node will be assigned
// (arrivals are applied in order, so indices are predictable at
// generation time); for departures it names the node that goes.
type Event struct {
	At   time.Duration
	Kind Kind
	Node int
}

// Trace is a replayable sequence of membership events in ascending time
// order. Traces come from Generate (process-driven: Poisson arrivals,
// heavy-tailed sessions) or from Parse (trace-driven: replay a recorded
// or hand-written schedule). The same trace replayed onto the same
// cluster build yields the same tables.
type Trace struct {
	Events []Event
}

// SessionKind selects the session-length distribution family.
type SessionKind uint8

// Session distributions: lognormal bodies model typical peer uptimes;
// Pareto adds the heavy tail (a few nodes that stay for a very long
// time) observed in deployed peer-to-peer systems.
const (
	Lognormal SessionKind = iota
	Pareto
)

// SessionDist draws node session lengths (time between a node's arrival
// and its departure).
type SessionDist struct {
	Kind SessionKind
	// Lognormal parameters: ln(seconds) has mean Mu and deviation Sigma.
	Mu, Sigma float64
	// Pareto parameters: minimum Xm seconds, shape Alpha.
	Xm, Alpha float64
	// Min and Max clamp draws.
	Min, Max time.Duration
}

// LognormalSessions returns a lognormal session distribution with the
// given median and a moderate spread.
func LognormalSessions(median time.Duration) SessionDist {
	return SessionDist{
		Kind:  Lognormal,
		Mu:    math.Log(median.Seconds()),
		Sigma: 0.8,
		Min:   time.Second,
		Max:   1000 * median,
	}
}

// ParetoSessions returns a Pareto session distribution with the given
// minimum session and shape alpha (alpha <= 2 gives the heavy tail).
func ParetoSessions(xm time.Duration, alpha float64) SessionDist {
	return SessionDist{
		Kind:  Pareto,
		Xm:    xm.Seconds(),
		Alpha: alpha,
		Min:   time.Second,
		Max:   10000 * xm,
	}
}

// draw returns one session length from the distribution.
func (d SessionDist) draw(rng *rand.Rand) time.Duration {
	var sec float64
	switch d.Kind {
	case Pareto:
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		sec = d.Xm * math.Pow(u, -1/d.Alpha)
	default: // Lognormal
		sec = math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
	}
	s := time.Duration(sec * float64(time.Second))
	if s < d.Min {
		s = d.Min
	}
	if d.Max > 0 && s > d.Max {
		s = d.Max
	}
	return s
}

// Config parameterizes trace generation.
type Config struct {
	// Seed drives the generator's private random stream. The stream is
	// independent of the simulator: the trace is a pure function of this
	// Config.
	Seed int64
	// Initial is the number of nodes present when the cluster is built;
	// their sessions start at time zero.
	Initial int
	// ArrivalRate is the expected number of brand-new node arrivals per
	// second of virtual time (Poisson process; inter-arrival gaps are
	// exponential). Zero disables arrivals.
	ArrivalRate float64
	// Session draws each node's time in the system.
	Session SessionDist
	// CrashFrac is the fraction of departures that are silent crashes;
	// the rest are graceful leaves that announce to the leaf set.
	CrashFrac float64
	// Horizon bounds the trace: no event is scheduled at or after it.
	Horizon time.Duration
	// MinLive drops departures that would take the live population below
	// this floor (a leaf set needs survivors to repair from; the paper's
	// invariant itself assumes fewer than l/2 adjacent simultaneous
	// failures).
	MinLive int
}

// Generate builds a deterministic trace from cfg: initial nodes draw
// their sessions first (in index order), then arrivals are laid out on
// the Poisson clock, each drawing its own session on arrival. Departures
// that would violate MinLive are dropped in a final ordered pass, so the
// surviving event sequence is still a pure function of cfg.
func Generate(cfg Config) *Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var evs []Event
	// Sessions for the initial population.
	for i := 0; i < cfg.Initial; i++ {
		s := cfg.Session.draw(rng)
		if s < cfg.Horizon {
			evs = append(evs, Event{At: s, Kind: departKind(rng, cfg.CrashFrac), Node: i})
		}
	}
	// Poisson arrivals, each with its own session.
	if cfg.ArrivalRate > 0 {
		next := cfg.Initial
		t := time.Duration(0)
		for {
			gap := time.Duration(rng.ExpFloat64() / cfg.ArrivalRate * float64(time.Second))
			t += gap
			if t >= cfg.Horizon {
				break
			}
			evs = append(evs, Event{At: t, Kind: Arrive, Node: next})
			s := cfg.Session.draw(rng)
			if t+s < cfg.Horizon {
				evs = append(evs, Event{At: t + s, Kind: departKind(rng, cfg.CrashFrac), Node: next})
			}
			next++
		}
	}
	// Time order; creation order breaks ties, keeping the sort stable and
	// the result deterministic.
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
	// Enforce the MinLive floor in one ordered pass.
	live := cfg.Initial
	out := evs[:0]
	for _, ev := range evs {
		switch ev.Kind {
		case Arrive:
			live++
		default:
			if live <= cfg.MinLive {
				continue // dropped: the node stays for the rest of the run
			}
			live--
		}
		out = append(out, ev)
	}
	return &Trace{Events: out}
}

// departKind draws crash-vs-leave for one departure.
func departKind(rng *rand.Rand, crashFrac float64) Kind {
	if rng.Float64() < crashFrac {
		return Crash
	}
	return Leave
}

// Arrivals returns the number of arrival events in the trace.
func (tr *Trace) Arrivals() int { return tr.count(Arrive) }

// Departures returns the number of leave+crash events in the trace.
func (tr *Trace) Departures() int { return tr.count(Leave) + tr.count(Crash) }

func (tr *Trace) count(k Kind) int {
	n := 0
	for _, ev := range tr.Events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// String renders the trace in its replayable text format: one
// "<time> <kind> <node>" line per event, durations in Go syntax.
func (tr *Trace) String() string {
	var b strings.Builder
	for _, ev := range tr.Events {
		fmt.Fprintf(&b, "%s %s %d\n", ev.At, ev.Kind, ev.Node)
	}
	return b.String()
}

// Parse reads a trace in the String format. Blank lines and lines
// starting with '#' are ignored. Events must be in ascending time order.
func Parse(s string) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(strings.NewReader(s))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("churn: line %d: want \"<time> <kind> <node>\", got %q", line, text)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("churn: line %d: %w", line, err)
		}
		kind, err := parseKind(fields[1])
		if err != nil {
			return nil, fmt.Errorf("churn: line %d: %w", line, err)
		}
		node, err := strconv.Atoi(fields[2])
		if err != nil || node < 0 {
			return nil, fmt.Errorf("churn: line %d: bad node index %q", line, fields[2])
		}
		if k := len(tr.Events); k > 0 && at < tr.Events[k-1].At {
			return nil, fmt.Errorf("churn: line %d: events out of order", line)
		}
		tr.Events = append(tr.Events, Event{At: at, Kind: kind, Node: node})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	return tr, nil
}

// Stats counts what a Driver actually applied.
type Stats struct {
	Arrivals    int // joins that completed
	FailedJoins int // arrivals whose join did not complete
	Leaves      int // graceful departures applied
	Crashes     int // silent crashes applied
	Skipped     int // departures skipped (node already down or MinLive floor)
	Outages     int // regional outages applied
	Heals       int // regional heals applied
}

// Driver replays a Trace onto a running cluster. All work happens on the
// coordinating goroutine between simulation runs: the driver advances
// the simulated network to each event's time (a window barrier) and
// applies the membership change there. The barrier times are the window
// ends of the simulator's one event loop, so a replay is byte-identical
// for a fixed seed.
type Driver struct {
	C     *cluster.Cluster
	Trace *Trace
	// MinLive guards departures at replay time the way Config.MinLive
	// guards them at generation time (they can disagree when joins fail).
	MinLive int
	// OnEvent, if set, observes each applied event after it takes effect;
	// node is the actual cluster index (for arrivals, the index AddNode
	// assigned; for outages and heals, the transit domain).
	OnEvent func(ev Event, node int)
	// AsyncJoins applies arrivals without blocking: the join protocol
	// proceeds while the foreground workload runs, and completed joins
	// are folded in at the next Advance or CatchUp barrier. A node's
	// join can then overlap other events — the fidelity real churn has —
	// at the cost of Stats.Arrivals lagging until the join resolves.
	AsyncJoins bool

	Stats Stats
	next  int
	// outaged remembers, per transit domain, which nodes the last Outage
	// took down, so Heal restarts exactly those.
	outaged map[int][]int
}

// NewDriver binds a trace to a cluster.
func NewDriver(c *cluster.Cluster, tr *Trace) *Driver {
	return &Driver{C: c, Trace: tr}
}

// Done reports whether every event has been applied.
func (d *Driver) Done() bool { return d.next >= len(d.Trace.Events) }

// Advance applies every event due at or before t, running the network
// forward between events, then runs the network up to t. Events whose
// time has already passed (because a synchronous workload operation ran
// the clock ahead) are applied immediately; lateness is deterministic.
func (d *Driver) Advance(t time.Duration) {
	d.resolveJoins()
	for d.next < len(d.Trace.Events) {
		ev := d.Trace.Events[d.next]
		if ev.At > t {
			break
		}
		if now := d.C.Net.Now(); ev.At > now {
			d.C.Net.RunFor(ev.At - now)
		}
		d.resolveJoins()
		d.next++
		d.apply(ev)
	}
	if now := d.C.Net.Now(); t > now {
		d.C.Net.RunFor(t - now)
	}
	d.resolveJoins()
}

// resolveJoins folds completed asynchronous joins into the stats. It is
// a no-op unless AsyncJoins started some.
func (d *Driver) resolveJoins() {
	joined, failed := d.C.ResolveJoins()
	d.Stats.Arrivals += len(joined)
	d.Stats.FailedJoins += failed
}

// CatchUp applies events whose time has already passed without advancing
// the clock further; call it between workload operations.
func (d *Driver) CatchUp() { d.Advance(d.C.Net.Now()) }

// apply executes one event against the cluster.
func (d *Driver) apply(ev Event) {
	node := ev.Node
	switch ev.Kind {
	case Arrive:
		if d.AsyncJoins {
			node = d.C.AddNodeAsync()
			break // counted in resolveJoins once the join resolves
		}
		idx, err := d.C.AddNode()
		if err != nil {
			d.Stats.FailedJoins++
			return
		}
		d.Stats.Arrivals++
		node = idx
	case Outage:
		var hit []int
		for i := range d.C.Nodes {
			if d.C.LiveCount() <= d.MinLive {
				break
			}
			if d.C.Down(i) || d.C.Topo.Transit(i) != ev.Node {
				continue
			}
			d.C.Crash(i)
			hit = append(hit, i)
		}
		if d.outaged == nil {
			d.outaged = make(map[int][]int)
		}
		d.outaged[ev.Node] = append(d.outaged[ev.Node], hit...)
		d.Stats.Outages++
	case Heal:
		for _, i := range d.outaged[ev.Node] {
			if d.C.Down(i) {
				d.C.Restart(i)
			}
		}
		delete(d.outaged, ev.Node)
		d.Stats.Heals++
	case Leave, Crash:
		if node >= len(d.C.Nodes) || d.C.Down(node) || d.C.LiveCount() <= d.MinLive {
			d.Stats.Skipped++
			return
		}
		if ev.Kind == Leave {
			d.C.Leave(node)
			d.Stats.Leaves++
		} else {
			d.C.Crash(node)
			d.Stats.Crashes++
		}
	}
	if d.OnEvent != nil {
		d.OnEvent(ev, node)
	}
}
