// Package telemetry is the windowed time-series layer shared by the
// simulator and the real daemon. A Recorder holds named series in
// fixed-capacity ring buffers; values are aggregated per time window and
// flushed when the clock crosses a window boundary.
//
// Determinism: the Recorder never reads a wall clock or draws random
// numbers. Window boundaries lie on a fixed grid (multiples of
// Config.Window) and callers supply the clock — the simulator ticks the
// recorder at window barriers, so the flushed series depend only on the
// virtual schedule. The daemon ticks from a periodic tasks job
// with time-since-start and stamps real time via Config.EpochNs.
//
// Three series kinds: Gauge samples current values, Counts turns
// cumulative totals into per-window deltas, Dist summarises observations.
// Counts is the one place a total becomes a delta: sources expose the
// totals they already keep and never track a previous value themselves.
//
// Concurrency: read functions run at flush time and sample counters the
// code already keeps, so nothing is added to the simulator's
// insert/lookup fast path; Dist.Observe takes a short mutex.
// Flush/Tick/WriteLP serialize on the Recorder mutex.
package telemetry

import (
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"past/internal/metrics"
)

// Config shapes a Recorder.
type Config struct {
	// Window is the aggregation interval (default 1s).
	Window time.Duration
	// Capacity is how many windows each series retains; older points are
	// overwritten ring-buffer style (default 512).
	Capacity int
	// EpochNs is added to every window-start timestamp on export. The
	// simulator leaves it zero (timestamps are virtual nanoseconds); the
	// daemon sets it to its start time in Unix nanoseconds.
	EpochNs int64
}

// distLimit bounds the per-window observations each Dist retains for
// quantiles; beyond it a deterministic reservoir takes over (see
// metrics.Summary.Limit).
const distLimit = 4096

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	return c
}

// Point is one flushed window of one series.
type Point struct {
	// At is the window start, relative to the recorder's clock origin.
	At time.Duration
	// Vals holds one value per series field, in field order.
	Vals []float64
}

const (
	kindGauge = iota
	kindCounts
	kindDist
)

// Series is one named stream of per-window points.
type Series struct {
	name   string
	fields []string
	kind   int

	gauge  func(v []float64)
	counts func(tot []uint64)
	dist   *Dist
	// base holds the totals the last window ended at; cur is the scratch
	// the next read fills (Counts only).
	base, cur []uint64

	// ring buffer of flushed windows
	buf  []Point
	head int // index of oldest point
	n    int // number of valid points
}

func (s *Series) push(p Point) {
	if s.n < len(s.buf) {
		s.buf[(s.head+s.n)%len(s.buf)] = p
		s.n++
		return
	}
	s.buf[s.head] = p
	s.head = (s.head + 1) % len(s.buf)
}

// points returns the retained windows, oldest first.
func (s *Series) points() []Point {
	out := make([]Point, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(s.head+i)%len(s.buf)])
	}
	return out
}

// Dist accumulates per-window observations and flushes
// count/mean/min/max/p50/p99. Observe takes a short mutex; it is meant
// for experiment drivers and daemon operation completions, not for the
// simulator's per-message fast path.
type Dist struct {
	mu sync.Mutex
	s  metrics.Summary
}

// Observe records one observation into the current window.
func (d *Dist) Observe(v float64) {
	d.mu.Lock()
	d.s.Add(v)
	d.mu.Unlock()
}

// Recorder owns a set of series and the window clock.
type Recorder struct {
	cfg Config

	mu      sync.Mutex
	tags    [][2]string // sorted by key
	series  []*Series
	byName  map[string]*Series
	aligned bool
	cur     int64        // window start ns of the open window
	next    atomic.Int64 // ns at which the open window closes
}

// New returns a Recorder with cfg (zero fields take defaults).
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.withDefaults(), byName: make(map[string]*Series)}
}

// SetTag attaches a constant tag emitted with every point. Tags are kept
// sorted by key so line-protocol output is deterministic.
func (r *Recorder) SetTag(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.tags {
		if r.tags[i][0] == key {
			r.tags[i][1] = value
			return
		}
	}
	r.tags = append(r.tags, [2]string{key, value})
	sort.Slice(r.tags, func(i, j int) bool { return r.tags[i][0] < r.tags[j][0] })
}

func (r *Recorder) register(s *Series) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[s.name]; ok {
		return old
	}
	s.fields = append([]string(nil), s.fields...)
	s.buf = make([]Point, r.cfg.Capacity)
	if s.kind == kindCounts {
		s.base, s.cur = make([]uint64, len(s.fields)), make([]uint64, len(s.fields))
		s.counts(s.base)
	}
	r.series = append(r.series, s)
	r.byName[s.name] = s
	return s
}

// Gauge registers a series sampled once per window flush: read fills v
// (zeroed, one slot per field) with the current values. read must be a
// pure read: it runs at simulator barriers and must not mutate shared
// state or draw randomness. A single-field series names its field
// "value".
func (r *Recorder) Gauge(name string, fields []string, read func(v []float64)) {
	r.register(&Series{name: name, fields: fields, kind: kindGauge, gauge: read})
}

// Counts registers a series of event counts. read fills tot (zeroed, one
// slot per field) with cumulative totals, under the same purity rule as
// Gauge; the recorder keeps the baseline. Registration reads the first
// baseline, so everything counted afterwards lands in some window, and
// each flush emits the growth since the previous one. A total that falls
// (a reused node slot, a counter reset) rebases: that window emits 0 for
// the field and the next counts from the new total.
func (r *Recorder) Counts(name string, fields []string, read func(tot []uint64)) {
	r.register(&Series{name: name, fields: fields, kind: kindCounts, counts: read})
}

// Dist registers (or returns) a distribution series named name, emitting
// count/mean/min/max/p50/p99 per window.
func (r *Recorder) Dist(name string) *Dist {
	d := &Dist{}
	d.s.Limit(distLimit)
	s := r.register(&Series{name: name, fields: []string{"count", "mean", "min", "max", "p50", "p99"}, kind: kindDist, dist: d})
	return s.dist
}

// Tick advances the window clock to now, flushing every completed
// window. The fast path (no boundary crossed) is one atomic load.
func (r *Recorder) Tick(now time.Duration) {
	if r.aligned && int64(now) < r.next.Load() {
		return
	}
	r.mu.Lock()
	r.tickLocked(now)
	r.mu.Unlock()
}

func (r *Recorder) tickLocked(now time.Duration) {
	w := int64(r.cfg.Window)
	if !r.aligned {
		// First tick: open the window containing now on the fixed grid.
		r.aligned = true
		r.cur = int64(now) / w * w
		r.next.Store(r.cur + w)
		return
	}
	for int64(now) >= r.next.Load() {
		r.flushWindow()
		r.cur = r.next.Load()
		r.next.Store(r.cur + w)
	}
}

// Flush closes any completed windows up to now and then the open partial
// window, if it has nonzero elapsed time. Call once at end of run.
func (r *Recorder) Flush(now time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tickLocked(now)
	if r.aligned && int64(now) > r.cur {
		r.flushWindow()
		r.cur = int64(now)
		r.next.Store(r.cur) // any later tick reopens on the grid
		r.aligned = false
	}
}

// flushWindow appends one point per series for the window starting at
// r.cur. Caller holds r.mu.
func (r *Recorder) flushWindow() {
	for _, s := range r.series {
		p := Point{At: time.Duration(r.cur), Vals: make([]float64, len(s.fields))}
		switch s.kind {
		case kindGauge:
			s.gauge(p.Vals)
			for i, v := range p.Vals {
				p.Vals[i] = sanitize(v)
			}
		case kindCounts:
			clear(s.cur)
			s.counts(s.cur)
			for i, v := range s.cur {
				if v >= s.base[i] {
					p.Vals[i] = float64(v - s.base[i])
				}
			}
			s.base, s.cur = s.cur, s.base
		case kindDist:
			d := s.dist
			d.mu.Lock()
			p.Vals = []float64{
				float64(d.s.N()), d.s.Mean(), d.s.Min(), d.s.Max(),
				d.s.Percentile(50), d.s.Percentile(99),
			}
			d.s.Reset()
			d.mu.Unlock()
		}
		s.push(p)
	}
}

// sanitize maps NaN/Inf (e.g. 0/0 ratios) to 0 so the line protocol
// stays parseable.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Points returns the retained windows of the named series, oldest first
// (nil if the series does not exist).
func (r *Recorder) Points(name string) []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byName[name]
	if !ok {
		return nil
	}
	return s.points()
}

// WriteLP dumps every retained point in line protocol, series in
// registration order, points oldest first.
func (r *Recorder) WriteLP(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return writeLP(w, r.cfg.EpochNs, r.tags, r.series)
}
