// Package telemetry is the windowed time-series layer shared by the
// simulator and the real daemon. A Recorder holds named series in
// fixed-capacity ring buffers; values are aggregated per time window and
// flushed when the clock crosses a window boundary.
//
// Determinism: the Recorder never reads a wall clock or draws random
// numbers. Window boundaries lie on a fixed grid (multiples of
// Config.Window) and callers supply the clock — the simulator ticks the
// recorder at window barriers (where every shard is quiescent), so the
// flushed series depend only on the virtual schedule, which is identical
// at any shard/worker count. The daemon ticks from a periodic tasks job
// with time-since-start and stamps real time via Config.EpochNs.
//
// Concurrency: Counter.Add is a single atomic add and Dist.Observe a
// short mutex — neither is placed on the simulator's insert/lookup fast
// path, which stays untouched; simulator series instead sample existing
// per-node counters at flush time. Flush/Tick/WriteLP serialize on the
// Recorder mutex.
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
	kindCounter = iota
	kindDist
	kindGauge
	kindMulti
)

// Series is one named stream of per-window points.
type Series struct {
	name   string
	fields []string
	kind   int

	counter *Counter
	dist    *Dist
	gauge   func() float64
	multi   func() []float64

	// ring buffer of flushed windows
	buf  []Point
	head int // index of oldest point
	n    int // number of valid points
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Fields returns the field names, in emit order.
func (s *Series) Fields() []string { return append([]string(nil), s.fields...) }

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

// Counter is a monotonically increasing event count. Add is one atomic
// add; each flush records the delta since the previous flush.
type Counter struct {
	v    atomic.Uint64
	prev uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

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

// Window returns the aggregation interval.
func (r *Recorder) Window() time.Duration { return r.cfg.Window }

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
	s.buf = make([]Point, r.cfg.Capacity)
	r.series = append(r.series, s)
	r.byName[s.name] = s
	return s
}

// Counter registers (or returns) a counter series named name. The series
// emits fields value (events this window) and per_sec.
func (r *Recorder) Counter(name string) *Counter {
	s := r.register(&Series{name: name, fields: []string{"value", "per_sec"}, kind: kindCounter, counter: &Counter{}})
	return s.counter
}

// Dist registers (or returns) a distribution series named name, emitting
// count/mean/min/max/p50/p99 per window.
func (r *Recorder) Dist(name string) *Dist {
	d := &Dist{}
	d.s.Limit(distLimit)
	s := r.register(&Series{name: name, fields: []string{"count", "mean", "min", "max", "p50", "p99"}, kind: kindDist, dist: d})
	return s.dist
}

// Gauge registers a single-field series sampled by calling fn once per
// window flush. fn must be a pure read: it runs at simulator barriers
// and must not mutate shared state or draw randomness.
func (r *Recorder) Gauge(name string, fn func() float64) {
	r.register(&Series{name: name, fields: []string{"value"}, kind: kindGauge, gauge: fn})
}

// Multi registers a multi-field series; fn is called once per window
// flush and must return len(fields) values. Closures that keep previous
// cumulative totals and return per-window deltas get exactly-once-per-
// window delta semantics.
func (r *Recorder) Multi(name string, fields []string, fn func() []float64) {
	r.register(&Series{name: name, fields: append([]string(nil), fields...), kind: kindMulti, multi: fn})
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
	secs := r.cfg.Window.Seconds()
	for _, s := range r.series {
		p := Point{At: time.Duration(r.cur)}
		switch s.kind {
		case kindCounter:
			cum := s.counter.v.Load()
			delta := cum - s.counter.prev
			s.counter.prev = cum
			p.Vals = []float64{float64(delta), float64(delta) / secs}
		case kindDist:
			d := s.dist
			d.mu.Lock()
			p.Vals = []float64{
				float64(d.s.N()), d.s.Mean(), d.s.Min(), d.s.Max(),
				d.s.Percentile(50), d.s.Percentile(99),
			}
			d.s.Reset()
			d.mu.Unlock()
		case kindGauge:
			p.Vals = []float64{sanitize(s.gauge())}
		case kindMulti:
			vals := s.multi()
			p.Vals = make([]float64, len(s.fields))
			for i := range p.Vals {
				if i < len(vals) {
					p.Vals[i] = sanitize(vals[i])
				}
			}
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

// SeriesNames returns the registered series names in registration order.
func (r *Recorder) SeriesNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.series))
	for i, s := range r.series {
		out[i] = s.name
	}
	return out
}

// WriteLP dumps every retained point in line protocol, series in
// registration order, points oldest first.
func (r *Recorder) WriteLP(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return writeLP(w, r.cfg.EpochNs, r.tags, r.series)
}
