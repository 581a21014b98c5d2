// Package obs is the observability substrate threaded through every layer
// of the system: a lock-cheap metrics registry (atomic counters, gauges,
// and log-bucketed latency histograms), a request-lifecycle span tracer
// with both wall-clock and logical (DMT clock) timestamps, and an opt-in
// HTTP scrape surface (/metrics, /healthz, /debug/pprof).
//
// The paper evaluates CRANE almost entirely through end-to-end latency
// deltas (§7.1); this package provides the per-stage breakdown — proxy
// burst queue, Accept round, WAL fsync, DMT turn — that the original
// system lacked and that every subsequent scheduling/batching optimization
// needs as its measurement backbone.
//
// Hot-path cost is one or two atomic adds per observation. Every
// instrument method is nil-receiver-safe, so a nil *Registry acts as a
// no-op registry: code instruments unconditionally and pays nothing when
// observability is disabled (the benchmark in benchmark/ reports the
// tracing overhead as obs.trace_overhead_pct).
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one. Safe on a nil receiver (no-op registry).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// gaugeFunc is a scrape-time callback gauge (view numbers, queue depths,
// counters owned by another subsystem's mutex).
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

// histBuckets is the number of power-of-two latency buckets: bucket i
// holds observations with ns in [2^(i-1), 2^i), covering 1ns..~9min.
const histBuckets = 40

// Histogram is a log-bucketed latency histogram. Observations cost two
// atomic adds (the observation count is derived from the buckets at
// scrape time, not maintained separately); quantiles are extracted at
// scrape time by walking the cumulative bucket counts (error bounded by
// the 2x bucket width).
type Histogram struct {
	name, help string
	isValue    bool          // unitless (batch sizes, depths) vs nanoseconds
	sum        atomic.Uint64 // total nanoseconds (or raw units when isValue)
	buckets    [histBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// Since records the elapsed time from t0 to now.
func (h *Histogram) Since(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0))
	}
}

// ObserveValue records one unitless observation (batch size, queue depth)
// into the same log-bucket layout. Use with ValueHistogram instruments.
func (h *Histogram) ObserveValue(v uint64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

func bucketIndex(ns uint64) int {
	i := bits.Len64(ns) // 0 for 0, 1 for 1, 2 for 2-3, ...
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketUpper returns the exclusive upper bound of bucket i in ns.
func bucketUpper(i int) uint64 {
	if i >= 63 {
		return math.MaxUint64
	}
	return uint64(1) << uint(i)
}

// Count returns the number of observations (0 on nil), summed from the
// buckets. Under concurrent observation the value may lag individual
// bucket reads by in-flight observations; it is exact at quiescence.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := 0; i < histBuckets; i++ {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]): the
// geometric midpoint of the bucket containing the q-th observation.
// Returns 0 when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			hi := bucketUpper(i)
			lo := hi / 2
			return time.Duration((lo + hi) / 2)
		}
	}
	return time.Duration(bucketUpper(histBuckets - 1))
}

// Snapshot is a point-in-time copy of a histogram's distribution. For
// unitless histograms (Unitless true) the duration fields hold raw
// units, not nanoseconds.
type Snapshot struct {
	Name     string
	Unitless bool
	Count    uint64
	Sum      time.Duration
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
}

// Snapshot captures count, sum, and the p50/p95/p99 quantiles.
func (h *Histogram) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	return Snapshot{
		Name:     h.name,
		Unitless: h.isValue,
		Count:    h.Count(),
		Sum:      h.Sum(),
		P50:      h.Quantile(0.50),
		P95:      h.Quantile(0.95),
		P99:      h.Quantile(0.99),
	}
}

// Registry holds a named set of instruments. Registration (cold path)
// takes a mutex; observation (hot path) is lock-free. A nil *Registry is
// the no-op registry: every constructor returns nil, and nil instruments
// discard observations.
//
// A Registry value is a view over shared instrument state: Grouped derives
// a view that namespaces instrument names with a consensus-group id, so N
// Paxos groups register side by side in one scrape surface without name
// collisions (ISSUE 10).
type Registry struct {
	st     *registryState
	rename func(string) string // nil: identity
}

type registryState struct {
	mu         sync.Mutex
	counters   []*Counter
	gauges     []*Gauge
	gaugeFuncs []*gaugeFunc
	hists      []*Histogram
	byName     map[string]any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{st: &registryState{byName: make(map[string]any)}}
}

// Grouped returns a view of the registry that renames every instrument
// registered through it with a consensus-group namespace inserted after
// the subsystem prefix: "paxos_proposals_total" becomes
// "paxos_group2_proposals_total", "wal_fsyncs_total" becomes
// "wal_group2_fsyncs_total". The view shares the underlying instrument
// state, so WritePrometheus on any view renders everything. Nil-safe.
func (r *Registry) Grouped(g int) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{st: r.st, rename: func(name string) string {
		return GroupInstrumentName(name, g)
	}}
}

// GroupInstrumentName inserts a group namespace after an instrument
// name's subsystem prefix ("paxos_x" -> "paxos_group2_x").
func GroupInstrumentName(name string, g int) string {
	if i := strings.IndexByte(name, '_'); i >= 0 {
		return name[:i+1] + "group" + strconv.Itoa(g) + "_" + name[i+1:]
	}
	return name + "_group" + strconv.Itoa(g)
}

// name applies the view's rename, if any.
func (r *Registry) name(n string) string {
	if r.rename != nil {
		return r.rename(n)
	}
	return n
}

// Counter returns the counter registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	name = r.name(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if c, ok := r.st.byName[name].(*Counter); ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.st.counters = append(r.st.counters, c)
	r.st.byName[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.name(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if g, ok := r.st.byName[name].(*Gauge); ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.st.gauges = append(r.st.gauges, g)
	r.st.byName[name] = g
	return g
}

// GaugeFunc registers a scrape-time callback gauge. fn must be safe to
// call from the scrape goroutine. Re-registering a name replaces its
// callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	name = r.name(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if g, ok := r.st.byName[name].(*gaugeFunc); ok {
		g.fn = fn
		return
	}
	g := &gaugeFunc{name: name, help: help, fn: fn}
	r.st.gaugeFuncs = append(r.st.gaugeFuncs, g)
	r.st.byName[name] = g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	name = r.name(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if h, ok := r.st.byName[name].(*Histogram); ok {
		return h
	}
	h := &Histogram{name: name, help: help}
	r.st.hists = append(r.st.hists, h)
	r.st.byName[name] = h
	return h
}

// ValueHistogram returns a unitless histogram (batch sizes, depths)
// registered under name, creating it if needed. Feed it with
// ObserveValue; its Prometheus buckets are raw units, not seconds.
func (r *Registry) ValueHistogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	name = r.name(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if h, ok := r.st.byName[name].(*Histogram); ok {
		return h
	}
	h := &Histogram{name: name, help: help, isValue: true}
	r.st.hists = append(r.st.hists, h)
	r.st.byName[name] = h
	return h
}

// FindHistogram returns the histogram registered under name, or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	name = r.name(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	h, _ := r.st.byName[name].(*Histogram)
	return h
}

// Histograms returns every registered histogram, sorted by name.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	r.st.mu.Lock()
	out := make([]*Histogram, len(r.st.hists))
	copy(out, r.st.hists)
	r.st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (durations in seconds, as the convention requires).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.st.mu.Lock()
	counters := append([]*Counter(nil), r.st.counters...)
	gauges := append([]*Gauge(nil), r.st.gauges...)
	gaugeFuncs := append([]*gaugeFunc(nil), r.st.gaugeFuncs...)
	hists := append([]*Histogram(nil), r.st.hists...)
	r.st.mu.Unlock()

	var b strings.Builder
	for _, c := range counters {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.v.Load())
	}
	for _, g := range gauges {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			g.name, g.help, g.name, g.name, g.v.Load())
	}
	for _, g := range gaugeFuncs {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n",
			g.name, g.help, g.name, g.name, g.fn())
	}
	for _, h := range hists {
		scale := 1e9 // nanoseconds -> seconds, per Prometheus convention
		if h.isValue {
			scale = 1
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
		var cum uint64
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 && i != histBuckets-1 {
				continue // elide empty buckets; cumulative counts stay exact
			}
			cum += n
			fmt.Fprintf(&b, "%s_bucket{le=\"%g\"} %d\n",
				h.name, float64(bucketUpper(i))/scale, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
		fmt.Fprintf(&b, "%s_sum %g\n", h.name, float64(h.sum.Load())/scale)
		fmt.Fprintf(&b, "%s_count %d\n", h.name, cum)
		// Precomputed quantile gauges alongside the cumulative series, for
		// scrapers that don't run histogram_quantile(). Same unit scaling
		// as the buckets (seconds for duration histograms).
		for _, q := range [...]struct {
			suffix string
			q      float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			fmt.Fprintf(&b, "# HELP %s_%s %s (%s estimate)\n# TYPE %s_%s gauge\n%s_%s %g\n",
				h.name, q.suffix, h.help, q.suffix, h.name, q.suffix,
				h.name, q.suffix, float64(h.Quantile(q.q))/scale)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
