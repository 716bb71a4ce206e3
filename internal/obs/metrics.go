package obs

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metric-name catalog. Every name recorded through the context helpers
// (Add / Observe / SetGauge / MaxGauge / ObserveSince) at a pipeline
// call site must be listed here — `make metrics-lint` enforces it — so
// the daemon's /metrics surface stays documented in one place. Names
// ending in "." are dynamic prefixes.
//
//	mine.candidates        counter  candidate subgraphs generated per round
//	mine.dedup.hits        counter  per-parent duplicate candidates dropped
//	mine.embeddings        counter  embeddings enumerated by Find+MNI
//	mine.patterns          counter  frequent patterns kept
//	mine.rounds            counter  mining rounds completed
//	mine.frontier          gauge    high-watermark of the mining frontier
//	place.portfolio.anneals counter placement portfolio anneals run
//	place.portfolio.pick   counter  portfolio picks (one per placement)
//	place.wirelength       gauge    last accepted placement wirelength
//	pnr.attempts           counter  PnR ladder attempts
//	pnr.degraded.          counter  degradations by reason (dynamic suffix)
//	route.nets             counter  nets routed
//	route.iterations       counter  PathFinder iterations
//	route.ripup.nets       counter  nets ripped up across iterations
//	route.ripup.sources    counter  rip-up source groups
//	sched.cancel.polls     counter  cancellation polls in worker loops
//	costmodel.train.samples counter training-corpus size per fit
//	costmodel.train.us     histogram cost-model training wall time (µs)
//	costmodel.train.mae_bp. histogram in-sample MAE by target, basis points (dynamic suffix)
//	costmodel.abs_err_bp   histogram predicted-vs-oracle absolute area-ratio error (basis points)
//	costmodel.rel_err_bp   histogram predicted-vs-oracle relative area-ratio error (basis points)
//	costmodel.importance.  gauge    top per-feature importance, basis points (dynamic suffix)
//	sweep.triage.explore_cells counter cells oracled as the exploration band
//	sweep.triage.oracle_cells counter cells that ran the full oracle in a triaged sweep
//	sweep.triage.predicted_cells counter cells filled with model estimates
//
// Registry-direct families (recorded via Registry methods, not the ctx
// helpers): span.<name>, memo.<table>.<event>, cache.<kind>.<event>,
// serve.*, sweep.*.

// Registry is a concurrent registry of named counters, gauges, and
// histograms. Instruments are created on first use and live for the
// registry's lifetime; updates are lock-free atomics, so hot pipeline
// loops can record without contending. Dumps are sorted by name, so two
// runs recording the same values dump byte-identically.
//
// A registry built with NewChildRegistry additionally mirrors every
// update into the same-named instrument of its parent: the child holds
// a scoped delta (one job's worth of work) while the parent keeps the
// daemon-wide totals, at the cost of one nil-check per update.
type Registry struct {
	mu         sync.RWMutex
	parent     *Registry
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// NewChildRegistry returns a registry that mirrors every update into
// parent. Instruments are linked lazily on first use, so a child costs
// nothing for names it never touches. A nil parent yields an ordinary
// registry.
func NewChildRegistry(parent *Registry) *Registry {
	r := NewRegistry()
	r.parent = parent
	return r
}

// Counter is a monotonically increasing count.
type Counter struct {
	v      atomic.Int64
	mirror *Counter
}

// Add increments the counter.
func (c *Counter) Add(n int64) {
	c.v.Add(n)
	if c.mirror != nil {
		c.mirror.v.Add(n)
	}
}

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value (Set), delta (Add), or high-watermark (Max)
// instrument.
type Gauge struct {
	v      atomic.Int64
	mirror *Gauge
}

// Set stores the value.
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
	if g.mirror != nil {
		g.mirror.Set(n)
	}
}

// Add moves the gauge by delta (negative to decrement) and returns the
// new value — the shape a live occupancy gauge (queue depth, running
// jobs) wants.
func (g *Gauge) Add(delta int64) int64 {
	if g.mirror != nil {
		g.mirror.Add(delta)
	}
	return g.v.Add(delta)
}

// Max raises the gauge to n if n is larger (a high-watermark update).
func (g *Gauge) Max(n int64) {
	if g.mirror != nil {
		g.mirror.Max(n)
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets are the power-of-two upper bounds of Histogram; the last
// implicit bucket is +Inf.
var histBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 2048, 4096, 8192, 16384, 32768, 65536}

// Histogram counts observations into power-of-two buckets and tracks
// count/sum/min/max. Observations are unitless int64s; callers pick the
// unit (iterations, microseconds, ...) and name the instrument after it.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64
	buckets [len(histBuckets) + 1]atomic.Int64
	mirror  *Histogram
}

// newHistogram returns a histogram whose min starts at the MaxInt64
// sentinel, so concurrent first observations cannot race past each
// other.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h.mirror != nil {
		h.mirror.Observe(v)
	}
	h.count.Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.sum.Add(v)
	i := sort.Search(len(histBuckets), func(i int) bool { return v <= histBuckets[i] })
	h.buckets[i].Add(1)
}

// Count reports how many values were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		if r.parent != nil {
			c.mirror = r.parent.Counter(name)
		}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		if r.parent != nil {
			g.mirror = r.parent.Gauge(name)
		}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram()
		if r.parent != nil {
			h.mirror = r.parent.Histogram(name)
		}
		r.histograms[name] = h
	}
	return h
}

// InstrumentSnap is one counter or gauge in a snapshot.
type InstrumentSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketSnap is one non-empty histogram bucket: LE is the inclusive
// upper bound ("+Inf" for the overflow bucket).
type BucketSnap struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnap is one histogram in a snapshot. P50/P95/P99 are
// estimated quantiles: linear interpolation within the power-of-two
// bucket that holds the target rank, clamped to the observed [Min, Max]
// (so a histogram whose values all share one bucket still reports exact
// bounds). Zero when Count is zero.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	P50     int64        `json:"p50"`
	P95     int64        `json:"p95"`
	P99     int64        `json:"p99"`
	Buckets []BucketSnap `json:"buckets"`
}

// RegistrySnap is a point-in-time copy of a registry, with every
// section sorted by name (the JSON export and the Prometheus text
// share it).
type RegistrySnap struct {
	Counters   []InstrumentSnap `json:"counters"`
	Gauges     []InstrumentSnap `json:"gauges"`
	Histograms []HistogramSnap  `json:"histograms"`
}

// Snapshot copies the registry's current values, sorted by name.
func (r *Registry) Snapshot() RegistrySnap {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var snap RegistrySnap
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, InstrumentSnap{name, c.Value()})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, InstrumentSnap{name, g.Value()})
	}
	for name, h := range r.histograms {
		hs := HistogramSnap{
			Name:  name,
			Count: h.count.Load(),
			Sum:   h.sum.Load(),
			Min:   h.min.Load(),
			Max:   h.max.Load(),
		}
		if hs.Count == 0 {
			hs.Min = 0
		}
		var counts [len(histBuckets) + 1]int64
		for i := range h.buckets {
			n := h.buckets[i].Load()
			counts[i] = n
			if n == 0 {
				continue
			}
			le := "+Inf"
			if i < len(histBuckets) {
				le = strconv.FormatInt(histBuckets[i], 10)
			}
			hs.Buckets = append(hs.Buckets, BucketSnap{le, n})
		}
		if hs.Count > 0 {
			hs.P50 = histQuantile(counts[:], hs.Count, hs.Min, hs.Max, 0.50)
			hs.P95 = histQuantile(counts[:], hs.Count, hs.Min, hs.Max, 0.95)
			hs.P99 = histQuantile(counts[:], hs.Count, hs.Min, hs.Max, 0.99)
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// histQuantile estimates the q-quantile of a bucketed distribution:
// find the bucket holding the ceil(q*total)'th observation (1-based),
// then interpolate linearly between the bucket's bounds. The first
// bucket's lower bound is 0 and the overflow bucket's upper bound is
// the observed max; the estimate is clamped to [min, max] so it can
// never leave the observed range.
func histQuantile(counts []int64, total, min, max int64, q float64) int64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		var lo, hi int64
		if i > 0 {
			lo = histBuckets[i-1]
		}
		if i < len(histBuckets) {
			hi = histBuckets[i]
		} else {
			hi = max
		}
		if hi < lo {
			hi = lo
		}
		frac := float64(rank-cum) / float64(n)
		est := int64(math.Round(float64(lo) + frac*float64(hi-lo)))
		if est < min {
			est = min
		}
		if est > max {
			est = max
		}
		return est
	}
	return max
}

// Metrics returns the registry carried by ctx, or nil when metrics are
// disabled.
func Metrics(ctx context.Context) *Registry {
	r, _ := ctx.Value(metricsKey).(*Registry)
	return r
}

// Add bumps the named counter in ctx's registry; zero-allocation no-op
// when the context carries no registry.
func Add(ctx context.Context, name string, n int64) {
	if r, ok := ctx.Value(metricsKey).(*Registry); ok {
		r.Counter(name).Add(n)
	}
}

// MaxGauge raises the named high-watermark gauge; no-op without a
// registry.
func MaxGauge(ctx context.Context, name string, v int64) {
	if r, ok := ctx.Value(metricsKey).(*Registry); ok {
		r.Gauge(name).Max(v)
	}
}

// SetGauge stores the named gauge value; no-op without a registry.
func SetGauge(ctx context.Context, name string, v int64) {
	if r, ok := ctx.Value(metricsKey).(*Registry); ok {
		r.Gauge(name).Set(v)
	}
}

// Observe records a histogram value; no-op without a registry.
func Observe(ctx context.Context, name string, v int64) {
	if r, ok := ctx.Value(metricsKey).(*Registry); ok {
		r.Histogram(name).Observe(v)
	}
}

// ObserveSince records the microseconds elapsed since start in the
// named histogram; no-op (and no clock read) without a registry.
func ObserveSince(ctx context.Context, name string, start time.Time) {
	if r, ok := ctx.Value(metricsKey).(*Registry); ok {
		r.Histogram(name).Observe(time.Since(start).Microseconds())
	}
}
