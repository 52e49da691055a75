// Package obs is the process-wide observability core: one registry of
// named instruments — counters, gauges, and fixed-bucket latency
// histograms — that every layer (transport, keystate, core, store)
// registers into instead of keeping hand-rolled stat structs.
//
// Design constraints, in order:
//
//  1. Zero-dependency. The registry is scraped as Prometheus text and as
//     a JSON snapshot; nothing here imports outside the standard library.
//  2. Zero-alloc, lock-free hot path. An instrument is looked up (or
//     created) once, held in a package-level var at the call site, and
//     from then on every Add/Observe is a plain atomic op. The registry
//     lock is only taken at registration and scrape time.
//  3. Torn-free reads. A scrape never blocks writers and never observes
//     an impossible state: histogram snapshots load the running sum
//     BEFORE the bucket counts, so the derived count is always >= what
//     the sum accounts for, and counters are single atomics (monotone by
//     construction).
//
// Instrument names follow the Prometheus convention
// (ares_<layer>_<what>_<unit>), with an optional brace-delimited label
// set that is part of the registered name string — e.g.
// "ares_phase_seconds{phase=\"abd/get-data\"}". Instruments sharing a
// base name share one HELP/TYPE block in the exposition output.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. Readers that want
// an interval take two snapshots and subtract (CounterDelta).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value: either set/added directly, or backed
// by a callback installed with SetFunc (polled at scrape time).
type Gauge struct {
	v  atomic.Int64
	fn atomic.Pointer[func() int64]
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetFunc makes the gauge report fn() at read time instead of the stored
// value. Passing nil reverts to the stored value. The previous function,
// if any, is replaced — components that re-register (tests constructing
// several stores in one process) simply win the name.
func (g *Gauge) SetFunc(fn func() int64) {
	if fn == nil {
		g.fn.Store(nil)
		return
	}
	g.fn.Store(&fn)
}

// Load returns the gauge's current value.
func (g *Gauge) Load() int64 {
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return g.v.Load()
}

// Histogram is a fixed-bound bucket histogram of int64 observations
// (latencies are observed in nanoseconds). Observation is two atomic
// adds; there is no lock and no allocation.
type Histogram struct {
	bounds  []int64 // upper bounds, ascending; implicit +Inf bucket after
	buckets []atomic.Int64
	sum     atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed nanoseconds since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// HistSnapshot is a point-in-time view of a histogram. Count is derived
// as the sum of the bucket counts, so it can never disagree with them.
// Because Sum is loaded first, Sum never accounts for more observations
// than Count covers.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds"` // upper bounds (ns); +Inf implicit
	Counts []int64 `json:"counts"` // per-bucket, len(Bounds)+1
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot captures the histogram without blocking writers.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Sum:    h.sum.Load(), // before the buckets: see HistSnapshot
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Counts[i] = n
		s.Count += n
	}
	return s
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1)
// from the bucket counts: the upper bound of the bucket where the
// cumulative count crosses q*total. Samples in the +Inf bucket report the
// last finite bound (a floor, but a finite one). Zero observations
// report 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.Counts {
		cum += n
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// DefLatencyBounds are the default latency bucket upper bounds in
// nanoseconds: 50µs to 2.5s in a coarse log scale. Wide enough for
// loopback RTTs and fsync stalls alike at 16 buckets total.
var DefLatencyBounds = []int64{
	50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
	25_000_000, 50_000_000, 100_000_000, 250_000_000,
	500_000_000, 1_000_000_000, 2_500_000_000,
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHist
)

type metric struct {
	name string // full registered name, possibly with {labels}
	help string
	kind kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named instruments. Get-or-create methods are idempotent:
// the first registration wins, later calls with the same name return the
// same instrument (and panic on a kind mismatch — that is a programming
// error, not a runtime condition).
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Default is the process-wide registry every package-level instrument
// registers into; ares-server scrapes it on /metrics.
var Default = NewRegistry()

func (r *Registry) get(name, help string, k kind) *metric {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if ok {
		if m.kind != k {
			panic("obs: instrument " + name + " re-registered with a different kind")
		}
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != k {
			panic("obs: instrument " + name + " re-registered with a different kind")
		}
		return m
	}
	m = &metric{name: name, help: help, kind: k}
	switch k {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHist:
		m.h = &Histogram{}
	}
	r.metrics[name] = m
	return m
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.get(name, help, kindCounter).c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.get(name, help, kindGauge).g
}

// GaugeFunc registers a callback-backed gauge. Re-registering the same
// name replaces the callback (last writer wins).
func (r *Registry) GaugeFunc(name, help string, fn func() int64) *Gauge {
	g := r.get(name, help, kindGauge).g
	g.SetFunc(fn)
	return g
}

// Histogram returns (creating if needed) the named histogram with the
// given bucket upper bounds (nil means DefLatencyBounds). Bounds are
// fixed at first registration; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if ok {
		if m.kind != kindHist {
			panic("obs: instrument " + name + " re-registered with a different kind")
		}
		return m.h
	}
	if bounds == nil {
		bounds = DefLatencyBounds
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kindHist {
			panic("obs: instrument " + name + " re-registered with a different kind")
		}
		return m.h
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	r.metrics[name] = &metric{name: name, help: help, kind: kindHist, h: h}
	return h
}

// sorted returns the metrics ordered by name, under the read lock.
func (r *Registry) sorted() []*metric {
	r.mu.RLock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot is a point-in-time copy of every instrument, used by the
// admin JSON endpoint and by per-phase bench attribution.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	for _, m := range r.sorted() {
		switch m.kind {
		case kindCounter:
			s.Counters[m.name] = m.c.Load()
		case kindGauge:
			s.Gauges[m.name] = m.g.Load()
		case kindHist:
			s.Histograms[m.name] = m.h.Snapshot()
		}
	}
	return s
}

// CounterDelta returns cur's counters minus prev's, dropping zeros —
// the per-phase attribution the bench suite records.
func CounterDelta(prev, cur Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range cur.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}
