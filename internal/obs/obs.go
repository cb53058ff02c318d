// Package obs is a small, stdlib-only observability layer for the
// anonymization kernels: atomic counters, gauges, and monotonic timers
// grouped into named scopes, rendered by Snapshot into a stable, sorted
// key space ("scope.metric"). The package-level default registry is
// disabled until Enable is called, and every record method gates on one
// atomic load, so instrumentation left in a hot kernel costs ~one
// uncontended load when nobody is watching — cheap enough to ship
// always-on hooks in the search, refinement, backbone, and sampling
// loops without a build tag.
//
// Metrics are registered once (usually in a package-level var block of
// the instrumented package) and then recorded without any lookup:
//
//	var cNodes = obs.Default.Scope("search").Counter("nodes")
//	...
//	cNodes.Add(nodesExplored) // no-op until obs.Enable()
//
// Hot loops should tally into a local integer and flush once per
// bounded unit of work (per pairwise search, per refinement run), the
// same amortization discipline the cancellation polls already use —
// then the enabled path costs one atomic add per flush, and the
// disabled path one atomic load.
//
// The metric namespace is documented in DESIGN.md §8.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Add increments the counter by n when the owning registry is enabled.
func (c *Counter) Add(n int64) {
	if c.on.Load() {
		c.v.Add(n)
	}
}

// Inc increments the counter by one when the owning registry is enabled.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Set stores n when the owning registry is enabled.
func (g *Gauge) Set(n int64) {
	if g.on.Load() {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n exceeds the current value (a
// high-water mark, e.g. the deepest search level reached).
func (g *Gauge) SetMax(n int64) {
	if !g.on.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates monotonic wall-time observations. It renders as two
// snapshot keys: "<scope>.<name>.ns" (total nanoseconds) and
// "<scope>.<name>.count" (observations).
type Timer struct {
	on    *atomic.Bool
	ns    atomic.Int64
	count atomic.Int64
}

// Observe records one duration when the owning registry is enabled.
func (t *Timer) Observe(d time.Duration) {
	if t.on.Load() {
		t.ns.Add(int64(d))
		t.count.Add(1)
	}
}

// Time runs f and records its wall time.
func (t *Timer) Time(f func()) {
	start := time.Now()
	f()
	t.Observe(time.Since(start))
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// metric is one registered entry, addressable by its full snapshot key
// prefix.
type metric struct {
	counter *Counter
	gauge   *Gauge
	timer   *Timer
}

// Registry holds a namespace of metrics. The zero value is not usable;
// call NewRegistry. Registration takes a mutex (it happens once, at
// package init of the instrumented code); recording is lock-free.
type Registry struct {
	enabled atomic.Bool
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// SetEnabled turns recording on or off. Metrics registered while
// disabled still exist (with zero values) so the snapshot key set is
// independent of when recording started.
func (r *Registry) SetEnabled(v bool) { r.enabled.Store(v) }

// Enabled reports whether recording is on.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Scope returns a handle for registering metrics under the given group
// name. Scope names and metric names must be non-empty and must not
// contain '.', which separates them in snapshot keys.
func (r *Registry) Scope(name string) Scope {
	checkName(name)
	return Scope{reg: r, name: name}
}

// Scope is a named group of metrics within a registry.
type Scope struct {
	reg  *Registry
	name string
}

// Name returns the scope's name.
func (s Scope) Name() string { return s.name }

func checkName(name string) {
	if name == "" {
		panic("obs: empty metric or scope name")
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			panic(fmt.Sprintf("obs: name %q contains '.', the scope separator", name))
		}
	}
}

// get interns the named metric slot under this scope.
func (s Scope) get(name string) *metric {
	checkName(name)
	key := s.name + "." + name
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	m, ok := s.reg.metrics[key]
	if !ok {
		m = &metric{}
		s.reg.metrics[key] = m
	}
	return m
}

// Counter registers (or returns the existing) counter "scope.name".
// Registering the same key as a different metric kind panics: the key
// space must stay stable.
func (s Scope) Counter(name string) *Counter {
	m := s.get(name)
	if m.gauge != nil || m.timer != nil {
		panic(fmt.Sprintf("obs: %s.%s already registered with another kind", s.name, name))
	}
	if m.counter == nil {
		m.counter = &Counter{on: &s.reg.enabled}
	}
	return m.counter
}

// Gauge registers (or returns the existing) gauge "scope.name".
func (s Scope) Gauge(name string) *Gauge {
	m := s.get(name)
	if m.counter != nil || m.timer != nil {
		panic(fmt.Sprintf("obs: %s.%s already registered with another kind", s.name, name))
	}
	if m.gauge == nil {
		m.gauge = &Gauge{on: &s.reg.enabled}
	}
	return m.gauge
}

// Timer registers (or returns the existing) timer "scope.name".
func (s Scope) Timer(name string) *Timer {
	m := s.get(name)
	if m.counter != nil || m.gauge != nil {
		panic(fmt.Sprintf("obs: %s.%s already registered with another kind", s.name, name))
	}
	if m.timer == nil {
		m.timer = &Timer{on: &s.reg.enabled}
	}
	return m.timer
}

// Snapshot renders every registered metric into a fresh map. Counters
// and gauges appear under "scope.name"; a timer contributes
// "scope.name.ns" and "scope.name.count". The key set depends only on
// what has been registered, never on recorded values, so successive
// snapshots of one process have identical keys.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.metrics)+4)
	for key, m := range r.metrics {
		switch {
		case m.counter != nil:
			out[key] = m.counter.Value()
		case m.gauge != nil:
			out[key] = m.gauge.Value()
		case m.timer != nil:
			out[key+".ns"] = m.timer.ns.Load()
			out[key+".count"] = m.timer.count.Load()
		}
	}
	return out
}

// Keys returns the sorted snapshot key set.
func (r *Registry) Keys() []string {
	return sortedKeys(r.Snapshot())
}

// Reset zeroes every registered metric (the key set is preserved).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		switch {
		case m.counter != nil:
			m.counter.v.Store(0)
		case m.gauge != nil:
			m.gauge.v.Store(0)
		case m.timer != nil:
			m.timer.ns.Store(0)
			m.timer.count.Store(0)
		}
	}
}

// WriteJSON renders the snapshot as one JSON object with keys in sorted
// order — a stable, diffable dump (the -metrics output of the CLIs).
// Values are int64, so no float formatting is involved and the encoding
// needs nothing beyond the standard library's formatting verbs.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	keys := sortedKeys(snap)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "  %q: %d%s\n", k, snap[k], sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Default is the package-level registry every kernel in this repo
// registers into. It starts disabled: all recording is a no-op until
// Enable (the CLIs call it when -metrics or -pprof is given).
var Default = NewRegistry()

// Enable turns on recording in the default registry.
func Enable() { Default.SetEnabled(true) }

// Disable turns recording back off.
func Disable() { Default.SetEnabled(false) }

// Enabled reports whether the default registry records.
func Enabled() bool { return Default.Enabled() }

// Snapshot renders the default registry (see Registry.Snapshot).
func Snapshot() map[string]int64 { return Default.Snapshot() }

// SnapshotIfEnabled returns a snapshot of the default registry, or nil
// when it is disabled — the shape pipeline results carry, so a run with
// observability off pays nothing and marshals nothing.
func SnapshotIfEnabled() map[string]int64 {
	if !Default.Enabled() {
		return nil
	}
	return Default.Snapshot()
}
