// Package obs is the scan pipeline's metrics substrate: atomic counters,
// gauges, and fixed log-spaced-bucket latency histograms behind a
// Registry. It exists so a weeks-long bulk scan (the paper ran its
// Fig. 1 pipeline against ~147k domains for years) can be watched live —
// where time goes per stage, what each server's outcome mix looks like,
// how far along the scan is — without perturbing the measurement.
//
// Design constraints, in order:
//
//  1. The hot path is free. Instruments are plain atomics behind
//     pointer handles; callers resolve a handle once (Registry lookup)
//     and then Inc/Observe costs one atomic op, zero allocations, and no
//     locks. Histogram bucketing is a bits.Len64, not a float search.
//  2. Instruments are nil-safe. Every method no-ops on a nil receiver,
//     so instrumented code paths need no "metrics enabled?" branches —
//     an unset handle is an off switch.
//  3. Reads never stop writers. Snapshot walks the registry under a
//     read lock and loads each atomic individually; it is a point-in-
//     time-ish view, not a consistent cut, exactly like resolver.Stats.
//
// The registry's get-or-create semantics mean two components asking for
// the same name share one instrument — that is deliberate: a process has
// one "resolver_sent_total", no matter how many layers can see it.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter silently discards updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
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

// Load returns the current value (0 for nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. The zero value is ready to use; a nil
// *Gauge silently discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// CounterVec is a family of counters distinguished by one label value —
// per-server outcomes, per-fault-class injections. Handles returned by
// With are stable and may be cached by callers for a lock-free hot path.
type CounterVec struct {
	name string
	key  string // Prometheus label key; "" renders as "label"
	mu   sync.RWMutex
	m    map[string]*Counter
}

// labelKey returns the Prometheus label key the vec's members are
// exposed under.
func (v *CounterVec) labelKey() string {
	if v == nil || v.key == "" {
		return "label"
	}
	return v.key
}

// With returns the counter for the given label value, creating it on
// first use. Safe for concurrent use; nil-safe (returns nil, whose
// methods no-op).
func (v *CounterVec) With(label string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.m[label]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.m[label]; c != nil {
		return c
	}
	if v.m == nil {
		v.m = make(map[string]*Counter)
	}
	c = &Counter{}
	v.m[label] = c
	return c
}

// Registry is a named collection of instruments. Lookups are
// get-or-create: the first caller allocates the instrument, later
// callers (of the matching kind) share it. A name registered as one
// kind and requested as another panics — that is a programming error,
// not a runtime condition.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]any // *Counter | *Gauge | *Histogram | *CounterVec
	ordered []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// lookup returns the instrument registered under name, creating it with
// mk on first use.
func (r *Registry) lookup(name string, mk func() any) any {
	r.mu.RLock()
	inst := r.byName[name]
	r.mu.RUnlock()
	if inst != nil {
		return inst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst := r.byName[name]; inst != nil {
		return inst
	}
	inst = mk()
	r.byName[name] = inst
	r.ordered = append(r.ordered, name)
	return inst
}

// Counter returns the counter registered under name. Nil-safe: a nil
// registry returns a nil handle, which discards updates.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.lookup(name, func() any { return &Counter{} }).(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %q is not a counter", name))
	}
	return c
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.lookup(name, func() any { return &Gauge{} }).(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %q is not a gauge", name))
	}
	return g
}

// Histogram returns the latency histogram registered under name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.lookup(name, func() any { return &Histogram{} }).(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %q is not a histogram", name))
	}
	return h
}

// CounterVecKeyed returns the labelled counter family registered under
// name, with its Prometheus label key ("class", "severity", ...), used
// by the text exposition; the JSON snapshot flattens members as
// name{label} regardless. Get-or-create is first-wins: the key of the
// first registration sticks, and "" falls back to the generic key
// "label".
func (r *Registry) CounterVecKeyed(name, key string) *CounterVec {
	if r == nil {
		return nil
	}
	v, ok := r.lookup(name, func() any { return &CounterVec{name: name, key: key} }).(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("obs: %q is not a counter vec", name))
	}
	return v
}

// names returns the registered names, sorted, under the read lock.
func (r *Registry) names() []string {
	r.mu.RLock()
	out := append([]string(nil), r.ordered...)
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// get returns the instrument under name, or nil.
func (r *Registry) get(name string) any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name]
}
