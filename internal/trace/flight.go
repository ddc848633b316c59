// The flight recorder: bounded retention of exemplar domain traces.
//
// Recording every domain's span tree at scan scale would cost more
// memory than the scan itself, so the FlightRecorder keeps only the
// traces a triage session would actually open: the N slowest domains
// (scan-latency outliers), every domain that ended in an error or a
// transient fault (ring buffer — the paper's Error/Transient buckets),
// every domain whose classification changed between rounds (the
// digest-divergence suspects), and every trace the caller explicitly
// pinned (OfferPin — the monitoring daemon's alert-worthy domains).
// Everything else is offered, counted, and dropped; the per-domain
// arena it occupied is garbage the moment Offer returns.
package trace

import (
	"io"
	"sort"
	"sync"

	"govdns/internal/dnsname"
	"govdns/internal/obs"
)

// Retention bucket labels reported in DomainTrace.RetainedFor.
const (
	RetainSlowest   = "slowest"
	RetainError     = "error"
	RetainClassFlip = "class-flip"
	RetainPinned    = "pinned"
)

// Config bounds the flight recorder's four retention buckets.
type Config struct {
	// Slowest is how many slowest-domain exemplars to keep (default 16).
	Slowest int
	// Errors bounds the Error/Transient ring buffer (default 512).
	Errors int
	// Flipped bounds the classification-changed ring buffer (default 128).
	Flipped int
	// Pinned bounds the caller-pinned ring buffer (default 256): traces
	// retained because the caller's own predicate — not the recorder's
	// built-in criteria — demanded them via OfferPin. The monitoring
	// daemon pins every alert-worthy domain here so each alert links to
	// a complete trace even when the domain was fast, error-free, and
	// stable within the epoch.
	Pinned int
}

func (c Config) withDefaults() Config {
	if c.Slowest <= 0 {
		c.Slowest = 16
	}
	if c.Errors <= 0 {
		c.Errors = 512
	}
	if c.Flipped <= 0 {
		c.Flipped = 128
	}
	if c.Pinned <= 0 {
		c.Pinned = 256
	}
	return c
}

// ring keeps the most recent traces added to it, at most n: once full,
// each add overwrites the oldest.
type ring struct {
	traces []*DomainTrace
	next   int
}

func (r *ring) add(dt *DomainTrace, n int) {
	if len(r.traces) < n {
		r.traces = append(r.traces, dt)
		return
	}
	r.traces[r.next] = dt
	r.next = (r.next + 1) % n
}

// FlightRecorder retains exemplar DomainTraces under fixed memory
// bounds. A nil *FlightRecorder is tracing-off: NewRecorder returns a
// nil *Recorder and Offer is a no-op, mirroring obs's nil-instrument
// contract.
type FlightRecorder struct {
	cfg Config

	mu      sync.Mutex
	slowest []*DomainTrace // sorted descending by Duration, len <= cfg.Slowest
	errs    ring
	flipped ring
	pinned  ring
	offered uint64

	// arenas recycles the span slices of traces Offer declined to
	// retain: at scan scale almost every offer is dropped, and without
	// reuse each domain pays a fresh arena allocation.
	arenas sync.Pool

	// Registry handles; nil until AttachRegistry, and nil-safe like
	// every obs instrument.
	mOffered      *obs.Counter
	mRetained     *obs.Counter
	mDroppedSpans *obs.Counter
	gSlowest      *obs.Gauge
	gErrors       *obs.Gauge
	gFlipped      *obs.Gauge
	gPinned       *obs.Gauge
}

// NewFlightRecorder builds a flight recorder; zero-value Config fields
// take the documented defaults.
func NewFlightRecorder(cfg Config) *FlightRecorder {
	return &FlightRecorder{cfg: cfg.withDefaults()}
}

// AttachRegistry binds the recorder's retention counts to reg:
//
//	trace_domains_offered_total    domains whose trace was offered
//	trace_domains_retained_total   offers that landed in >= 1 bucket
//	trace_spans_dropped_total      spans lost to per-domain arena caps
//	trace_retained_slowest         current slowest-bucket occupancy
//	trace_retained_errors          current error-ring occupancy
//	trace_retained_flipped         current class-flip-ring occupancy
//	trace_retained_pinned          current caller-pinned-ring occupancy
//
// Call it before the first Offer. The first registry attached wins; a
// later call, and a nil reg, change nothing.
func (f *FlightRecorder) AttachRegistry(reg *obs.Registry) {
	if f == nil || reg == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mOffered != nil {
		return
	}
	f.mOffered = reg.Counter("trace_domains_offered_total")
	f.mRetained = reg.Counter("trace_domains_retained_total")
	f.mDroppedSpans = reg.Counter("trace_spans_dropped_total")
	f.gSlowest = reg.Gauge("trace_retained_slowest")
	f.gErrors = reg.Gauge("trace_retained_errors")
	f.gFlipped = reg.Gauge("trace_retained_flipped")
	f.gPinned = reg.Gauge("trace_retained_pinned")
}

// NewRecorder starts a per-domain recorder, or nil when f is nil so
// the whole recording path short-circuits. The recorder's arena is
// recycled from a previously dropped trace when one is available.
func (f *FlightRecorder) NewRecorder(domain dnsname.Name) *Recorder {
	if f == nil {
		return nil
	}
	if sp, ok := f.arenas.Get().(*[]Span); ok {
		return newRecorder(domain, DefaultSpanLimit, (*sp)[:0])
	}
	return NewRecorder(domain, DefaultSpanLimit)
}

// Offer presents a sealed trace for retention. The trace is kept if it
// is among the slowest seen so far, ended Error/Transient, or changed
// classification between rounds; otherwise it is dropped.
func (f *FlightRecorder) Offer(dt *DomainTrace) {
	f.OfferPin(dt, false)
}

// OfferPin is Offer with a caller-side retention demand: pin forces the
// trace into the pinned ring whatever the built-in criteria say. This
// is the targeted-retention API the monitoring daemon keys by its
// alert predicate — the recorder stays ignorant of what "alert-worthy"
// means, the caller stays ignorant of retention bookkeeping.
func (f *FlightRecorder) OfferPin(dt *DomainTrace, pin bool) {
	if f == nil || dt == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offered++
	f.mOffered.Inc()
	if dt.DroppedSpans > 0 {
		f.mDroppedSpans.Add(uint64(dt.DroppedSpans))
	}

	retained := false
	// Slowest bucket: insertion sort into a small descending slice.
	if len(f.slowest) < f.cfg.Slowest || dt.Duration > f.slowest[len(f.slowest)-1].Duration {
		i := sort.Search(len(f.slowest), func(i int) bool {
			return f.slowest[i].Duration < dt.Duration
		})
		if len(f.slowest) < f.cfg.Slowest {
			f.slowest = append(f.slowest, nil)
		}
		copy(f.slowest[i+1:], f.slowest[i:])
		f.slowest[i] = dt
		retained = true
	}
	if dt.Err != "" || dt.ErrTransient {
		f.errs.add(dt, f.cfg.Errors)
		retained = true
	}
	if dt.ClassChanged {
		f.flipped.add(dt, f.cfg.Flipped)
		retained = true
	}
	if pin {
		f.pinned.add(dt, f.cfg.Pinned)
		retained = true
	}
	if retained {
		f.mRetained.Inc()
	} else {
		// Nobody holds the trace: clear the spans (they pin name and
		// outcome strings) and recycle the arena for the next domain.
		spans := dt.Spans
		clear(spans)
		spans = spans[:0]
		f.arenas.Put(&spans)
		dt.Spans = nil
	}
	f.gSlowest.Set(int64(len(f.slowest)))
	f.gErrors.Set(int64(len(f.errs.traces)))
	f.gFlipped.Set(int64(len(f.flipped.traces)))
	f.gPinned.Set(int64(len(f.pinned.traces)))
}

// Counts reports current bucket occupancy and the total offered.
func (f *FlightRecorder) Counts() (slowest, errors, flipped int, offered uint64) {
	if f == nil {
		return 0, 0, 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.slowest), len(f.errs.traces), len(f.flipped.traces), f.offered
}

// Retained returns the deduplicated set of retained traces, each
// annotated with the buckets that kept it, sorted by (Domain, Start)
// so exports are deterministic for a deterministic scan.
func (f *FlightRecorder) Retained() []*DomainTrace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	reasons := make(map[*DomainTrace][]string)
	order := make([]*DomainTrace, 0, len(f.slowest)+len(f.errs.traces)+len(f.flipped.traces)+len(f.pinned.traces))
	add := func(dts []*DomainTrace, reason string) {
		for _, dt := range dts {
			if _, ok := reasons[dt]; !ok {
				order = append(order, dt)
			}
			reasons[dt] = append(reasons[dt], reason)
		}
	}
	add(f.slowest, RetainSlowest)
	add(f.errs.traces, RetainError)
	add(f.flipped.traces, RetainClassFlip)
	add(f.pinned.traces, RetainPinned)
	for _, dt := range order {
		dt.RetainedFor = reasons[dt]
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Domain != order[j].Domain {
			return order[i].Domain < order[j].Domain
		}
		return order[i].Start.Before(order[j].Start)
	})
	return order
}

// WriteJSONL exports every retained trace, one JSON object per line.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, f.Retained())
}
