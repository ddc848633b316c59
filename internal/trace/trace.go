// Package trace is the scan pipeline's flight recorder. Where
// internal/obs answers "how is the scan doing in aggregate", trace
// answers "why did THIS domain take THIS path through the Fig. 1
// pipeline": every layer of a domain's measurement — scanner stages
// (parent walk, NS fetch, child probe, second round), iterator steps
// (referral, glue chase, zone build, cache hits, singleflight waits,
// adaptive reorder), client attempts (retry, discard, fault class,
// RTT), and transport-level chaos injections — records a span into a
// per-domain tree.
//
// The design mirrors obs's nil-safety contract: a nil *Recorder is a
// valid recorder whose every method is a no-op, so tracing-off call
// sites pay only a nil check. A pipeline stage is recorded in one place,
// its stage edge: Begin opens it and Stage.End closes it, and the one
// pair of clock readings they take is both the stage's span and its
// latency histogram's observation. Sites that would build a label
// string (fmt.Sprintf, addr.String()) guard it with a recorder check so
// the tracing-off path stays allocation-free; the recorder itself is one
// append into a per-domain arena under a mutex.
//
// Span timestamps are monotonic offsets from the recorder's creation
// (time.Since on the creation time, which carries Go's monotonic
// reading), so a trace is internally consistent even across wall-clock
// steps; only the DomainTrace root carries a wall-clock start.
package trace

import (
	"context"
	"strconv"
	"sync"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/obs"
)

// SpanID indexes a span within its domain's arena. IDs are dense and
// allocation order equals start order.
type SpanID int32

// NoSpan is the parent of root spans and the ID returned by a nil or
// saturated recorder; every Recorder method accepts it and no-ops.
const NoSpan SpanID = -1

// DefaultSpanLimit bounds one domain's arena. A healthy domain records
// a few dozen spans; a pathological walk under chaos a few hundred.
// The cap exists so a resolution loop can never hold the scan's memory
// hostage — overflow increments DroppedSpans instead of growing.
const DefaultSpanLimit = 8192

// Kind classifies a span by pipeline layer. Kinds serialize as the
// strings in kindNames; ReadJSONL rejects unknown kinds.
type Kind uint8

const (
	// Scanner stages (internal/measure).
	KindDomain     Kind = iota // root: one whole domain measurement
	KindRound                  // one scan round (1 or 2)
	KindParentWalk             // delegation walk from the root
	KindNSFetch                // resolving one NS host to addresses
	KindChildProbe             // probing one NS host's addresses
	KindProbe                  // one child NS query to one address

	// Client layer (internal/resolver client).
	KindQuery    // one QueryArenaTraced call (all attempts)
	KindAttempt  // one retry attempt
	KindExchange // one wire exchange (send + recv/discard loop entry)

	// Iterator layer (internal/resolver iterate).
	KindReferral    // one step of the delegation walk
	KindZoneBuild   // building a zone's server set from a referral
	KindHostResolve // resolving one NS hostname (glue chase)

	// Events (zero-duration annotations).
	KindCacheHit   // host/zone cache hit (attr negative=true for cached failures)
	KindFlightWait // received another chain's singleflight result (coalesce)
	KindReorder    // adaptive ordering changed the server try order
	KindChaos      // a chaos injection hit the enclosing exchange

	numKinds
)

var kindNames = [numKinds]string{
	"domain", "round", "parent_walk", "ns_fetch", "child_probe", "probe",
	"query", "attempt", "exchange",
	"referral", "zone_build", "host_resolve",
	"cache_hit", "flight_wait", "reorder", "chaos",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// KindFromString is the inverse of Kind.String for deserialization.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// AttrKind types an attribute value. Attrs are a flat tagged union
// rather than interface{} so recording never boxes.
type AttrKind uint8

const (
	AttrStr AttrKind = iota
	AttrInt
	AttrDur
	AttrBool
)

// Attr is one typed key/value annotation on a span.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Int  int64
}

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Kind: AttrStr, Str: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: AttrInt, Int: v} }

// Dur builds a duration attribute.
func Dur(key string, d time.Duration) Attr { return Attr{Key: key, Kind: AttrDur, Int: int64(d)} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, Kind: AttrBool}
	if v {
		a.Int = 1
	}
	return a
}

// Value renders the attribute value as a string (for trees and diffs).
func (a Attr) Value() string {
	switch a.Kind {
	case AttrStr:
		return a.Str
	case AttrInt:
		return strconv.FormatInt(a.Int, 10)
	case AttrDur:
		return time.Duration(a.Int).String()
	case AttrBool:
		if a.Int != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Span is one node of a domain's resolution tree. Start is the offset
// from the domain recorder's creation; Duration is -1 while the span
// is open and >= 0 once ended. Events (Event == true) are instant
// annotations: zero duration, no outcome.
type Span struct {
	ID       SpanID
	Parent   SpanID
	Kind     Kind
	Name     string
	Event    bool
	Start    time.Duration
	Duration time.Duration
	Outcome  string // "" while open; "ok" or the error text once ended
	Attrs    []Attr
}

// Ended reports whether the span was closed (events count as ended).
func (s *Span) Ended() bool { return s.Event || s.Duration >= 0 }

// Recorder collects one domain's spans into an arena. All methods are
// safe on a nil receiver and safe for concurrent use — the per-domain
// fan-out and glue chases record from many goroutines.
type Recorder struct {
	limit  int
	start  time.Time // carries the monotonic reading for offsets
	domain dnsname.Name

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewRecorder starts a recorder for one domain. limit <= 0 means
// DefaultSpanLimit.
func NewRecorder(domain dnsname.Name, limit int) *Recorder {
	return newRecorder(domain, limit, make([]Span, 0, 64))
}

// newRecorder is NewRecorder over a caller-supplied arena — the flight
// recorder recycles dropped traces' arenas through here.
func newRecorder(domain dnsname.Name, limit int, arena []Span) *Recorder {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Recorder{limit: limit, start: time.Now(), domain: domain, spans: arena}
}

// open appends a span under parent (NoSpan for a root) that started at
// the instant at, and returns its ID: NoSpan on a nil recorder or a full
// arena.
func (r *Recorder) open(parent SpanID, kind Kind, name string, at time.Time) SpanID {
	if r == nil {
		return NoSpan
	}
	return r.add(Span{Parent: parent, Kind: kind, Name: name, Start: at.Sub(r.start), Duration: -1})
}

// add appends sp to the arena and returns its ID, or counts it dropped
// and returns NoSpan when the arena is full.
func (r *Recorder) add(sp Span) SpanID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return NoSpan
	}
	sp.ID = SpanID(len(r.spans))
	r.spans = append(r.spans, sp)
	return sp.ID
}

// close ends span id at the instant at with "ok" or the error's text.
// Closing NoSpan or an already-ended span is a no-op.
func (r *Recorder) close(id SpanID, err error, at time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) >= len(r.spans) {
		return
	}
	sp := &r.spans[id]
	if sp.Ended() {
		return
	}
	sp.Duration = max(at.Sub(r.start)-sp.Start, 0)
	if err != nil {
		sp.Outcome = err.Error()
	} else {
		sp.Outcome = "ok"
	}
}

// Annotate appends attributes to an open or ended span.
func (r *Recorder) Annotate(id SpanID, attrs ...Attr) {
	if r == nil || id < 0 || len(attrs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) >= len(r.spans) {
		return
	}
	sp := &r.spans[id]
	sp.Attrs = append(sp.Attrs, attrs...)
}

// Event records an instant zero-duration span under parent: cache
// hits, singleflight waits, reorders, chaos injections.
func (r *Recorder) Event(parent SpanID, kind Kind, name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.add(Span{Parent: parent, Kind: kind, Name: name, Event: true, Start: time.Since(r.start), Attrs: attrs})
}

// Finish seals the recorder into an exportable DomainTrace. The
// classification, round count, and error disposition come from the
// scan result; ClassChanged marks a domain whose classification
// differed between rounds (one of the flight recorder's retention
// triggers).
//
// Finish transfers the span arena to the returned trace rather than
// copying it — at scan scale the copy would double tracing's
// allocation bill. The recorder is left empty: recording after Finish
// is safe but lands in a fresh arena invisible to the sealed trace.
func (r *Recorder) Finish(class string, rounds int, errText string, transient, classChanged bool) *DomainTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dt := &DomainTrace{
		Domain:       r.domain,
		Start:        r.start,
		Duration:     time.Since(r.start),
		Class:        class,
		Rounds:       rounds,
		Err:          errText,
		ErrTransient: transient,
		ClassChanged: classChanged,
		DroppedSpans: r.dropped,
		Spans:        r.spans,
	}
	r.spans = nil
	return dt
}

// DomainTrace is one domain's sealed span tree plus the scan-result
// summary that decided its retention.
type DomainTrace struct {
	Domain       dnsname.Name
	Start        time.Time
	Duration     time.Duration
	Class        string
	Rounds       int
	Err          string
	ErrTransient bool
	ClassChanged bool
	DroppedSpans int
	// RetainedFor lists the flight-recorder buckets that kept this
	// trace ("slowest", "error", "class-flip"); empty until the trace
	// passes through FlightRecorder.Retained.
	RetainedFor []string
	Spans       []Span
}

// scope carries the active recorder and parent span through a context.
// One key holds both so tracing adds a single context value per layer.
type scopeKey struct{}

type scope struct {
	rec  *Recorder
	span SpanID
}

// From extracts the active recorder and parent span from ctx; (nil,
// NoSpan) when the request is untraced.
func From(ctx context.Context) (*Recorder, SpanID) {
	if s, ok := ctx.Value(scopeKey{}).(scope); ok {
		return s.rec, s.span
	}
	return nil, NoSpan
}

// Stage is one timed pipeline stage: the span it opened, if the
// context was traced, and the histogram it feeds, if it is metered.
// Begin and End each read the clock once, and that one pair of
// readings is both the span's extent and the histogram's observation.
// A stage that is neither traced nor metered reads no clock at all.
type Stage struct {
	rec   *Recorder
	span  SpanID
	hist  *obs.Histogram
	begin time.Time
}

// Begin opens a stage under ctx's active span and returns ctx scoped
// to it, so the stage's callees nest inside it; untraced, ctx comes back
// unchanged. hist, when non-nil, observes the stage's duration at End.
// Every Begin is paired with an End on all paths (make lint checks it).
func Begin(ctx context.Context, kind Kind, name string, hist *obs.Histogram) (context.Context, Stage) {
	rec, parent := From(ctx)
	return rec.begin(ctx, parent, kind, name, hist)
}

// Begin opens r's root stage — the domain span every other stage nests
// under — and returns ctx scoped to it. A nil r gives an untraced stage
// that still feeds hist.
func (r *Recorder) Begin(ctx context.Context, kind Kind, name string, hist *obs.Histogram) (context.Context, Stage) {
	return r.begin(ctx, NoSpan, kind, name, hist)
}

// Begin opens a stage nested in s and returns ctx scoped to it: Begin
// for a site that holds the parent stage, sparing the context lookup.
// ctx must be the context s's Begin returned, or one derived from it.
func (s Stage) Begin(ctx context.Context, kind Kind, name string, hist *obs.Histogram) (context.Context, Stage) {
	return s.rec.begin(ctx, s.span, kind, name, hist)
}

func (r *Recorder) begin(ctx context.Context, parent SpanID, kind Kind, name string, hist *obs.Histogram) (context.Context, Stage) {
	if r == nil && hist == nil {
		return ctx, Stage{}
	}
	st := Stage{rec: r, hist: hist, begin: time.Now()}
	st.span = r.open(parent, kind, name, st.begin)
	if r != nil {
		ctx = context.WithValue(ctx, scopeKey{}, scope{rec: r, span: st.span})
	}
	return ctx, st
}

// Traced reports whether the stage records a span: sites guard
// building a name or attributes with it.
func (s Stage) Traced() bool { return s.rec != nil }

// Annotate appends attributes to the stage's span.
func (s Stage) Annotate(attrs ...Attr) { s.rec.Annotate(s.span, attrs...) }

// End closes the stage with "ok" or the error's text and returns its
// duration: the span's Duration and hist's observation, from one clock
// reading. An untraced, unmetered stage returns 0.
func (s Stage) End(err error) time.Duration {
	if s.rec == nil && s.hist == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.begin)
	s.hist.Observe(d)
	s.rec.close(s.span, err, now)
	return d
}

// EndAfter is End for a stage that lasted d in simulated time, however
// little wall time it took: the span closes d after it began, hist
// observes d, and no clock is read. An untraced, unmetered stage
// returns 0.
func (s Stage) EndAfter(err error, d time.Duration) time.Duration {
	if s.rec == nil && s.hist == nil {
		return 0
	}
	s.hist.Observe(d)
	s.rec.close(s.span, err, s.begin.Add(d))
	return d
}
