package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/obs"
)

// TestNilRecorderNoOps pins the tracing-off contract: every method of a
// nil *Recorder and nil *FlightRecorder is a safe no-op, because that
// is what every call site in the resolver and scanner relies on.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	ctx := context.Background()
	sctx, st := r.Begin(ctx, KindDomain, "x", nil)
	if sctx != ctx || st.Traced() {
		t.Errorf("nil Begin = (%v, %+v), want ctx unchanged and an untraced stage", sctx, st)
	}
	if d := st.End(errors.New("boom")); d != 0 {
		t.Errorf("untraced, unmetered End = %v, want 0", d)
	}
	r.close(0, nil, time.Now())
	r.Annotate(0, Str("k", "v"))
	r.Event(NoSpan, KindChaos, "drop")
	if dt := r.Finish("ok", 1, "", false, false); dt != nil {
		t.Errorf("nil Finish = %+v, want nil", dt)
	}

	var f *FlightRecorder
	if rec := f.NewRecorder("x.gov."); rec != nil {
		t.Errorf("nil FlightRecorder.NewRecorder = %v, want nil", rec)
	}
	f.Offer(nil)
	f.AttachRegistry(obs.NewRegistry())
	if s, e, fl, o := f.Counts(); s+e+fl != 0 || o != 0 {
		t.Errorf("nil Counts = %d %d %d %d", s, e, fl, o)
	}
	if got := f.Retained(); got != nil {
		t.Errorf("nil Retained = %v, want nil", got)
	}
}

// TestRecorderSpanTree exercises the arena: parents, outcomes,
// annotation, events, and idempotent End.
func TestRecorderSpanTree(t *testing.T) {
	r := NewRecorder("x.gov.", 0)
	ctx, root := r.Begin(context.Background(), KindDomain, "x.gov.", nil)
	_, child := root.Begin(ctx, KindQuery, "x.gov. NS @1.2.3.4", nil)
	child.Annotate(Int("attempts", 3), Dur("rtt", 5*time.Millisecond))
	child.End(errors.New("timeout"))
	child.End(nil) // idempotent: must not overwrite the error
	r.Event(root.span, KindCacheHit, "gov.", Str("layer", "zone"), Bool("negative", true))
	root.End(nil)

	dt := r.Finish("walk-failure", 2, "timeout", true, true)
	if dt.Domain != "x.gov." || dt.Class != "walk-failure" || dt.Rounds != 2 {
		t.Fatalf("Finish header = %+v", dt)
	}
	if !dt.ErrTransient || !dt.ClassChanged {
		t.Errorf("flags not carried: %+v", dt)
	}
	if len(dt.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(dt.Spans))
	}

	rootSp, childSp, ev := &dt.Spans[0], &dt.Spans[1], &dt.Spans[2]
	if rootSp.Parent != NoSpan || childSp.Parent != root.span || ev.Parent != root.span {
		t.Errorf("parents wrong: %d %d %d", rootSp.Parent, childSp.Parent, ev.Parent)
	}
	if rootSp.Outcome != "ok" {
		t.Errorf("root outcome = %q, want ok", rootSp.Outcome)
	}
	if childSp.Outcome != "timeout" {
		t.Errorf("child outcome = %q, want timeout (idempotent End)", childSp.Outcome)
	}
	if !childSp.Ended() || childSp.Duration < 0 {
		t.Errorf("child not ended: %+v", childSp)
	}
	if len(childSp.Attrs) != 2 || childSp.Attrs[0].Value() != "3" || childSp.Attrs[1].Value() != "5ms" {
		t.Errorf("attrs = %+v", childSp.Attrs)
	}
	if !ev.Event || !ev.Ended() || ev.Duration != 0 || ev.Outcome != "" {
		t.Errorf("event malformed: %+v", ev)
	}
	if ev.Kind != KindCacheHit || ev.Attrs[1].Value() != "true" {
		t.Errorf("event attrs = %+v", ev)
	}
}

// TestRecorderSpanLimit: the arena cap turns overflow into DroppedSpans
// instead of growth, and ending a dropped (NoSpan) span is harmless.
func TestRecorderSpanLimit(t *testing.T) {
	r := NewRecorder("x.gov.", 2)
	ctx, a := r.Begin(context.Background(), KindDomain, "a", nil)
	ctx, b := a.Begin(ctx, KindRound, "b", nil)
	_, c := b.Begin(ctx, KindQuery, "c", nil) // over the cap
	if c.span != NoSpan {
		t.Fatalf("over-limit Begin opened span %d, want NoSpan", c.span)
	}
	r.Event(b.span, KindChaos, "also dropped")
	c.End(nil)
	b.End(nil)
	a.End(nil)
	dt := r.Finish("ok", 1, "", false, false)
	if len(dt.Spans) != 2 || dt.DroppedSpans != 2 {
		t.Errorf("spans=%d dropped=%d, want 2 and 2", len(dt.Spans), dt.DroppedSpans)
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines the
// way the scanner's intra-domain fan-out does; run under -race this is
// the data-race check, and the span count must come out exact.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder("x.gov.", 0)
	ctx, root := r.Begin(context.Background(), KindDomain, "x.gov.", nil)
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, st := root.Begin(ctx, KindProbe, fmt.Sprintf("w%d-%d", w, i), nil)
				st.Annotate(Int("i", int64(i)))
				st.End(nil)
			}
		}(w)
	}
	wg.Wait()
	root.End(nil)
	dt := r.Finish("ok", 1, "", false, false)
	if want := 1 + workers*each; len(dt.Spans) != want {
		t.Errorf("got %d spans, want %d", len(dt.Spans), want)
	}
	for i := range dt.Spans {
		if sp := &dt.Spans[i]; !sp.Ended() {
			t.Errorf("span %d (%s) not ended", sp.ID, sp.Name)
		}
		if int(dt.Spans[i].ID) != i {
			t.Errorf("span %d has ID %d; arena must stay dense", i, dt.Spans[i].ID)
		}
	}
}

// TestContextPlumbing: Begin/From carry the (recorder, span) scope, a
// stage nests under the context's active span, and an untraced stage
// adds no context layer at all.
func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if rec, span := From(ctx); rec != nil || span != NoSpan {
		t.Errorf("empty ctx From = %v %d", rec, span)
	}
	if got, st := Begin(ctx, KindProbe, "x", nil); got != ctx || st.Traced() {
		t.Error("untraced Begin must return ctx unchanged and an untraced stage")
	}
	r := NewRecorder("x.gov.", 0)
	ctx2, root := r.Begin(ctx, KindDomain, "x.gov.", nil)
	if rec, span := From(ctx2); rec != r || span != 0 {
		t.Errorf("From = %v %d, want %v 0", rec, span, r)
	}
	ctx3, child := Begin(ctx2, KindRound, "round 1", nil)
	if rec, span := From(ctx3); rec != r || span != 1 {
		t.Errorf("From = %v %d, want %v 1", rec, span, r)
	}
	child.End(nil)
	root.End(nil)
	dt := r.Finish("ok", 1, "", false, false)
	if len(dt.Spans) != 2 || dt.Spans[1].Parent != 0 || !dt.Spans[0].Ended() || !dt.Spans[1].Ended() {
		t.Errorf("spans = %+v, want an ended root and an ended child under it", dt.Spans)
	}
}

// TestStageOneReading: a metered, traced stage's span duration, its
// histogram observation and End's return value are one number; an
// untraced stage still feeds its histogram, and a stage that is
// neither observes nothing. EndAfter keeps the same one number, the
// simulated duration it is given.
func TestStageOneReading(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("stage")
	r := NewRecorder("x.gov.", 0)
	_, st := r.Begin(context.Background(), KindDomain, "x.gov.", h)
	d := st.End(errors.New("boom"))
	sp := r.Finish("ok", 1, "", false, false).Spans[0]
	if sp.Duration != d || h.Sum() != d || h.Count() != 1 {
		t.Errorf("End = %v, span %v, histogram sum %v count %d: want one duration", d, sp.Duration, h.Sum(), h.Count())
	}
	if sp.Outcome != "boom" {
		t.Errorf("outcome = %q, want the error text", sp.Outcome)
	}

	_, st = Begin(context.Background(), KindNSFetch, "", h)
	if d := st.End(nil); h.Count() != 2 || h.Sum() != sp.Duration+d {
		t.Errorf("untraced metered stage: count %d sum %v, want 2 and %v", h.Count(), h.Sum(), sp.Duration+d)
	}
	_, st = Begin(context.Background(), KindProbe, "", nil)
	if d := st.End(nil); d != 0 {
		t.Errorf("untraced, unmetered stage returned %v, want 0", d)
	}

	// EndAfter: a stage that lasted an hour in simulated time closes
	// its span an hour after it began and observes the hour, however
	// little wall time passed.
	r = NewRecorder("y.gov.", 0)
	_, st = r.Begin(context.Background(), KindExchange, "192.0.2.1", h)
	if d := st.EndAfter(errors.New("expired"), time.Hour); d != time.Hour {
		t.Errorf("EndAfter = %v, want the hour it was given", d)
	}
	sp = r.Finish("ok", 1, "", false, false).Spans[0]
	if sp.Duration != time.Hour || sp.Outcome != "expired" || h.Count() != 3 || h.Max() < time.Hour {
		t.Errorf("EndAfter: span %v %q, histogram count %d max %v; want an hour observed once", sp.Duration, sp.Outcome, h.Count(), h.Max())
	}
	_, st = Begin(context.Background(), KindExchange, "", nil)
	if d := st.EndAfter(nil, time.Hour); d != 0 {
		t.Errorf("untraced, unmetered EndAfter returned %v, want 0", d)
	}
}

// mkTrace builds a minimal sealed trace for retention tests.
func mkTrace(domain string, dur time.Duration, errText string, transient, flipped bool) *DomainTrace {
	return &DomainTrace{
		Domain: dnsname.Name("d" + domain + ".gov."), Start: time.Unix(1700000000, 0).UTC(),
		Duration: dur, Class: "ok", Rounds: 1,
		Err: errText, ErrTransient: transient, ClassChanged: flipped,
	}
}

// TestFlightRecorderRetention pins the three buckets: slowest-N kept in
// descending order with eviction, error and class-flip rings wrapping,
// and Retained() deduplicating a trace kept for several reasons.
func TestFlightRecorderRetention(t *testing.T) {
	f := NewFlightRecorder(Config{Slowest: 2, Errors: 2, Flipped: 2})
	f.Offer(mkTrace("a", 30*time.Millisecond, "", false, false))
	f.Offer(mkTrace("b", 10*time.Millisecond, "", false, false))
	f.Offer(mkTrace("c", 20*time.Millisecond, "", false, false)) // evicts b
	f.Offer(mkTrace("d", 1*time.Millisecond, "", false, false))  // too fast: dropped
	// Error ring wraps: e1 is overwritten by e3.
	f.Offer(mkTrace("e1", 2*time.Millisecond, "timeout", true, false))
	f.Offer(mkTrace("e2", 2*time.Millisecond, "refused", false, false))
	f.Offer(mkTrace("e3", 2*time.Millisecond, "servfail", true, false))
	// Slow AND flipped: retained once with two reasons.
	f.Offer(mkTrace("f", 40*time.Millisecond, "", false, true))

	slow, errs, flip, offered := f.Counts()
	if slow != 2 || errs != 2 || flip != 1 || offered != 8 {
		t.Fatalf("Counts = %d %d %d %d, want 2 2 1 8", slow, errs, flip, offered)
	}
	got := f.Retained()
	byDomain := map[string]*DomainTrace{}
	for _, dt := range got {
		byDomain[string(dt.Domain)] = dt
	}
	if len(got) != 4 { // f + a (slowest), e2 + e3 (ring); f's flip dedups
		var names []string
		for _, dt := range got {
			names = append(names, string(dt.Domain))
		}
		t.Fatalf("Retained %d traces (%s), want 4", len(got), strings.Join(names, ","))
	}
	for domain, reasons := range map[string][]string{
		"df.gov.":  {RetainSlowest, RetainClassFlip},
		"da.gov.":  {RetainSlowest},
		"de2.gov.": {RetainError},
		"de3.gov.": {RetainError},
	} {
		dt := byDomain[domain]
		if dt == nil {
			t.Errorf("%s not retained", domain)
			continue
		}
		if fmt.Sprint(dt.RetainedFor) != fmt.Sprint(reasons) {
			t.Errorf("%s RetainedFor = %v, want %v", domain, dt.RetainedFor, reasons)
		}
	}
	if byDomain["de1.gov."] != nil {
		t.Error("e1 should have been evicted by the ring wrap")
	}
	if byDomain["db.gov."] != nil || byDomain["dd.gov."] != nil {
		t.Error("fast non-error traces must be dropped")
	}
}

// TestFlightRecorderMetrics: AttachRegistry surfaces retention in obs.
func TestFlightRecorderMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFlightRecorder(Config{Slowest: 1})
	f.AttachRegistry(reg)
	f.Offer(mkTrace("a", 5*time.Millisecond, "", false, false))
	f.Offer(mkTrace("b", 1*time.Millisecond, "boom", false, false))
	f.Offer(mkTrace("c", 1*time.Millisecond, "", false, false)) // dropped
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"trace_domains_offered_total":  3,
		"trace_domains_retained_total": 2,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]int64{
		"trace_retained_slowest": 1,
		"trace_retained_errors":  1,
		"trace_retained_flipped": 0,
	} {
		if got := snap.Gauges[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestKindStringRoundTrip: every kind has a distinct wire name and
// KindFromString inverts String, so serialized traces stay readable.
func TestKindStringRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
		got, ok := KindFromString(s)
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %v %v, want %v true", s, got, ok, k)
		}
	}
	if _, ok := KindFromString("warp_drive"); ok {
		t.Error("unknown kind name must not resolve")
	}
}

// TestFlightRecorderPinned covers the caller-keyed retention bucket:
// OfferPin(dt, true) retains a trace every built-in criterion would
// drop, the pinned ring wraps at Config.Pinned, an unpinned OfferPin is
// exactly Offer, and the trace_retained_pinned gauge tracks occupancy.
func TestFlightRecorderPinned(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFlightRecorder(Config{Slowest: 1, Pinned: 2})
	f.AttachRegistry(reg)
	f.Offer(mkTrace("slow", 50*time.Millisecond, "", false, false))
	// Fast, clean, stable traces: without a pin they are dropped.
	f.OfferPin(mkTrace("p1", time.Millisecond, "", false, false), true)
	f.OfferPin(mkTrace("p2", time.Millisecond, "", false, false), true)
	f.OfferPin(mkTrace("p3", time.Millisecond, "", false, false), true) // ring wraps: evicts p1
	f.OfferPin(mkTrace("un", time.Millisecond, "", false, false), false)

	if n := len(f.pinned.traces); n != 2 {
		t.Fatalf("pinned ring holds %d, want 2", n)
	}
	byDomain := map[string]*DomainTrace{}
	for _, dt := range f.Retained() {
		byDomain[string(dt.Domain)] = dt
	}
	for _, domain := range []string{"dp2.gov.", "dp3.gov."} {
		dt := byDomain[domain]
		if dt == nil {
			t.Errorf("%s not retained", domain)
			continue
		}
		if fmt.Sprint(dt.RetainedFor) != fmt.Sprint([]string{RetainPinned}) {
			t.Errorf("%s RetainedFor = %v, want [%s]", domain, dt.RetainedFor, RetainPinned)
		}
	}
	if byDomain["dp1.gov."] != nil {
		t.Error("p1 should have been evicted by the pinned ring wrap")
	}
	if byDomain["dun.gov."] != nil {
		t.Error("unpinned fast trace must be dropped")
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["trace_retained_pinned"]; got != 2 {
		t.Errorf("trace_retained_pinned = %d, want 2", got)
	}
}
