package resolver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/memo"
	"govdns/internal/obs"
	"govdns/internal/trace"
)

// keep is the iterator's one negative-caching rule, deciding whether a
// leader's outcome becomes its key's table entry. Successes are kept,
// and so are durable failures, so bulk scans do not re-walk a broken
// chain once per domain under it. Not every failure is durable, though:
// a dead context is the caller's failure, not the name's; a depth
// overrun is relative to the call chain (the same name can resolve from
// a shallower one); and a failure in the transient class (timeouts,
// rejected or truncated responses, SERVFAIL) may not recur — the
// scanner's second round exists precisely to re-probe those (§ III-B),
// so keeping them would turn the retry into a replay of the first
// failure. A kept failure stores its cause, so consumers — zone builds
// deciding whether their own failure is transient — can classify it.
func keep(ctx context.Context, err error) bool {
	return err == nil || ctx.Err() == nil && !errors.Is(err, ErrDepth) && !IsTransientErr(err)
}

// observe counts how a table call for name in layer ("host" or "zone")
// was answered, with hits the layer's positive-hit counter and wait the
// bound the call ran under, and returns the call's error — wrapped, for
// an abandoned wait, in the resolver's prefix. A hit (negative: on a
// kept failure) and a coalesced wait are also events on the active span.
func (it *Iterator) observe(ctx context.Context, layer string, name dnsname.Name, hits *obs.Counter, wait time.Duration, how memo.Outcome, err error) error {
	switch how {
	case memo.Hit:
		if err != nil {
			it.client.metrics().negHits.Inc()
		} else {
			hits.Inc()
		}
		if rec, parent := trace.From(ctx); rec != nil {
			rec.Event(parent, trace.KindCacheHit, string(name),
				trace.Str("layer", layer), trace.Bool("negative", err != nil))
		}
	case memo.Coalesced:
		it.client.metrics().coalesced.Inc()
		if rec, parent := trace.From(ctx); rec != nil {
			rec.Event(parent, trace.KindFlightWait, string(name), trace.Str("layer", layer))
		}
	case memo.Bypassed:
		// A negative wait is a same-chain re-entry, not a wait given up.
		if wait > 0 {
			it.client.metrics().bypassed.Inc()
		}
	case memo.Abandoned:
		return fmt.Errorf("resolver: %w", err)
	}
	return err
}

// inFlight marks a call chain that is running the computation of
// (kind, name): a context whose Value answers inFlightKey with the
// innermost mark, each mark linked to the one enclosing it. Recursive
// resolution can revisit its own key — a CNAME loop back to the host
// being resolved, or a zone whose glue-less NS host walk runs into the
// zone itself — and must then run the work itself instead of waiting on
// itself (flightWait's negative bound). Recursion depth limits bound
// that path exactly as they did before coalescing existed.
//
// A chain carrying any mark leads *some* key's computation. Only such
// chains can participate in a cross-chain wait cycle (every edge of a
// cycle is a leader waiting on another computation), so only they need
// a bounded wait; top-level callers coalesce without a bound.
type inFlight struct {
	context.Context
	kind  byte // 'h' for host lookups, 'z' for zone builds
	name  dnsname.Name
	outer *inFlight // the enclosing mark; nil for the outermost
}

// inFlightKey is the Value key a mark answers; being zero-size, it
// boxes into an interface without allocating.
type inFlightKey struct{}

// Value answers inFlightKey with the mark itself and defers every other
// key to the context it wraps.
func (m *inFlight) Value(k any) any {
	if k == (inFlightKey{}) {
		return m
	}
	return m.Context.Value(k)
}

// innermost returns ctx's innermost mark, nil when the chain leads no
// computation.
func innermost(ctx context.Context) *inFlight {
	m, _ := ctx.Value(inFlightKey{}).(*inFlight)
	return m
}

func markInFlight(ctx context.Context, kind byte, name dnsname.Name) context.Context {
	return &inFlight{Context: ctx, kind: kind, name: name, outer: innermost(ctx)}
}

// runs reports whether m or a mark enclosing it is (kind, name)'s.
func (m *inFlight) runs(kind byte, name dnsname.Name) bool {
	for ; m != nil; m = m.outer {
		if m.kind == kind && m.name == name {
			return true
		}
	}
	return false
}
