// Package chaos is a composable, seeded fault-injection layer for the
// resolver stack. It wraps any transport (simnet or UDP) and injects
// deterministic fault schedules — dropped and delayed packets, stale
// duplicate responses, TC-bit truncation, transaction-ID corruption,
// question-section mismatch, byte-level wire mangling, RCODE flips, and
// time-windowed server flapping. The simnet models only what is durably
// dead (blackholes, filtered sources, unresponsive servers); chaos is the
// repo's one model of everything a live path does to a packet — loss and
// delay as much as the *adversarial pathologies* § IV-C treats as
// measurement subject rather than noise.
//
// Determinism is the point: every fault decision is a pure function of
// the seed, the rule, and the query's content (server, qname, qtype) plus
// — for windowed rules — a per-key sequence number. Content-keyed
// persistent rules therefore answer the *same query* identically no
// matter how a scan is scheduled. Note what that does and does not give
// the differential harness in internal/measure: the transport is
// schedule-invariant, but a scan's *query set* is not — a resolver walk
// consults its zone cache, so whether a domain's walk queries an
// ancestor at all depends on which domain warmed the cache first. Under
// persistent chaos the harness therefore asserts serial reproducibility
// and monotone degradation, and reserves bit-identical cross-config
// digests for transient-free scans. Windowed (transient) rules and Flap
// additionally depend on arrival order; they exist to exercise the
// scanner's second-round recovery under serial scans.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"govdns/internal/deadline"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/obs"
	"govdns/internal/trace"
)

// ErrInjected marks transport errors produced by an injected fault, so
// tests and logs can tell manufactured failures from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Class identifies one fault taxonomy entry.
type Class int

const (
	// Drop loses the exchange: the query is never answered, exactly
	// like a blackholed address. The attempt times out at once when its
	// own deadline binds (deadline.Expire), else when its context ends.
	Drop Class = iota
	// Delay delivers the (clean) response only after Rule.Delay has
	// passed. A spike that reaches the attempt's own deadline behaves
	// like Drop for that attempt, at once; a shorter one, or one against
	// a parent's deadline, sleeps for real.
	Delay
	// Duplicate delivers a stale copy of the previous response from the
	// same server instead of the fresh one — the late-datagram
	// misattribution a UDP resolver must discard by transaction ID. When
	// the server has not answered anything yet, the query itself is
	// reflected back (QR clear), which is equally rejectable.
	Duplicate
	// Truncate sets the TC bit and strips every record section, the
	// 512-byte-boundary behaviour of a server that cannot fit the
	// answer. Our EDNS-less NS probes always fit, so the client treats
	// truncation as damage, not as a TCP-fallback hint.
	Truncate
	// CorruptQID flips bits in the response's transaction ID.
	CorruptQID
	// MismatchQuestion rewrites the echoed question section so it no
	// longer matches the query.
	MismatchQuestion
	// Mangle applies seeded byte-level corruption to the wire image and
	// clears the QR bit so the damage is always detectable; silent
	// single-bit RDATA corruption is indefensible at the resolver and
	// deliberately out of scope.
	Mangle
	// FlipRCode rewrites the response code to SERVFAIL, the overloaded-
	// or-broken server that answers but refuses to be useful.
	FlipRCode
	// Flap makes the server unresponsive for a window of its own
	// exchange sequence — healthy, then dead mid-scan, then healthy
	// again — dropping as Drop does. The window indexes the per-server
	// counter, not the per-key one.
	Flap

	numClasses
)

// String names the class for stats output and test failure messages.
func (c Class) String() string {
	switch c {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "dup"
	case Truncate:
		return "truncate"
	case CorruptQID:
		return "qid"
	case MismatchQuestion:
		return "question"
	case Mangle:
		return "mangle"
	case FlipRCode:
		return "rcode"
	case Flap:
		return "flap"
	}
	return fmt.Sprintf("chaos.Class(%d)", int(c))
}

// Rule schedules one fault class.
//
// Windowing: a rule fires only while the fault index lies in
// [First, First+Count); Count == 0 leaves the window open-ended. The
// index is the per-(server, qname, qtype) exchange sequence for every
// class except Flap, which uses the per-server sequence (an outage is a
// property of the server, not of one question).
//
// Probability: within the window, Prob in (0, 1) gates the rule on a
// deterministic draw. For open-ended (persistent) rules the draw hashes
// only the seed, rule, and query content, so the decision is a constant
// per key — scans stay invariant across concurrency configs. Windowed
// rules include the index, so each exchange in the window draws afresh.
// Prob == 0 is treated as 1 (always fire inside the window).
type Rule struct {
	Class Class
	// Servers restricts the rule to these addresses; empty means every
	// server.
	Servers []netip.Addr
	// Prob gates firing inside the window; see the type comment.
	Prob float64
	// First and Count bound the firing window; see the type comment.
	First, Count int
	// Delay is the added latency for Class Delay.
	Delay time.Duration
}

// DefaultDelaySpike is the latency injected by Delay rules that leave
// Rule.Delay zero — large enough to blow the simulated-world client
// timeout (25ms), small against the real-world one (2s).
const DefaultDelaySpike = 100 * time.Millisecond

// Transient builds a rule that fires on the first count exchanges of
// each (server, qname, qtype) key and then stops — the fault a retry or
// the scanner's second round can outlast.
func Transient(class Class, count int) Rule {
	return Rule{Class: class, Count: count}
}

// Persistent builds an open-ended rule firing with probability prob,
// decided per query content (see Rule).
func Persistent(class Class, prob float64) Rule {
	return Rule{Class: class, Prob: prob}
}

// FlapOutage builds a Flap rule: each matched server drops its exchanges
// numbered [first, first+count).
func FlapOutage(first, count int) Rule {
	return Rule{Class: Flap, First: first, Count: count}
}

// DelaySpike builds an open-ended Delay rule with probability prob.
func DelaySpike(d time.Duration, prob float64) Rule {
	return Rule{Class: Delay, Prob: prob, Delay: d}
}

// Inner is the wrapped transport. It is structurally identical to
// resolver.Transport; chaos declares its own copy so the dependency
// points at dnswire only and test packages anywhere in the tree can
// import chaos without cycles.
type Inner interface {
	Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error)
}

// exKey identifies one query flow for sequence counting.
type exKey struct {
	server netip.Addr
	name   dnsname.Name
	qtype  dnswire.Type
}

// Transport injects scheduled faults into exchanges against an inner
// transport. It is safe for concurrent use.
type Transport struct {
	inner Inner
	seed  uint64
	rules []Rule

	mu     sync.Mutex
	keySeq map[exKey]int
	srvSeq map[netip.Addr]int
	last   map[netip.Addr][]byte

	// needLast is set at Wrap when some rule can replay a stale response
	// (Duplicate); without one there is no reason to copy every response
	// into the per-server replay buffer.
	needLast bool

	// releaser is the inner transport's buffer-release hook, cached at
	// Wrap (see ReleaseResponse).
	releaser interface{ ReleaseResponse([]byte) }

	// Counters live on an obs.Registry — a private one by default, or
	// the shared pipeline registry when AttachRegistry runs first —
	// so chaos injection shows up next to resolver and scanner metrics
	// in one snapshot instead of in a parallel counter system.
	metricsOnce sync.Once
	exchanges   *obs.Counter
	injected    [numClasses]*obs.Counter
}

// Wrap layers the fault schedule over inner. Rules are consulted in
// order and the first one that fires wins the exchange.
func Wrap(inner Inner, seed int64, rules ...Rule) *Transport {
	t := &Transport{
		inner:  inner,
		seed:   uint64(seed),
		rules:  append([]Rule(nil), rules...),
		keySeq: make(map[exKey]int),
		srvSeq: make(map[netip.Addr]int),
		last:   make(map[netip.Addr][]byte),
	}
	for _, r := range t.rules {
		if r.Class == Duplicate {
			t.needLast = true
		}
	}
	t.releaser, _ = inner.(interface{ ReleaseResponse([]byte) })
	return t
}

// ReleaseResponse forwards a pooled response buffer to the inner
// transport that produced it (resolver.ResponseReleaser, duck-typed to
// keep chaos free of a resolver import). Injections mutate pooled
// buffers in place and pass them through, so releasing through the
// chaos layer is releasing the inner transport's buffer. The copies
// chaos itself hands out — a replay, a reflected query, a truncated or
// re-questioned re-encoding — are held by nothing but the caller, and
// the packet pool takes back only a buffer of its own capacity, leaving
// any other to the GC.
func (t *Transport) ReleaseResponse(buf []byte) {
	if t.releaser != nil {
		t.releaser.ReleaseResponse(buf)
	}
}

// AttachRegistry binds the transport's counters onto r
// (chaos_exchanges_total and the chaos_injected_total{class} family).
// Call it before the first Exchange. The first registry attached wins:
// a later call, or one after first use bound a private registry, is a
// no-op, and a nil r changes nothing.
func (t *Transport) AttachRegistry(r *obs.Registry) {
	if r != nil {
		t.metricsOnce.Do(func() { t.bind(r) })
	}
}

func (t *Transport) metrics() {
	t.metricsOnce.Do(func() { t.bind(obs.NewRegistry()) })
}

func (t *Transport) bind(r *obs.Registry) {
	t.exchanges = r.Counter("chaos_exchanges_total")
	vec := r.CounterVecKeyed("chaos_injected_total", "class")
	for c := Class(0); c < numClasses; c++ {
		t.injected[c] = vec.With(c.String())
	}
}

// Stats is a snapshot of injection counters.
type Stats struct {
	// Exchanges counts every Exchange call seen by the transport.
	Exchanges uint64
	// Injected counts fired faults per class.
	Injected map[Class]uint64
}

// Total sums the injected faults across classes.
func (s Stats) Total() uint64 {
	var n uint64
	for _, v := range s.Injected {
		n += v
	}
	return n
}

// String renders the snapshot compactly, classes in taxonomy order.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exchanges=%d injected=%d", s.Exchanges, s.Total())
	classes := make([]Class, 0, len(s.Injected))
	for c := range s.Injected {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		fmt.Fprintf(&b, " %s=%d", c, s.Injected[c])
	}
	return b.String()
}

// Stats returns the current counters (only classes that fired appear in
// the map).
func (t *Transport) Stats() Stats {
	t.metrics()
	s := Stats{Exchanges: t.exchanges.Load(), Injected: make(map[Class]uint64)}
	for c := Class(0); c < numClasses; c++ {
		if n := t.injected[c].Load(); n > 0 {
			s.Injected[c] = n
		}
	}
	return s
}

// Exchange implements the resolver transport, injecting at most one
// scheduled fault per call.
func (t *Transport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.metrics()
	t.exchanges.Inc()
	q, ok := dnswire.PeekQuestion(query)
	if !ok {
		// Not a query we can key a schedule on (undecodable or empty
		// question section); deliver untouched.
		return t.inner.Exchange(ctx, server, query)
	}
	k := exKey{server: server, name: q.Name, qtype: q.Type}
	t.mu.Lock()
	seq := t.keySeq[k]
	t.keySeq[k]++
	ssq := t.srvSeq[server]
	t.srvSeq[server]++
	t.mu.Unlock()

	rule := t.pick(server, k, seq, ssq)
	if rule != nil {
		switch rule.Class {
		case Drop, Flap:
			t.injected[rule.Class].Inc()
			annotateInjection(ctx, rule.Class)
			// Like a blackhole: the answer never comes.
			deadline.Expire(ctx)
			<-ctx.Done()
			return nil, fmt.Errorf("%w: %s: %v", ErrInjected, rule.Class, ctx.Err())
		case Delay:
			t.injected[Delay].Inc()
			annotateInjection(ctx, Delay)
			d := rule.Delay
			if d <= 0 {
				d = DefaultDelaySpike
			}
			// An answer due no earlier than the deadline is an answer
			// that never comes.
			if at, ok := ctx.Deadline(); ok && d >= time.Until(at) && deadline.Expire(ctx) {
				return nil, fmt.Errorf("%w: delay: %v", ErrInjected, ctx.Err())
			}
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, fmt.Errorf("%w: delay: %v", ErrInjected, ctx.Err())
			case <-timer.C:
			}
			rule = nil // delivered clean, just late
		}
	}

	resp, err := t.inner.Exchange(ctx, server, query)
	if err != nil {
		return nil, err
	}
	// The inner transport hands over ownership of the response buffer
	// until it is released (both in-tree transports lend a pooled
	// packet buffer per exchange), so the byte-patching injections below
	// mutate it in place and pass it on for the caller to release; only
	// the replay buffer needs a private copy, and only when a Duplicate
	// rule can ever read it back. An injection that answers with a
	// fresh slice instead releases the lent buffer itself: nothing
	// holds it any more, and the caller releases only the slice it is
	// given.
	var stale []byte
	if t.needLast {
		t.mu.Lock()
		stale = t.last[server]
		t.last[server] = append([]byte(nil), resp...)
		t.mu.Unlock()
	}
	if rule == nil {
		return resp, nil
	}

	t.injected[rule.Class].Inc()
	annotateInjection(ctx, rule.Class)
	switch rule.Class {
	case Duplicate:
		t.ReleaseResponse(resp)
		if stale == nil {
			// Nothing from this server to replay yet: reflect the query
			// (QR clear), the garbage datagram every socket eventually
			// receives. The query buffer belongs to the caller (it may
			// borrow a codec arena), so the reflection is a copy.
			return append([]byte(nil), query...), nil
		}
		return stale, nil
	case Truncate:
		out := TruncateWire(resp)
		t.ReleaseResponse(resp)
		return out, nil
	case CorruptQID:
		return CorruptQIDWireInPlace(resp), nil
	case MismatchQuestion:
		out := MismatchQuestionWire(resp)
		t.ReleaseResponse(resp)
		return out, nil
	case Mangle:
		// The corruption pattern follows the same indexing as the firing
		// draw: open-ended rules derive it from content alone so two
		// exchanges of the same query are mangled identically no matter
		// how scheduling interleaved them with other traffic.
		mangleIdx := seq
		if rule.Count == 0 {
			mangleIdx = -1
		}
		return MangleWireInPlace(t.draw(0x6d616e67, server, k, mangleIdx), resp), nil
	case FlipRCode:
		return FlipRCodeWireInPlace(resp, dnswire.RCodeServFail), nil
	}
	return resp, nil
}

// annotateInjection marks a fired fault on the exchange span the
// resolver client scoped into ctx, so a trace shows which wire
// exchange suffered which injection. A no-op on untraced exchanges.
func annotateInjection(ctx context.Context, class Class) {
	rec, span := trace.From(ctx)
	if rec == nil {
		return
	}
	rec.Event(span, trace.KindChaos, class.String())
}

// pick returns the first rule that fires for this exchange, or nil.
func (t *Transport) pick(server netip.Addr, k exKey, seq, srvSeq int) *Rule {
	for i := range t.rules {
		r := &t.rules[i]
		if len(r.Servers) > 0 && !slices.Contains(r.Servers, server) {
			continue
		}
		idx := seq
		if r.Class == Flap {
			idx = srvSeq
		}
		if idx < r.First {
			continue
		}
		if r.Count > 0 && idx >= r.First+r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 {
			// Open-ended rules draw without the index so the decision is
			// a constant of the query content; windowed rules redraw per
			// exchange.
			drawIdx := -1
			if r.Count > 0 {
				drawIdx = idx
			}
			h := t.draw(uint64(i), server, k, drawIdx)
			if float64(h>>11)/(1<<53) >= r.Prob {
				continue
			}
		}
		return r
	}
	return nil
}

// draw hashes the seed, a salt, and the query content (plus idx when
// idx >= 0) into a deterministic 64-bit value.
func (t *Transport) draw(salt uint64, server netip.Addr, k exKey, idx int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mix64 := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			mix(byte(v >> s))
		}
	}
	mix64(t.seed)
	mix64(salt)
	a16 := server.As16()
	for _, b := range a16 {
		mix(b)
	}
	for i := 0; i < len(k.name); i++ {
		mix(k.name[i])
	}
	mix(byte(k.qtype))
	mix(byte(k.qtype >> 8))
	if idx >= 0 {
		mix64(uint64(idx))
	}
	// A final avalanche (splitmix64 tail) so low bits are usable.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
