// Package resolver implements the DNS query client used by the
// measurement pipeline: single-server queries with retries and timeouts,
// and full iterative resolution from root hints (referral chasing, glue
// handling, out-of-bailiwick nameserver resolution with caching).
package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"govdns/internal/deadline"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/obs"
	"govdns/internal/trace"
)

// Transport carries wire-format DNS messages to a server address. It is
// implemented by simnet.Network (in-memory, and the reference the
// real-socket path's scan digests are checked against) and
// udpx.BatchTransport (the shared-socket batched path, IPv4-only, that
// is the one UDP client), and wrapped by chaos and the rate limiter.
// The returned response
// buffer is owned by the caller unless the transport also implements
// ResponseReleaser, in which case the caller returns it once decoded.
type Transport interface {
	Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error)
}

// ResponseReleaser is optionally implemented by transports that pool
// their response buffers (simnet.Network, udpx.BatchTransport).
// The client calls ReleaseResponse exactly once per successful Exchange,
// right after decoding the wire image — Arena.Decode copies every byte
// the decoded message retains, so the buffer is dead the moment decode
// returns. Wrapping transports (chaos, rate limiting) forward the call
// to the transport that produced the buffer.
type ResponseReleaser interface {
	ReleaseResponse(buf []byte)
}

// Client errors.
var (
	// ErrTimeout indicates no response was received after all retries.
	// A server that times out for a zone is the defining signal of a
	// defective (lame) delegation.
	ErrTimeout = errors.New("resolver: query timed out")
	// ErrMismatch indicates a response whose ID or question does not
	// match the query.
	ErrMismatch = errors.New("resolver: response mismatch")
	// ErrTruncated indicates a response with the TC bit set. The study's
	// NS lookups fit in 512 bytes, so truncation signals something wrong
	// rather than a need for TCP fallback.
	ErrTruncated = errors.New("resolver: response truncated")
)

// Defaults for Client fields left zero.
const (
	DefaultTimeout = 500 * time.Millisecond
	DefaultRetries = 2
	// DefaultMaxDiscards bounds how many rejected datagrams one attempt
	// will discard before failing with ErrMismatch. A UDP client that
	// stopped listening after the first stray packet would be trivially
	// jammed by any duplicate on the path.
	DefaultMaxDiscards = 4
)

// Client sends DNS queries to explicit server addresses.
type Client struct {
	// Transport carries the messages. Required.
	Transport Transport
	// Timeout bounds each individual attempt. Defaults to
	// DefaultTimeout.
	Timeout time.Duration
	// Retries is the number of additional attempts after the first
	// fails transiently (timeout, rejected responses, truncation).
	// Defaults to DefaultRetries. Other errors are returned immediately.
	Retries int

	// WirePool supplies the codec arenas queries encode and decode on.
	// Defaults to dnswire.DefaultPool; set an explicit pool to isolate
	// the client's arena traffic or to run with recycling disabled
	// (dnswire.Pool.NoRecycle) in invariance tests.
	WirePool *dnswire.Pool

	nextID atomic.Uint32

	// releaser caches the Transport's ResponseReleaser assertion so the
	// hot path pays a nil check, not an interface assertion, per
	// exchange.
	releaserOnce sync.Once
	releaser     ResponseReleaser

	// Load accounting (§ III-D: the paper tracked and limited the load
	// its measurements placed on operators) lives on an obs registry —
	// a private one unless AttachRegistry attached a shared one first.
	metricsOnce sync.Once
	m           *metrics

	// servers is the one record per server address: outcome counts, the
	// walk's health ranking, and the recently accepted transaction IDs.
	servers serverTable
}

// Stats is a snapshot of resolver counters. Client.Stats fills the
// query-load fields; Iterator.Stats additionally fills the cache and
// coalescing fields. All counters are maintained atomically.
type Stats struct {
	// Sent counts query attempts put on the wire (retries included).
	Sent uint64
	// Received counts validated responses.
	Received uint64
	// Timeouts counts attempts that got no answer.
	Timeouts uint64
	// Mismatches counts responses rejected by validation (the sum of
	// the per-class counters below).
	Mismatches uint64
	// Duplicates counts rejected responses whose transaction ID matched
	// a recently accepted answer from the same server — late or
	// replayed datagrams.
	Duplicates uint64
	// Truncations counts responses rejected for carrying the TC bit.
	Truncations uint64
	// QIDMismatches counts responses rejected for an unknown
	// transaction ID.
	QIDMismatches uint64
	// QuestionMismatches counts responses whose echoed question did not
	// match the query.
	QuestionMismatches uint64
	// Malformed counts responses that failed to decode or arrived with
	// the QR bit clear.
	Malformed uint64

	// HostCacheHits counts host resolutions served from cache;
	// HostCacheMisses counts full lookups actually performed.
	HostCacheHits, HostCacheMisses uint64
	// ZoneCacheHits counts referrals naming an already cached zone;
	// ZoneCacheMisses counts zone builds actually performed. The cached
	// closest enclosing zone each walk starts from counts as neither, so
	// the hit share reads low on a warm scan whose walks all start from
	// cache (TestZoneCacheCountersSkipWalkStart).
	ZoneCacheHits, ZoneCacheMisses uint64
	// NegativeHits counts host or zone requests answered from a cached
	// failure.
	NegativeHits uint64
	// CoalescedWaits counts resolutions that joined another caller's
	// in-flight work and received its result instead of duplicating it.
	// Abandoned or bypassed waits are not counted.
	CoalescedWaits uint64
	// FlightBypasses counts in-flight waits abandoned at the
	// deadlock-avoidance bound, where the waiter fell back to doing the
	// work itself (see Iterator.flightWait). Nonzero values are expected
	// only on pathological shapes like a zone whose in-bailiwick NS host
	// has no glue.
	FlightBypasses uint64
	// GroupsAskedTogether counts the times a walk, having seen a zone's
	// servers fail, asked the rest of them at once; AskedTogether counts
	// the servers those groups asked. AskedTogether exceeds
	// GroupsAskedTogether exactly when some group asked two or more.
	GroupsAskedTogether, AskedTogether uint64
}

// Stats returns the current counter snapshot.
func (c *Client) Stats() Stats {
	m := c.metrics()
	return Stats{
		Sent:               m.sent.Load(),
		Received:           m.received.Load(),
		Timeouts:           m.timeouts.Load(),
		Mismatches:         m.mismatches.Load(),
		Duplicates:         m.duplicates.Load(),
		Truncations:        m.truncations.Load(),
		QIDMismatches:      m.qidMismatches.Load(),
		QuestionMismatches: m.questionMismatches.Load(),
		Malformed:          m.malformed.Load(),
	}
}

// AttachRegistry puts the client's resolver_* instruments on r: the
// query-load counters and the cache and coalescing counters of every
// iterator over the client. Call it before the client's first query or
// Stats call. The first registry attached wins: a later call, or one
// after first use bound a private registry, is a no-op, and a nil r
// changes nothing.
func (c *Client) AttachRegistry(r *obs.Registry) {
	if r == nil {
		return
	}
	c.metricsOnce.Do(func() { c.m = newMetrics(r) })
}

// metrics returns the client's instruments, creating them on a private
// registry when none were attached.
func (c *Client) metrics() *metrics {
	c.metricsOnce.Do(func() { c.m = newMetrics(obs.NewRegistry()) })
	return c.m
}

// NewClient returns a client over t with default timeout and retries.
func NewClient(t Transport) *Client {
	return &Client{Transport: t}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// ArenaPool returns the pool the client's queries take their codec
// arenas from: WirePool, or dnswire.DefaultPool when that is unset.
func (c *Client) ArenaPool() *dnswire.Pool {
	if c.WirePool != nil {
		return c.WirePool
	}
	return dnswire.DefaultPool
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	if c.Retries < 0 {
		return 0
	}
	return DefaultRetries
}

// Faults counts rejected responses by class — the one fault record a
// query's Trace carries and a scanned domain aggregates over its
// probes. The classes mirror the like-named Stats fields, and the JSON
// keys are the scan output's.
type Faults struct {
	Duplicates         uint64 `json:"duplicates,omitempty"`
	Truncations        uint64 `json:"truncations,omitempty"`
	QIDMismatches      uint64 `json:"qid_mismatches,omitempty"`
	QuestionMismatches uint64 `json:"question_mismatches,omitempty"`
	Malformed          uint64 `json:"malformed,omitempty"`
}

// Add folds o's counts into f.
func (f *Faults) Add(o Faults) {
	f.Duplicates += o.Duplicates
	f.Truncations += o.Truncations
	f.QIDMismatches += o.QIDMismatches
	f.QuestionMismatches += o.QuestionMismatches
	f.Malformed += o.Malformed
}

// Each calls fn with every class's JSON key and count, in field order.
func (f Faults) Each(fn func(key string, n uint64)) {
	fn("duplicates", f.Duplicates)
	fn("truncations", f.Truncations)
	fn("qid_mismatches", f.QIDMismatches)
	fn("question_mismatches", f.QuestionMismatches)
	fn("malformed", f.Malformed)
}

// Total sums the counts.
func (f Faults) Total() uint64 {
	return f.Duplicates + f.Truncations + f.QIDMismatches + f.QuestionMismatches + f.Malformed
}

// Trace is the per-query fault breakdown filled by QueryArenaTraced: how
// many attempts the query took and how many responses each rejection
// class discarded along the way. The measurement layer aggregates traces
// into per-domain fault counters.
type Trace struct {
	// Attempts counts query attempts made (1 for a clean first answer).
	Attempts int
	Faults
}

// QueryArena sends (name, qtype) to the server and returns the decoded,
// validated response. Transient failures — timeouts, rejected or
// truncated responses — are retried up to c.Retries times; the returned
// error wraps ErrTimeout when every attempt timed out, or the last
// rejection otherwise. The exchange runs on the caller-supplied codec
// arena a, and the response borrows it: it is valid until the next
// decode on a or a.Finish, whichever comes first, and anything retained
// past that must be copied out (names through dnsname.Name.Own). The
// iterator's referral walk runs on this path — one arena per delegation
// step. A warm attempt costs the client no heap object: its deadline is
// recycled, and a transport's lent response buffer goes back to it once
// decoded (TestQueryArenaAllocsPerAttempt). Neither simnet nor udpx
// allocates on a warm answered exchange either.
func (c *Client) QueryArena(ctx context.Context, a *dnswire.Arena, server netip.Addr, name dnsname.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	resp, _, err := c.QueryArenaTraced(ctx, a, server, name, qtype)
	return resp, err
}

// QueryArenaTraced is QueryArena plus the per-query fault trace, and the
// single implementation behind every query entry point. The trace is
// meaningful even when err is non-nil: it records what the wire did to
// this query. The response borrows a (see QueryArena).
func (c *Client) QueryArenaTraced(ctx context.Context, a *dnswire.Arena, server netip.Addr, name dnsname.Name, qtype dnswire.Type) (resp *dnswire.Message, tr Trace, err error) {
	var label string
	if rec, _ := trace.From(ctx); rec != nil {
		label = fmt.Sprintf("%s %s @%s", name, qtype, server)
	}
	ctx, qst := trace.Begin(ctx, trace.KindQuery, label, nil)
	defer func() {
		qst.Annotate(trace.Int("attempts", int64(tr.Attempts)))
		qst.End(err)
	}()
	attempts := 1 + c.retries()
	var lastErr error
	for i := 0; i < attempts; i++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, tr, cerr
		}
		tr.Attempts++
		var aname string
		if qst.Traced() {
			aname = "attempt " + strconv.Itoa(i+1)
		}
		actx, ast := qst.Begin(ctx, trace.KindAttempt, aname, nil)
		rejectsBefore := tr.Total()
		resp, aerr := c.attempt(actx, ast, a, server, name, qtype, &tr)
		if d := tr.Total() - rejectsBefore; d > 0 {
			ast.Annotate(trace.Int("discarded", int64(d)))
		}
		ast.End(aerr)
		if aerr == nil {
			return resp, tr, nil
		}
		lastErr = aerr
		// Timeouts, mismatch budgets, and truncation are all transient
		// from the query's point of view: a fresh attempt draws a fresh
		// transaction ID and may land between the damage. Anything else
		// (an encode failure, a non-deadline transport error) is
		// deterministic and returned immediately.
		if !errors.Is(aerr, context.DeadlineExceeded) && !errors.Is(aerr, ErrTimeout) &&
			!errors.Is(aerr, ErrMismatch) && !errors.Is(aerr, ErrTruncated) {
			return nil, tr, aerr
		}
	}
	if errors.Is(lastErr, context.DeadlineExceeded) || errors.Is(lastErr, ErrTimeout) {
		return nil, tr, fmt.Errorf("%w: %s %s @%s after %d attempts: %v",
			ErrTimeout, name, qtype, server, attempts, lastErr)
	}
	return nil, tr, fmt.Errorf("resolver: %s %s @%s after %d attempts: %w",
		name, qtype, server, attempts, lastErr)
}

// attempt sends one query and listens until it gets a validated answer,
// exhausts its discard budget, or hits the attempt deadline. Responses
// that fail validation are counted by class and discarded — the socket
// stays open for the real answer, as a UDP resolver's must.
//
// Query, wire, and every decoded response ride the caller's arena. The
// encoded query stays valid across response decodes because Arena.Decode
// leaves the encoder output and query slot untouched. ctx is scoped to
// the attempt's stage ast, which each datagram's exchange stage nests in.
func (c *Client) attempt(ctx context.Context, ast trace.Stage, a *dnswire.Arena, server netip.Addr, name dnsname.Name, qtype dnswire.Type, tr *Trace) (*dnswire.Message, error) {
	id := uint16(c.nextID.Add(1))
	query := a.NewQuery(id, name, qtype)
	wire, err := a.Encode(query)
	if err != nil {
		return nil, fmt.Errorf("resolver: encoding query: %w", err)
	}

	m := c.metrics()
	srv := c.servers.record(server)
	attemptCtx := deadline.New(ctx, c.timeout())
	defer attemptCtx.Release()
	for discards := 0; ; discards++ {
		m.sent.Inc()
		// One exchange stage per datagram on the wire, from send to the
		// reply's verdict; the chaos transport records its injections
		// under it via the exchange-scoped context.
		var xname string
		if ast.Traced() {
			xname = server.String()
		}
		exCtx, xst := ast.Begin(attemptCtx, trace.KindExchange, xname, m.rtt)
		c.releaserOnce.Do(func() { c.releaser, _ = c.Transport.(ResponseReleaser) })
		respWire, err := c.Transport.Exchange(exCtx, server, wire)
		var resp *dnswire.Message
		reject := err
		if err == nil {
			resp, reject = c.classify(a, query, srv, respWire, tr)
			// The decode inside classify copied everything it kept (names
			// onto the arena, addresses into values), so a pooled response
			// buffer goes home immediately — win or reject.
			if c.releaser != nil {
				c.releaser.ReleaseResponse(respWire)
			}
		}
		var rtt time.Duration
		if err != nil && attemptCtx.Expired() {
			// A simulated transport ended the attempt at once; it
			// lasted its whole deadline all the same.
			rtt = xst.EndAfter(reject, c.timeout())
		} else {
			rtt = xst.End(reject)
		}
		xst.Annotate(trace.Dur("rtt", rtt))
		if err != nil {
			// A dead caller context (a cancelled scan) says nothing about
			// the server; only an exchange that failed under a live one
			// is the server's timeout.
			if ctx.Err() != nil {
				return nil, err
			}
			m.timeouts.Inc()
			srv.timeouts.Add(1)
			if attemptCtx.Err() != nil {
				return nil, fmt.Errorf("%w: attempt deadline: %v", context.DeadlineExceeded, err)
			}
			return nil, err
		}
		if reject == nil {
			m.received.Inc()
			srv.ok.Add(1)
			srv.remember(id)
			return resp, nil
		}
		m.mismatches.Inc()
		srv.rejects.Add(1)
		// Truncation is a validated answer from the right server about
		// the right question; listening longer cannot improve on it.
		// Everything else is a stray datagram worth waiting past.
		if errors.Is(reject, ErrTruncated) || discards >= DefaultMaxDiscards {
			return nil, reject
		}
	}
}

// classify validates one wire image against the query, returning the
// decoded message for an acceptable answer or a classified rejection
// error. Counters (both aggregate and per-class, plus the trace) are
// bumped for rejects.
func (c *Client) classify(a *dnswire.Arena, query *dnswire.Message, srv *serverRecord, respWire []byte, tr *Trace) (*dnswire.Message, error) {
	m := c.metrics()
	resp, err := a.Decode(respWire)
	if err != nil {
		m.malformed.Inc()
		tr.Malformed++
		return nil, fmt.Errorf("%w: decoding response: %v", ErrMismatch, err)
	}
	if !resp.Header.Response {
		m.malformed.Inc()
		tr.Malformed++
		return nil, fmt.Errorf("%w: QR bit clear", ErrMismatch)
	}
	// Rejection messages deliberately omit the transaction IDs: they
	// come from a process-wide counter, so embedding them would make
	// recorded error strings — and with them the scan digest — depend
	// on scheduling.
	if resp.Header.ID != query.Header.ID {
		if srv.recentlyAccepted(resp.Header.ID) {
			m.duplicates.Inc()
			tr.Duplicates++
			return nil, fmt.Errorf("%w: duplicate of an answered query", ErrMismatch)
		}
		m.qidMismatches.Inc()
		tr.QIDMismatches++
		return nil, fmt.Errorf("%w: unknown transaction id", ErrMismatch)
	}
	if len(resp.Questions) > 0 {
		got, want := resp.Questions[0], query.Questions[0]
		if got.Name != want.Name || got.Type != want.Type || got.Class != want.Class {
			m.questionMismatches.Inc()
			tr.QuestionMismatches++
			return nil, fmt.Errorf("%w: question %v != %v", ErrMismatch, got, want)
		}
	}
	if resp.Header.Truncated {
		m.truncations.Inc()
		tr.Truncations++
		return nil, fmt.Errorf("%w: %s %s @%s", ErrTruncated,
			query.Questions[0].Name, query.Questions[0].Type, srv.addr)
	}
	return resp, nil
}
