package measure

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/fanout"
	"govdns/internal/obs"
	"govdns/internal/resolver"
	"govdns/internal/trace"
)

// Scanner drives the bulk measurement.
type Scanner struct {
	// Iterator performs delegation walks and host resolution, with
	// shared caching across the whole scan.
	Iterator *resolver.Iterator
	// Concurrency bounds the number of in-flight domains. Defaults to
	// DefaultConcurrency.
	Concurrency int
	// PerDomainParallelism bounds the fan-out *within* one domain: how
	// many NS-host resolutions and per-address NS probes run at once.
	// On a real network most of a defective domain's scan time is spent
	// waiting out query timeouts on dead servers; overlapping those
	// waits is where the wall-clock win comes from (over simnet a dead
	// server's timeout costs no wall time). Units start on the domain's own
	// goroutine and fan out only once the domain has outlived
	// fanout.InlineBudget, so a healthy domain starts no goroutine.
	// 0 means DefaultPerDomainParallelism; 1 restores fully serial
	// per-domain behaviour.
	PerDomainParallelism int
	// SecondRound enables the paper's retry: when a delegation exists
	// but no delegated server responded — or the walk itself failed for
	// a transient cause — the domain is probed again to rule out
	// transient failures (§ III-B).
	SecondRound bool
	// Metrics, when non-nil, records per-stage latency histograms and
	// progress counters. It never influences scan behaviour: a
	// metrics-on scan produces bit-identical results (and digests) to a
	// metrics-off one.
	Metrics *ScanMetrics
	// Trace, when non-nil, records each domain's measurement as a span
	// tree and offers it to the flight recorder, which retains the
	// slowest domains, every Error/Transient domain, and any domain
	// whose classification changed between rounds. Like Metrics it is
	// purely passive: a traced scan's digest is bit-identical to an
	// untraced one.
	Trace *trace.FlightRecorder
	// TracePin, when non-nil alongside Trace, is consulted once per
	// scanned domain with its finished result; returning true pins the
	// domain's trace into the flight recorder's pinned ring whatever the
	// built-in retention criteria say. The monitoring daemon sets it to
	// its alert predicate so every alerted domain keeps a complete span
	// tree. It runs on worker goroutines: it must be safe for concurrent
	// use and must not mutate the result.
	TracePin func(*DomainResult) bool
}

// DefaultConcurrency is the scanner's default worker count. Scans are
// wait-dominated (timeouts on defective domains), so workers are cheap;
// the bound used to be 64 because without resolution coalescing more
// workers meant proportionally more stampede duplication, which the
// iterator's singleflight layer has since eliminated.
const DefaultConcurrency = 128

// DefaultPerDomainParallelism is the default intra-domain fan-out width.
const DefaultPerDomainParallelism = 8

func (s *Scanner) parallelism() int {
	if s.PerDomainParallelism > 0 {
		return s.PerDomainParallelism
	}
	return DefaultPerDomainParallelism
}

// NewScanner builds a scanner with the paper's configuration.
func NewScanner(it *resolver.Iterator) *Scanner {
	return &Scanner{Iterator: it, SecondRound: true}
}

// ScanDomain measures a single domain (one Fig. 1 pipeline run,
// including the second round when enabled).
func (s *Scanner) ScanDomain(ctx context.Context, domain dnsname.Name) *DomainResult {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return s.scanDomain(ctx, domain, sc)
}

// scanDomain is ScanDomain in sc: every round is measured in the
// scratch, and the final one is copied out into a result of its own.
func (s *Scanner) scanDomain(ctx context.Context, domain dnsname.Name, sc *scratch) *DomainResult {
	rec := s.Trace.NewRecorder(domain)
	ctx, st := rec.Begin(ctx, trace.KindDomain, string(domain), s.Metrics.stage(trace.KindDomain))
	r := &sc.r
	s.scanRound(ctx, st, domain, 1, sc)
	classChanged := false
	if s.SecondRound && (r.FullyDefective() || r.ErrTransient) {
		var firstClass Classification
		if rec != nil {
			firstClass = r.Classify()
		}
		// The retry replaces the result but keeps the full fault
		// history: what the wire did in round one is part of the
		// domain's measurement record even when round two recovers.
		faults := r.Faults
		s.scanRound(ctx, st, domain, 2, sc)
		r.Rounds = 2
		r.Faults.Add(faults)
		if rec != nil {
			classChanged = r.Classify() != firstClass
		}
	}
	out := r.copyOut()
	st.End(nil)
	s.Metrics.recordDomain(out)
	if rec != nil {
		class := out.Classify().String()
		st.Annotate(trace.Str("class", class))
		pin := s.TracePin != nil && s.TracePin(out)
		s.Trace.OfferPin(rec.Finish(class, out.Rounds, out.Err, out.ErrTransient, classChanged), pin)
	}
	return out
}

// roundNames are the round spans' names, by round number.
var roundNames = [...]string{1: "round 1", 2: "round 2"}

// scanRound wraps one scanOnce pass in a round stage nested in the
// domain's stage dst, annotated with the classification that round
// produced on its own. The second round is metered; the first is timed
// by its domain.
func (s *Scanner) scanRound(ctx context.Context, dst trace.Stage, domain dnsname.Name, round int, sc *scratch) {
	var hist *obs.Histogram
	if round == 2 {
		hist = s.Metrics.stage(trace.KindRound)
	}
	ctx, st := dst.Begin(ctx, trace.KindRound, roundNames[round], hist)
	s.scanOnce(ctx, domain, sc)
	if st.Traced() {
		st.Annotate(trace.Str("class", sc.r.Classify().String()))
	}
	st.End(nil)
}

// scratch is where a domain's rounds are measured: the walk's
// Delegation, one unit per nameserver host, and the round's result,
// which lives in the scratch's own lists. All of it is reused from
// domain to domain; the result a caller gets is copyOut's copy, so
// nothing of a scratch outlives its domain. A scan worker keeps one
// scratch; ScanDomain called on its own takes one from scratchPool.
type scratch struct {
	r       DomainResult
	deleg   resolver.Delegation
	units   []hostUnit       // P's hosts in order, then the child-only hosts
	servers []ServerResponse // behind r.Servers
	hosts   []HostAddrs      // behind r.Addrs

	// The round's parameters, which the fan-out bodies read; set while
	// the round runs.
	s      *Scanner
	ctx    context.Context
	domain dnsname.Name
	// probe and fetch are the fan-out bodies, over P's units and over the
	// child-only ones; made once per scratch, so no round allocates a
	// closure.
	probe, fetch func(i int)
}

var scratchPool = sync.Pool{New: func() any { return newScratch() }}

func newScratch() *scratch {
	sc := new(scratch)
	sc.probe = func(i int) {
		u := &sc.units[i]
		sc.s.probeHost(sc.ctx, sc.domain, sc.r.ParentNS, sc.deleg.Glue(i), u)
	}
	sc.fetch = func(i int) {
		sc.s.fetchHost(sc.ctx, &sc.units[len(sc.r.ParentNS)+i], nil, trace.Bool("child_only", true))
	}
	return sc
}

// addUnit appends a unit for host, reusing the storage of whichever
// unit last held that position.
func (sc *scratch) addUnit(host dnsname.Name) {
	if len(sc.units) < cap(sc.units) {
		sc.units = sc.units[:len(sc.units)+1]
	} else {
		sc.units = append(sc.units, hostUnit{})
	}
	u := &sc.units[len(sc.units)-1]
	u.host, u.addrs, u.faults = host, nil, FaultCounts{}
	u.servers, u.ns = u.servers[:0], u.ns[:0]
}

// hostUnit is one nameserver host's part of a round: its addresses, one
// response per address, and those probes' fault counts. A child-only
// host is resolved but not probed.
type hostUnit struct {
	host    dnsname.Name
	addrs   []netip.Addr     // the glue, buf, or nil when unresolvable
	buf     []netip.Addr     // resolved addresses
	servers []ServerResponse // one per address
	ns      []dnsname.Name   // behind the servers' NS lists
	faults  FaultCounts
}

func (s *Scanner) scanOnce(ctx context.Context, domain dnsname.Name, sc *scratch) {
	sc.r = DomainResult{Domain: domain, Rounds: 1}
	r := &sc.r

	wctx, wst := trace.Begin(ctx, trace.KindParentWalk, string(domain), s.Metrics.stage(trace.KindParentWalk))
	err := s.Iterator.DelegationInto(wctx, domain, &sc.deleg)
	wst.End(err)
	switch {
	case err == nil:
		r.ParentResponded = true
		r.ParentZone = sc.deleg.Parent.Zone
		r.ParentNS = sc.deleg.Hosts
		r.ParentAuthoritative = sc.deleg.Authoritative
	case errors.Is(err, resolver.ErrNXDomain), errors.Is(err, resolver.ErrNoAnswer):
		// The parent answered: the domain is simply gone (empty
		// response).
		r.ParentResponded = true
		r.Err = err.Error()
		return
	default:
		if s.Metrics != nil {
			s.Metrics.walkFailures.Inc()
		}
		r.Err = err.Error()
		// A dead context makes every in-flight query "time out"; only a
		// live-context transient failure says anything about the wire.
		r.ErrTransient = ctx.Err() == nil && resolver.IsTransientErr(err)
		return
	}

	sc.s, sc.ctx, sc.domain = s, ctx, domain
	defer func() { sc.s, sc.ctx = nil, nil }()

	// Resolve and probe every delegated nameserver, one unit per host.
	// Units run on this goroutine until the batch has outlived
	// fanout.InlineBudget — a healthy domain's never does — and only then
	// fan out, so a host stuck waiting out timeouts overlaps its siblings'
	// probes instead of gating them. Units write by index, so the fan-out
	// changes nothing about result ordering.
	sc.units = sc.units[:0]
	for _, host := range r.ParentNS {
		sc.addUnit(host)
	}
	fanout.Each(len(sc.units), s.parallelism(), sc.probe)
	sc.servers = sc.servers[:0]
	for i := range sc.units {
		r.Faults.Add(sc.units[i].faults)
		sc.servers = append(sc.servers, sc.units[i].servers...)
	}
	r.Servers = sc.servers

	// The child may know servers the parent does not (C ⊃ P): resolve
	// and query those too, so the NS count and consistency see the full
	// picture.
	s.queryChildOnlyHosts(sc)

	sc.hosts = sc.hosts[:0]
	for i := range sc.units {
		sc.hosts = append(sc.hosts, HostAddrs{Host: sc.units[i].host, Addrs: sc.units[i].addrs})
	}
	if len(sc.units) > len(r.ParentNS) {
		slices.SortFunc(sc.hosts, func(a, b HostAddrs) int { return dnsname.Compare(a.Host, b.Host) })
	}
	r.Addrs = sc.hosts
}

// probeHost is one pipelined unit: resolve u's host's addresses, then
// probe each address for domain's NS records.
func (s *Scanner) probeHost(ctx context.Context, domain dnsname.Name, parentNS []dnsname.Name, glue []netip.Addr, u *hostUnit) {
	s.fetchHost(ctx, u, glue)
	cctx, cst := trace.Begin(ctx, trace.KindChildProbe, string(u.host), s.Metrics.stage(trace.KindChildProbe))
	client := s.Iterator.Client()
	// One arena for the unit's probes: each response is copied out
	// before the next probe's decode reuses it.
	a := client.ArenaPool().Get()
	defer a.Finish()
	for _, addr := range u.addrs {
		sr := ServerResponse{Host: u.host, Addr: addr}
		var name string
		if cst.Traced() {
			name = addr.String()
		}
		pctx, pst := cst.Begin(cctx, trace.KindProbe, name, nil)
		resp, qtr, err := client.QueryArenaTraced(pctx, a, addr, domain, dnswire.TypeNS)
		u.faults.Add(qtr.Faults)
		if pst.Traced() {
			pst.Annotate(faultAttrs(qtr)...)
		}
		pst.End(err)
		if err != nil {
			sr.Err = err.Error()
		} else {
			sr.OK = true
			sr.RCode = resp.Header.RCode
			sr.Authoritative = resp.Header.Authoritative
			start := len(u.ns)
			u.ns = appendAnswerNS(u.ns, resp.Answers, domain, parentNS)
			if end := len(u.ns); end > start {
				sr.NS = u.ns[start:end:end]
			}
		}
		u.servers = append(u.servers, sr)
	}
	cst.End(nil)
	if s.Metrics != nil {
		s.Metrics.probeQueries.Add(uint64(len(u.addrs)))
	}
}

// fetchHost sets u's addresses in an NS-fetch stage annotated with
// attrs: the referral's glue for u's host when it carried some
// (authoritative enough for the parent's own view), else full
// resolution, cached and coalesced across the scan, into u's buffer.
// An unresolvable host gets nil.
func (s *Scanner) fetchHost(ctx context.Context, u *hostUnit, glue []netip.Addr, attrs ...trace.Attr) {
	fctx, st := trace.Begin(ctx, trace.KindNSFetch, string(u.host), s.Metrics.stage(trace.KindNSFetch))
	u.addrs = glue
	var err error
	if glue != nil {
		st.Annotate(trace.Bool("glue", true))
	} else if u.buf, err = s.Iterator.AppendHostAddrs(fctx, u.buf[:0], u.host); err == nil && len(u.buf) > 0 {
		u.addrs = u.buf
	}
	st.Annotate(trace.Int("addrs", int64(len(u.addrs))))
	st.Annotate(attrs...)
	st.End(err)
}

// appendAnswerNS appends the domain's NS host names, sorted, out of an
// answer section that borrows the unit's arena, to dst. A name the
// parent also lists reuses the parent's owned copy — for a consistent
// delegation that is every name — so only names the child alone serves
// are copied.
func appendAnswerNS(dst []dnsname.Name, answers []dnswire.RR, domain dnsname.Name, parentNS []dnsname.Name) []dnsname.Name {
	start := len(dst)
	for _, rr := range answers {
		ns, ok := rr.Data.(dnswire.NSData)
		if !ok || rr.Name != domain {
			continue
		}
		if k := slices.Index(parentNS, ns.Host); k >= 0 {
			dst = append(dst, parentNS[k])
		} else {
			dst = append(dst, ns.Host.Own())
		}
	}
	slices.SortFunc(dst[start:], dnsname.Compare)
	return dst
}

// faultAttrs renders one probe's per-query fault trace as span
// attributes, keyed exactly like FaultCounts' JSON fields. The
// accounting contract (pinned by TestTraceFaultAccounting): summing
// these attributes over every probe span in a domain's trace
// reproduces the domain's FaultCounts, because FaultCounts aggregates
// precisely the child-probe query traces — across both rounds — and
// nothing else.
func faultAttrs(tr resolver.Trace) []trace.Attr {
	attrs := make([]trace.Attr, 0, 6)
	attrs = append(attrs, trace.Int("attempts", int64(tr.Attempts)))
	tr.Faults.Each(func(key string, n uint64) {
		if n > 0 {
			attrs = append(attrs, trace.Int(key, int64(n)))
		}
	})
	return attrs
}

// queryChildOnlyHosts resolves the nameservers that appear only in
// child answers, one unit each after P's, in dnsname.Compare order, and
// records their addresses (used by the diversity analysis).
func (s *Scanner) queryChildOnlyHosts(sc *scratch) {
	r := &sc.r
	nP := len(r.ParentNS)
	for i := range r.Servers {
		if !r.Servers[i].Answered() {
			continue
		}
	next:
		for _, host := range r.Servers[i].NS {
			if slices.Contains(r.ParentNS, host) {
				continue
			}
			for k := nP; k < len(sc.units); k++ {
				if sc.units[k].host == host {
					continue next
				}
			}
			sc.addUnit(host)
		}
	}
	child := sc.units[nP:]
	if len(child) == 0 {
		return
	}
	slices.SortFunc(child, func(a, b hostUnit) int { return dnsname.Compare(a.host, b.host) })
	fanout.Each(len(child), s.parallelism(), sc.fetch)
}

// scan is the scanner's one worker pool and feed loop; Scan and
// ScanStream are this loop with different sinks. It pulls domains from
// src on the calling goroutine, skips the first skip of them (a resumed
// stream's already-emitted prefix), measures the rest on up to
// Concurrency workers, and hands each result to sink with its source
// index. sink runs on the worker goroutines.
//
// One stop rule serves both callers: a result observed after the scan's
// context is done is dropped, not sunk, because a dead context poisons
// any still-running measurement; and a sink error cancels that context,
// so the feed stops and in-flight probes are abandoned instead of
// measuring domains whose results have nowhere to go. scan returns the
// first sink error, else ctx's error, else nil.
func (s *Scanner) scan(ctx context.Context, src DomainSource, skip int, sink func(idx int, r *DomainResult) error) error {
	workers := s.Concurrency
	if workers <= 0 {
		workers = DefaultConcurrency
	}
	scanCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		idx    int
		domain dnsname.Name
	}
	var (
		wg       sync.WaitGroup
		jobs     = make(chan job)
		failOnce sync.Once
		sinkErr  error
	)
	worker := func() {
		defer wg.Done()
		// Each worker probes under its own child of scanCtx: every
		// query's timeout context registers with its nearest
		// cancellable ancestor, and a single shared one would put all
		// Concurrency × Fanout goroutines on one mutex per query.
		wctx, wcancel := context.WithCancel(scanCtx)
		defer wcancel()
		sc := newScratch()
		for j := range jobs {
			r := s.scanDomain(wctx, j.domain, sc)
			if scanCtx.Err() != nil {
				continue
			}
			if err := sink(j.idx, r); err != nil {
				failOnce.Do(func() { sinkErr = err })
				cancel()
			}
		}
	}

	started := 0
feed:
	for idx := 0; ; idx++ {
		d, ok := src()
		if !ok {
			break
		}
		if idx < skip {
			s.Metrics.recordResumedSkip()
			continue
		}
		// Workers start with the first domains fed, so a short list
		// never spawns more goroutines than it has domains.
		if started < workers {
			started++
			wg.Add(1)
			go worker()
		}
		select {
		case jobs <- job{idx: idx, domain: d}:
		case <-scanCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if sinkErr != nil {
		return sinkErr
	}
	return ctx.Err()
}

// Scan measures every domain in the list concurrently and returns the
// results in input order. A slot whose domain was not measured to
// completion — the feed never reached it, or ctx died while it was in
// flight — holds a fresh result carrying the context's own error, so
// callers can tell a deadline from an explicit cancel and never see a
// half-measured domain.
func (s *Scanner) Scan(ctx context.Context, domains []dnsname.Name) []*DomainResult {
	s.Metrics.SetTotal(len(domains))
	results := make([]*DomainResult, len(domains))
	err := s.scan(ctx, SliceSource(domains), 0, func(idx int, r *DomainResult) error {
		results[idx] = r
		return nil
	})
	if err != nil {
		cancelMsg := fmt.Errorf("scan cancelled: %w", err).Error()
		for i, r := range results {
			if r == nil {
				results[i] = newResult(domains[i])
				results[i].Err = cancelMsg
			}
		}
	}
	return results
}

// newResult starts the result of a domain the scan did not measure with
// the invariants every result holds, scanned or cancelled — Rounds >= 1
// and a non-nil Addrs — so downstream consumers (JSONL round-trips, the
// invariance harness) never special-case cancellation. An empty Addrs
// costs no allocation.
func newResult(domain dnsname.Name) *DomainResult {
	return &DomainResult{Domain: domain, Addrs: []HostAddrs{}, Rounds: 1}
}

// DomainSource feeds domains to ScanStream one at a time, in canonical
// scan order, returning ok=false when exhausted. Sources are pulled
// from a single goroutine, so they need no locking. SliceSource adapts
// a list already in memory, such as worldgen's Active.QueryList; a
// reader of a domain file satisfies it line by line.
type DomainSource func() (dnsname.Name, bool)

// SliceSource adapts a domain slice to a DomainSource.
func SliceSource(domains []dnsname.Name) DomainSource {
	i := 0
	return func() (dnsname.Name, bool) {
		if i >= len(domains) {
			return "", false
		}
		d := domains[i]
		i++
		return d, true
	}
}

// ScanStream measures every domain the source yields and emits results
// to sw in input order, holding only a bounded out-of-order window in
// memory. A completed stream's bytes and digest are bit-identical to
// WriteJSONL/Digest over Scan's slice for the same input (pinned by the
// stream-vs-slice differential tests).
//
// When sw was opened with ResumeStream, the first sw.Emitted() domains
// from the source are skipped without scanning (counted as resumed
// skips) and emission continues where the interrupted scan left off.
//
// On cancellation the output stops at the last contiguous genuinely
// measured result: the dropped results leave gaps that cap the prefix
// Finish keeps, so "scan cancelled" artifacts never reach an archive a
// resumed scan will extend. ScanStream then returns ctx's error; Finish
// has still flushed and checkpointed the clean prefix, so a follow-up
// ResumeStream continues from it. A write error stops the scan the same
// way and is returned instead.
func (s *Scanner) ScanStream(ctx context.Context, src DomainSource, sw *StreamWriter) error {
	// Cancellation must release workers blocked in Offer even after the
	// feed loop has already returned — without this, a dropped result's
	// gap would leave the writer waiting for a line that will never
	// arrive.
	stopCancel := context.AfterFunc(ctx, sw.Cancel)
	defer stopCancel()

	err := s.scan(ctx, src, sw.Emitted(), sw.Offer)
	if ferr := sw.Finish(); ferr != nil {
		return ferr
	}
	return err
}
