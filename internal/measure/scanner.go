package measure

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
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
	// Most of a defective domain's scan time is spent waiting out query
	// timeouts on dead servers; overlapping those waits is where the
	// wall-clock win comes from. 0 means DefaultPerDomainParallelism;
	// 1 restores fully serial per-domain behaviour.
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

func (s *Scanner) fanout() int {
	if s.PerDomainParallelism > 0 {
		return s.PerDomainParallelism
	}
	return DefaultPerDomainParallelism
}

// fanEach runs fn(i) for every i in [0,n), using up to p concurrent
// goroutines. Results must be written by index so ordering stays
// deterministic regardless of completion order.
func fanEach(n, p int, fn func(int)) {
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// NewScanner builds a scanner with the paper's configuration.
func NewScanner(it *resolver.Iterator) *Scanner {
	return &Scanner{Iterator: it, SecondRound: true}
}

// ScanDomain measures a single domain (one Fig. 1 pipeline run,
// including the second round when enabled).
func (s *Scanner) ScanDomain(ctx context.Context, domain dnsname.Name) *DomainResult {
	domainStart := time.Now()
	rec := s.Trace.NewRecorder(domain)
	root := trace.NoSpan
	if rec != nil {
		root = rec.StartSpan(trace.NoSpan, trace.KindDomain, string(domain))
		ctx = trace.ContextWith(ctx, rec, root)
	}
	r := s.scanRound(ctx, rec, root, domain, 1)
	classChanged := false
	if s.SecondRound && (r.FullyDefective() || r.ErrTransient) {
		var firstClass Classification
		if rec != nil {
			firstClass = r.Classify()
		}
		retryStart := time.Now()
		retry := s.scanRound(ctx, rec, root, domain, 2)
		s.Metrics.recordSecondRound(retryStart)
		retry.Rounds = 2
		// The retry replaces the result but keeps the full fault
		// history: what the wire did in round one is part of the
		// domain's measurement record even when round two recovers.
		retry.Faults.merge(r.Faults)
		r = retry
		if rec != nil {
			classChanged = r.Classify() != firstClass
		}
	}
	s.Metrics.recordDomain(domainStart, r)
	if rec != nil {
		class := r.Classify().String()
		rec.Annotate(root, trace.Str("class", class))
		rec.EndSpan(root, nil)
		pin := s.TracePin != nil && s.TracePin(r)
		s.Trace.OfferPin(rec.Finish(class, r.Rounds, r.Err, r.ErrTransient, classChanged), pin)
	}
	return r
}

// scanRound wraps one scanOnce pass in a round span, annotated with
// the classification that round produced on its own.
func (s *Scanner) scanRound(ctx context.Context, rec *trace.Recorder, root trace.SpanID, domain dnsname.Name, round int) (r *DomainResult) {
	if rec != nil {
		span := rec.StartSpan(root, trace.KindRound, "round "+strconv.Itoa(round))
		ctx = trace.ContextWith(ctx, rec, span)
		defer func() {
			rec.Annotate(span, trace.Str("class", r.Classify().String()))
			rec.EndSpan(span, nil)
		}()
	}
	return s.scanOnce(ctx, domain)
}

func (s *Scanner) scanOnce(ctx context.Context, domain dnsname.Name) *DomainResult {
	r := &DomainResult{
		Domain: domain,
		Addrs:  make(map[dnsname.Name][]netip.Addr),
		Rounds: 1,
	}

	rec, round := trace.From(ctx)

	walkStart := time.Now()
	wspan := trace.NoSpan
	wctx := ctx
	if rec != nil {
		wspan = rec.StartSpan(round, trace.KindParentWalk, string(domain))
		wctx = trace.ContextWith(ctx, rec, wspan)
	}
	deleg, err := s.Iterator.Delegation(wctx, domain)
	rec.EndSpan(wspan, err)
	s.Metrics.recordParentWalk(walkStart, err != nil &&
		!errors.Is(err, resolver.ErrNXDomain) && !errors.Is(err, resolver.ErrNoAnswer))
	switch {
	case err == nil:
		r.ParentResponded = true
		r.ParentZone = deleg.Parent.Zone
		r.ParentNS = deleg.Hosts()
		r.ParentAuthoritative = deleg.Authoritative
	case errors.Is(err, resolver.ErrNXDomain), errors.Is(err, resolver.ErrNoAnswer):
		// The parent answered: the domain is simply gone (empty
		// response).
		r.ParentResponded = true
		r.Err = err.Error()
		return r
	default:
		r.Err = err.Error()
		// A dead context makes every in-flight query "time out"; only a
		// live-context transient failure says anything about the wire.
		r.ErrTransient = ctx.Err() == nil && resolver.IsTransientErr(err)
		return r
	}

	// Resolve and probe every delegated nameserver. Each host is one
	// pipelined unit — resolve its addresses (glue from the referral is
	// authoritative enough for the parent's own view; out-of-zone hosts
	// go through full resolution, cached and coalesced across the scan),
	// then immediately probe each address for the domain's NS records.
	// Units fan out across hosts, so a host stuck waiting out timeouts
	// on an unresolvable name overlaps its siblings' probes instead of
	// gating them. Results land in pre-sized per-host slices by index,
	// so the fan-out changes nothing about result ordering.
	glue := glueAddrs(deleg.Glue)
	client := s.Iterator.Client()
	resolved := make([][]netip.Addr, len(r.ParentNS))
	perHost := make([][]ServerResponse, len(r.ParentNS))
	faults := make([]FaultCounts, len(r.ParentNS))
	fanEach(len(r.ParentNS), s.fanout(), func(i int) {
		host := r.ParentNS[i]
		fetchStart := time.Now()
		fspan := trace.NoSpan
		fctx := ctx
		if rec != nil {
			fspan = rec.StartSpan(round, trace.KindNSFetch, string(host))
			fctx = trace.ContextWith(ctx, rec, fspan)
		}
		var fetchErr error
		if addrs, ok := glue[host]; ok {
			resolved[i] = addrs
			if rec != nil {
				rec.Annotate(fspan, trace.Bool("glue", true))
			}
		} else if addrs, err := s.Iterator.ResolveHost(fctx, host); err == nil {
			resolved[i] = addrs
		} else {
			fetchErr = err
		}
		if rec != nil {
			rec.Annotate(fspan, trace.Int("addrs", int64(len(resolved[i]))))
			rec.EndSpan(fspan, fetchErr)
		}
		s.Metrics.recordNSFetch(fetchStart)
		probeStart := time.Now()
		cspan := trace.NoSpan
		cctx := ctx
		if rec != nil {
			cspan = rec.StartSpan(round, trace.KindChildProbe, string(host))
			cctx = trace.ContextWith(ctx, rec, cspan)
		}
		perHost[i] = make([]ServerResponse, len(resolved[i]))
		for j, addr := range resolved[i] {
			sr := ServerResponse{Host: host, Addr: addr}
			pspan := trace.NoSpan
			pctx := cctx
			if rec != nil {
				pspan = rec.StartSpan(cspan, trace.KindProbe, addr.String())
				pctx = trace.ContextWith(cctx, rec, pspan)
			}
			resp, qtr, err := client.QueryTraced(pctx, addr, domain, dnswire.TypeNS)
			faults[i].add(qtr)
			if rec != nil {
				rec.Annotate(pspan, faultAttrs(qtr)...)
				rec.EndSpan(pspan, err)
			}
			if err != nil {
				sr.Err = err.Error()
			} else {
				sr.OK = true
				sr.RCode = resp.Header.RCode
				sr.Authoritative = resp.Header.Authoritative
				for _, rr := range resp.AnswersOfType(dnswire.TypeNS) {
					if rr.Name != domain {
						continue
					}
					sr.NS = append(sr.NS, rr.Data.(dnswire.NSData).Host)
				}
				slices.SortFunc(sr.NS, dnsname.Compare)
			}
			perHost[i][j] = sr
		}
		rec.EndSpan(cspan, nil)
		s.Metrics.recordChildProbe(probeStart, len(resolved[i]))
	})
	for i, host := range r.ParentNS {
		r.Addrs[host] = resolved[i]
		r.Servers = append(r.Servers, perHost[i]...)
		r.Faults.merge(faults[i])
	}

	// The child may know servers the parent does not (C ⊃ P): resolve
	// and query those too, so NSCount and consistency see the full
	// picture.
	s.queryChildOnlyHosts(ctx, r)
	return r
}

// glueAddrs builds the per-host address map from a referral's glue
// records. Each slice is sorted into netip.Addr.Less order here, once,
// before the per-host fan-out aliases the map's slices: sorting lazily
// inside the workers would run two concurrent in-place sorts on the
// same slice whenever one host appears twice in ParentNS.
func glueAddrs(rrs []dnswire.RR) map[dnsname.Name][]netip.Addr {
	if len(rrs) == 0 {
		return nil
	}
	glue := make(map[dnsname.Name][]netip.Addr)
	for _, rr := range rrs {
		if a, ok := rr.Data.(dnswire.AData); ok {
			glue[rr.Name] = append(glue[rr.Name], a.Addr)
		}
	}
	for _, addrs := range glue {
		sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	}
	return glue
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
	if tr.Duplicates > 0 {
		attrs = append(attrs, trace.Int("duplicates", int64(tr.Duplicates)))
	}
	if tr.Truncations > 0 {
		attrs = append(attrs, trace.Int("truncations", int64(tr.Truncations)))
	}
	if tr.QIDMismatches > 0 {
		attrs = append(attrs, trace.Int("qid_mismatches", int64(tr.QIDMismatches)))
	}
	if tr.QuestionMismatches > 0 {
		attrs = append(attrs, trace.Int("question_mismatches", int64(tr.QuestionMismatches)))
	}
	if tr.Malformed > 0 {
		attrs = append(attrs, trace.Int("malformed", int64(tr.Malformed)))
	}
	return attrs
}

// queryChildOnlyHosts resolves nameservers that appear only in child
// answers and records their addresses (used by the diversity analysis).
func (s *Scanner) queryChildOnlyHosts(ctx context.Context, r *DomainResult) {
	inParent := make(map[dnsname.Name]bool, len(r.ParentNS))
	for _, h := range r.ParentNS {
		inParent[h] = true
	}
	var hosts []dnsname.Name
	for _, host := range r.ChildNS() {
		if inParent[host] {
			continue
		}
		if _, done := r.Addrs[host]; done {
			continue
		}
		hosts = append(hosts, host)
	}
	rec, round := trace.From(ctx)
	resolved := make([][]netip.Addr, len(hosts))
	fanEach(len(hosts), s.fanout(), func(i int) {
		fetchStart := time.Now()
		fspan := trace.NoSpan
		fctx := ctx
		if rec != nil {
			fspan = rec.StartSpan(round, trace.KindNSFetch, string(hosts[i]))
			fctx = trace.ContextWith(ctx, rec, fspan)
		}
		addrs, err := s.Iterator.ResolveHost(fctx, hosts[i])
		if err == nil {
			resolved[i] = addrs
		}
		if rec != nil {
			rec.Annotate(fspan, trace.Int("addrs", int64(len(resolved[i]))),
				trace.Bool("child_only", true))
			rec.EndSpan(fspan, err)
		}
		s.Metrics.recordNSFetch(fetchStart)
	})
	for i, host := range hosts {
		r.Addrs[host] = resolved[i]
	}
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
		for j := range jobs {
			r := s.ScanDomain(wctx, j.domain)
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
// flight — holds a cancelledResult carrying the context's own error, so
// callers can tell a deadline from an explicit cancel and never see a
// half-measured domain.
func (s *Scanner) Scan(ctx context.Context, domains []dnsname.Name) []*DomainResult {
	s.Metrics.setTotal(len(domains))
	results := make([]*DomainResult, len(domains))
	err := s.scan(ctx, SliceSource(domains), 0, func(idx int, r *DomainResult) error {
		results[idx] = r
		return nil
	})
	if err != nil {
		cancelMsg := fmt.Errorf("scan cancelled: %w", err).Error()
		for i, r := range results {
			if r == nil {
				results[i] = cancelledResult(domains[i], cancelMsg)
			}
		}
	}
	return results
}

// cancelledResult fills a slot whose domain was never scanned. It holds
// the invariants every scanned result holds — Rounds >= 1 and a non-nil
// Addrs map — so downstream consumers (aggregations that write into
// Addrs, JSONL round-trips, the invariance harness) never special-case
// cancellation.
func cancelledResult(domain dnsname.Name, msg string) *DomainResult {
	return &DomainResult{
		Domain: domain,
		Addrs:  make(map[dnsname.Name][]netip.Addr),
		Rounds: 1,
		Err:    msg,
	}
}

// DomainSource feeds domains to ScanStream one at a time, in canonical
// scan order, returning ok=false when exhausted. Sources are pulled
// from a single goroutine, so they need no locking. worldgen's
// QueryStream.Next satisfies this signature directly.
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
