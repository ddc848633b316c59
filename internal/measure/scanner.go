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
	rec := s.Trace.NewRecorder(domain)
	ctx, st := rec.Begin(ctx, trace.KindDomain, string(domain), s.Metrics.stage(trace.KindDomain))
	r := s.scanRound(ctx, st, domain, 1)
	classChanged := false
	if s.SecondRound && (r.FullyDefective() || r.ErrTransient) {
		var firstClass Classification
		if rec != nil {
			firstClass = r.Classify()
		}
		retry := s.scanRound(ctx, st, domain, 2)
		retry.Rounds = 2
		// The retry replaces the result but keeps the full fault
		// history: what the wire did in round one is part of the
		// domain's measurement record even when round two recovers.
		retry.Faults.Add(r.Faults)
		r = retry
		if rec != nil {
			classChanged = r.Classify() != firstClass
		}
	}
	st.End(nil)
	s.Metrics.recordDomain(r)
	if rec != nil {
		class := r.Classify().String()
		st.Annotate(trace.Str("class", class))
		pin := s.TracePin != nil && s.TracePin(r)
		s.Trace.OfferPin(rec.Finish(class, r.Rounds, r.Err, r.ErrTransient, classChanged), pin)
	}
	return r
}

// roundNames are the round spans' names, by round number.
var roundNames = [...]string{1: "round 1", 2: "round 2"}

// scanRound wraps one scanOnce pass in a round stage nested in the
// domain's stage dst, annotated with the classification that round
// produced on its own. The second round is metered; the first is timed
// by its domain.
func (s *Scanner) scanRound(ctx context.Context, dst trace.Stage, domain dnsname.Name, round int) *DomainResult {
	var hist *obs.Histogram
	if round == 2 {
		hist = s.Metrics.stage(trace.KindRound)
	}
	ctx, st := dst.Begin(ctx, trace.KindRound, roundNames[round], hist)
	r := s.scanOnce(ctx, domain)
	if st.Traced() {
		st.Annotate(trace.Str("class", r.Classify().String()))
	}
	st.End(nil)
	return r
}

func (s *Scanner) scanOnce(ctx context.Context, domain dnsname.Name) *DomainResult {
	r := newResult(domain)

	wctx, wst := trace.Begin(ctx, trace.KindParentWalk, string(domain), s.Metrics.stage(trace.KindParentWalk))
	deleg, err := s.Iterator.Delegation(wctx, domain)
	wst.End(err)
	switch {
	case err == nil:
		r.ParentResponded = true
		r.ParentZone = deleg.Parent.Zone
		r.ParentNS = deleg.Hosts
		r.ParentAuthoritative = deleg.Authoritative
	case errors.Is(err, resolver.ErrNXDomain), errors.Is(err, resolver.ErrNoAnswer):
		// The parent answered: the domain is simply gone (empty
		// response).
		r.ParentResponded = true
		r.Err = err.Error()
		return r
	default:
		if s.Metrics != nil {
			s.Metrics.walkFailures.Inc()
		}
		r.Err = err.Error()
		// A dead context makes every in-flight query "time out"; only a
		// live-context transient failure says anything about the wire.
		r.ErrTransient = ctx.Err() == nil && resolver.IsTransientErr(err)
		return r
	}

	// Resolve and probe every delegated nameserver, one unit per host.
	// Units run on this goroutine until the batch has outlived
	// fanout.InlineBudget — a healthy domain's never does — and only then
	// fan out, so a host stuck waiting out timeouts overlaps its siblings'
	// probes instead of gating them. Units write by index, so the fan-out
	// changes nothing about result ordering.
	units := make([]hostUnit, len(r.ParentNS))
	fanout.Each(len(units), s.parallelism(), func(i int) {
		units[i] = s.probeHost(ctx, domain, r.ParentNS[i], r.ParentNS, deleg.Glue(i))
	})
	total := 0
	for i, host := range r.ParentNS {
		r.Addrs[host] = units[i].addrs
		r.Faults.Add(units[i].faults)
		total += len(units[i].servers)
	}
	r.Servers = slices.Grow(r.Servers, total)
	for i := range units {
		r.Servers = append(r.Servers, units[i].servers...)
	}

	// The child may know servers the parent does not (C ⊃ P): resolve
	// and query those too, so NSCount and consistency see the full
	// picture.
	s.queryChildOnlyHosts(ctx, r)
	return r
}

// hostUnit is one delegated nameserver's part of a round: its
// addresses, one response per address, and those probes' fault counts.
type hostUnit struct {
	addrs   []netip.Addr
	servers []ServerResponse
	faults  FaultCounts
}

// probeHost is one pipelined unit: resolve host's addresses, then probe
// each address for domain's NS records.
func (s *Scanner) probeHost(ctx context.Context, domain, host dnsname.Name, parentNS []dnsname.Name, glue []netip.Addr) (u hostUnit) {
	u.addrs = s.fetchHost(ctx, host, glue)
	cctx, cst := trace.Begin(ctx, trace.KindChildProbe, string(host), s.Metrics.stage(trace.KindChildProbe))
	client := s.Iterator.Client()
	// One arena for the unit's probes: each response is copied out
	// before the next probe's decode reuses it.
	a := client.ArenaPool().Get()
	defer a.Finish()
	u.servers = make([]ServerResponse, len(u.addrs))
	for j, addr := range u.addrs {
		sr := ServerResponse{Host: host, Addr: addr}
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
			sr.NS = childNS(resp.Answers, domain, parentNS)
		}
		u.servers[j] = sr
	}
	cst.End(nil)
	if s.Metrics != nil {
		s.Metrics.probeQueries.Add(uint64(len(u.addrs)))
	}
	return u
}

// fetchHost resolves host's addresses in an NS-fetch stage annotated
// with attrs: the referral's glue for host when it carried some
// (authoritative enough for the parent's own view; the result takes
// the slice over), else full resolution, cached and coalesced across the
// scan. An unresolvable host gets nil.
func (s *Scanner) fetchHost(ctx context.Context, host dnsname.Name, glue []netip.Addr, attrs ...trace.Attr) []netip.Addr {
	fctx, st := trace.Begin(ctx, trace.KindNSFetch, string(host), s.Metrics.stage(trace.KindNSFetch))
	addrs := glue
	var err error
	if glue != nil {
		st.Annotate(trace.Bool("glue", true))
	} else if addrs, err = s.Iterator.ResolveHost(fctx, host); err != nil {
		addrs = nil
	}
	st.Annotate(trace.Int("addrs", int64(len(addrs))))
	st.Annotate(attrs...)
	st.End(err)
	return addrs
}

// childNS copies the domain's NS host names, sorted, out of an answer
// section that borrows the unit's arena. A name the parent also lists
// reuses the parent's owned copy — for a consistent delegation that is
// every name — so only names the child alone serves are copied.
func childNS(answers []dnswire.RR, domain dnsname.Name, parentNS []dnsname.Name) (out []dnsname.Name) {
	for _, rr := range answers {
		ns, ok := rr.Data.(dnswire.NSData)
		if !ok || rr.Name != domain {
			continue
		}
		if out == nil {
			out = make([]dnsname.Name, 0, len(answers))
		}
		if k := slices.Index(parentNS, ns.Host); k >= 0 {
			out = append(out, parentNS[k])
		} else {
			out = append(out, ns.Host.Own())
		}
	}
	slices.SortFunc(out, dnsname.Compare)
	return out
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

// queryChildOnlyHosts resolves nameservers that appear only in child
// answers and records their addresses (used by the diversity analysis).
// Every parent-listed host already has an Addrs entry, so a host without
// one is the child's alone.
func (s *Scanner) queryChildOnlyHosts(ctx context.Context, r *DomainResult) {
	var hosts []dnsname.Name
	for i := range r.Servers {
		if !r.Servers[i].Answered() {
			continue
		}
		for _, host := range r.Servers[i].NS {
			if _, done := r.Addrs[host]; !done && !slices.Contains(hosts, host) {
				hosts = append(hosts, host)
			}
		}
	}
	if len(hosts) == 0 {
		return
	}
	slices.SortFunc(hosts, dnsname.Compare)
	resolved := make([][]netip.Addr, len(hosts))
	fanout.Each(len(hosts), s.parallelism(), func(i int) {
		resolved[i] = s.fetchHost(ctx, hosts[i], nil, trace.Bool("child_only", true))
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

// newResult starts domain's result with the invariants every result
// holds, scanned or cancelled — Rounds >= 1 and a non-nil Addrs map — so
// downstream consumers (aggregations that write into Addrs, JSONL
// round-trips, the invariance harness) never special-case cancellation.
func newResult(domain dnsname.Name) *DomainResult {
	return &DomainResult{Domain: domain, Addrs: make(map[dnsname.Name][]netip.Addr), Rounds: 1}
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
