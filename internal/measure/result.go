// Package measure implements the paper's active measurement pipeline
// (Fig. 1): for each domain, find the authoritative servers of its
// parent zone, ask them for the domain's NS records (the parent view P),
// resolve every delegated nameserver to its IPv4 addresses, and query
// each address for the domain's NS records (the child views C). Domains
// whose delegated servers all fail are retried in a second round.
package measure

import (
	"net/netip"
	"slices"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/resolver"
)

// FaultCounts aggregates the resolver's per-query fault traces over one
// domain's probes: how many responses each rejection class discarded.
// The counters describe what the wire did to the measurement, not what
// the measurement concluded — two scans that recover to identical
// conclusions may carry very different fault counts.
type FaultCounts = resolver.Faults

// ServerResponse is the outcome of querying one nameserver address for
// the domain's NS records.
type ServerResponse struct {
	// Host is the NS hostname the address belongs to.
	Host dnsname.Name
	// Addr is the queried address.
	Addr netip.Addr
	// OK reports whether any response arrived.
	OK bool
	// RCode is the response code (when OK).
	RCode dnswire.RCode
	// Authoritative reports the AA bit (when OK).
	Authoritative bool
	// NS is the NS RRset for the domain in the response's answer
	// section, sorted.
	NS []dnsname.Name
	// Err describes the failure (when !OK).
	Err string
}

// Answered reports whether the server gave an authoritative, non-empty
// NS answer for the domain — the test for a *working* delegation.
func (sr *ServerResponse) Answered() bool {
	return sr.OK && sr.Authoritative && sr.RCode == dnswire.RCodeNoError && len(sr.NS) > 0
}

// HostAddrs is one nameserver host of a result with its addresses,
// sorted in netip.Addr.Compare order; nil when the host did not
// resolve.
type HostAddrs struct {
	Host  dnsname.Name
	Addrs []netip.Addr
}

// DomainResult is the complete measurement record for one domain.
//
// A scanned result is a few blocks of its own (DESIGN.md § 10): its
// Servers; one name array behind ParentNS and every server's NS; its
// Addrs; and one address array behind every host's addresses. Each list
// is capped at its length, so appending to one never reaches another,
// and no result shares a block with another result or with the scanner.
type DomainResult struct {
	// Domain is the probed name.
	Domain dnsname.Name
	// ParentZone is the zone holding the delegation (when discovered).
	ParentZone dnsname.Name
	// ParentResponded reports whether any parent-zone server responded
	// to the NS query at all (the 115k-of-147k line in § III-B).
	ParentResponded bool
	// ParentNS is the parent-side NS set P, sorted. Empty with
	// ParentResponded=true means an empty response (NXDOMAIN/NODATA) —
	// the domain is gone from the parent.
	ParentNS []dnsname.Name
	// ParentAuthoritative marks delegations learned from an
	// authoritative answer rather than a referral (parent and child
	// served by the same host).
	ParentAuthoritative bool
	// Addrs holds each nameserver hostname (from P and from child
	// answers) with its resolved IPv4 addresses, one entry per host,
	// in dnsname.Compare order of the host; never nil, so a consumer
	// may append to it. An unresolvable host's addresses are nil.
	// AddrsOf looks one host up.
	Addrs []HostAddrs
	// Servers holds one entry per queried (host, address) pair.
	Servers []ServerResponse
	// Rounds is 1, or 2 when the second-round retry ran.
	Rounds int
	// Err records a walk failure (no parent response).
	Err string
	// ErrTransient marks Err as belonging to the transient failure
	// class (resolver.IsTransientErr): a second round may not reproduce
	// it, so analyses should not treat the domain as durably broken.
	ErrTransient bool
	// Faults aggregates the per-query fault traces of every probe made
	// for this domain, across both rounds.
	Faults FaultCounts
}

// Classification buckets a DomainResult for the paper's § IV-C analysis.
type Classification int

const (
	// ClassWalkFailure: the delegation walk itself failed; nothing is
	// known about the domain's servers.
	ClassWalkFailure Classification = iota
	// ClassNoDelegation: the parent answered but returned no NS set —
	// the domain is gone from the parent.
	ClassNoDelegation
	// ClassHealthy: every parent-listed nameserver produced a working
	// authoritative answer.
	ClassHealthy
	// ClassPartiallyLame: some servers answer, some are defective.
	ClassPartiallyLame
	// ClassFullyLame: the delegation exists but no server answers.
	ClassFullyLame
)

// String names the classification for reports and test output.
func (c Classification) String() string {
	switch c {
	case ClassWalkFailure:
		return "walk-failure"
	case ClassNoDelegation:
		return "no-delegation"
	case ClassHealthy:
		return "healthy"
	case ClassPartiallyLame:
		return "partially-lame"
	case ClassFullyLame:
		return "fully-lame"
	}
	return "unknown"
}

// Classify buckets the result. Every result falls into exactly one
// class; chaos can move a domain between classes but never out of the
// partition (the graceful-degradation property the invariance harness
// checks).
func (r *DomainResult) Classify() Classification {
	switch {
	case !r.ParentResponded:
		return ClassWalkFailure
	case !r.HasData():
		return ClassNoDelegation
	case !r.Responsive():
		return ClassFullyLame
	case r.hasDefectiveHost():
		return ClassPartiallyLame
	}
	return ClassHealthy
}

// HasData reports whether the parent returned a non-empty NS set (the
// 96k-of-115k line).
func (r *DomainResult) HasData() bool {
	return r.ParentResponded && len(r.ParentNS) > 0
}

// ChildNS returns the union of NS sets returned by the domain's own
// servers (the child view C), sorted.
func (r *DomainResult) ChildNS() []dnsname.Name {
	n := r.childLen()
	if n == 0 {
		return nil
	}
	return r.AppendChildNS(make([]dnsname.Name, 0, n))
}

// AppendChildNS appends the child view C, distinct and sorted, to dst
// and returns the extended slice; the names already in dst are left as
// they are. A caller that walks many results reuses one buffer:
// child = r.AppendChildNS(child[:0]).
func (r *DomainResult) AppendChildNS(dst []dnsname.Name) []dnsname.Name {
	// Servers mostly repeat one another's answer, so C is a handful of
	// names: weeding the repeats out by scanning leaves far less to sort
	// than sorting them all and compacting would.
	start := len(dst)
	for i := range r.Servers {
		if !r.Servers[i].Answered() {
			continue
		}
		for _, host := range r.Servers[i].NS {
			if !slices.Contains(dst[start:], host) {
				dst = append(dst, host)
			}
		}
	}
	slices.SortFunc(dst[start:], dnsname.Compare)
	return dst
}

// childLen is |C|, counted without building C: each name is counted
// where it first appears among the answered servers' NS lists.
func (r *DomainResult) childLen() int {
	n := 0
	for i := range r.Servers {
		sr := &r.Servers[i]
		if !sr.Answered() {
			continue
		}
		for j, host := range sr.NS {
			if !slices.Contains(sr.NS[:j], host) && !inChild(r.Servers[:i], host) {
				n++
			}
		}
	}
	return n
}

// inChild reports whether host is in the NS list of an answered server
// among servers: given all of a result's servers, whether host is in C.
func inChild(servers []ServerResponse, host dnsname.Name) bool {
	for i := range servers {
		if servers[i].Answered() && slices.Contains(servers[i].NS, host) {
			return true
		}
	}
	return false
}

// Responsive reports whether at least one of the domain's authoritative
// servers answered for the domain.
func (r *DomainResult) Responsive() bool {
	for i := range r.Servers {
		if r.Servers[i].Answered() {
			return true
		}
	}
	return false
}

// FullyDefective reports whether the delegation exists but none of the
// delegated servers answers for the zone (§ IV-C).
func (r *DomainResult) FullyDefective() bool {
	return r.HasData() && !r.Responsive()
}

// PartiallyDefective reports whether at least one delegated server fails
// while at least one answers. Per the paper, fully defective delegations
// are also counted as partially defective by the per-server test; this
// predicate is the strict "some but not all" version.
func (r *DomainResult) PartiallyDefective() bool {
	return r.HasData() && r.hasDefectiveHost() && r.Responsive()
}

// HasDefect reports whether any delegated nameserver fails to answer
// (partial or full).
func (r *DomainResult) HasDefect() bool {
	return r.HasData() && r.hasDefectiveHost()
}

// Funnel counts scan results through the § III-B data-collection
// funnel: queried, answered by the parent, delegated to a non-empty NS
// set, and answered by a delegated server. Each stage counts a subset
// of the stage before it.
type Funnel struct {
	Queried, ParentResponded, WithData, Responsive int
}

// Add counts one result.
func (f *Funnel) Add(r *DomainResult) {
	f.Queried++
	if !r.ParentResponded {
		return
	}
	f.ParentResponded++
	if !r.HasData() {
		return
	}
	f.WithData++
	if r.Responsive() {
		f.Responsive++
	}
}

// HostAnswered reports whether any address of the nameserver host
// produced a working answer.
func (r *DomainResult) HostAnswered(host dnsname.Name) bool {
	for i := range r.Servers {
		if r.Servers[i].Host == host && r.Servers[i].Answered() {
			return true
		}
	}
	return false
}

// hasDefectiveHost reports whether any parent-listed hostname did not
// produce a working answer from any address: an unresolvable host, or
// one whose every address timed out, refused, or answered
// non-authoritatively.
func (r *DomainResult) hasDefectiveHost() bool {
	for _, host := range r.ParentNS {
		if !r.HostAnswered(host) {
			return true
		}
	}
	return false
}

// AllAddrs returns the distinct resolved addresses of the domain's
// nameservers, sorted — the IP_ns set of Table I.
func (r *DomainResult) AllAddrs() []netip.Addr {
	var out []netip.Addr
	for _, h := range r.Addrs {
		out = append(out, h.Addrs...)
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return slices.Compact(out)
}

// AddrsOf returns host's resolved addresses, nil when host did not
// resolve or is not one of the result's nameservers. The result's
// hosts are a handful, so it scans them rather than searching.
func (r *DomainResult) AddrsOf(host dnsname.Name) []netip.Addr {
	for _, h := range r.Addrs {
		if h.Host == host {
			return h.Addrs
		}
	}
	return nil
}

// copyOut returns a copy of r built from exact-size blocks of its own:
// the DomainResult, its Servers, one name array behind ParentNS and
// every server's NS, its Addrs, and one address array behind every
// host's addresses. Every list is capped at its length, and an empty
// one other than Addrs is nil. The names themselves are shared with r, as strings are
// immutable. The scanner builds each round in reused scratch and hands
// out only this copy.
func (r *DomainResult) copyOut() *DomainResult {
	out := new(DomainResult)
	*out = *r
	nNames, nAddrs := len(r.ParentNS), 0
	for i := range r.Servers {
		nNames += len(r.Servers[i].NS)
	}
	for _, h := range r.Addrs {
		nAddrs += len(h.Addrs)
	}
	names := make([]dnsname.Name, 0, nNames)
	addrs := make([]netip.Addr, 0, nAddrs)
	out.ParentNS = carve(&names, r.ParentNS)
	out.Servers = nil
	if len(r.Servers) > 0 {
		out.Servers = make([]ServerResponse, len(r.Servers))
		for i := range r.Servers {
			out.Servers[i] = r.Servers[i]
			out.Servers[i].NS = carve(&names, r.Servers[i].NS)
		}
	}
	// Addrs alone is never nil (see newResult); an empty one costs no
	// allocation.
	out.Addrs = make([]HostAddrs, len(r.Addrs))
	for i, h := range r.Addrs {
		out.Addrs[i] = HostAddrs{Host: h.Host, Addrs: carve(&addrs, h.Addrs)}
	}
	return out
}

// carve appends src to the block and returns the appended part, capped
// at its length; nil when src is empty.
func carve[T any](block *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	start := len(*block)
	*block = append(*block, src...)
	return (*block)[start:len(*block):len(*block)]
}
