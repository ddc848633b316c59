// Package zone implements the DNS zone data model: RRset storage with
// authoritative lookup semantics (answers, referrals with glue, NXDOMAIN,
// NODATA), plus a master-file parser and serialiser.
package zone

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

// Zone errors.
var (
	// ErrNoSOA indicates a zone that is missing its SOA record.
	ErrNoSOA = errors.New("zone: missing SOA")
	// ErrOutOfZone indicates a record whose owner name lies outside the
	// zone's origin.
	ErrOutOfZone = errors.New("zone: record out of zone")
)

// rrKey identifies an RRset within a zone.
type rrKey struct {
	name  dnsname.Name
	rtype dnswire.Type
}

// Zone holds the authoritative data for one DNS zone. It is safe for
// concurrent reads after construction; Add and SetSOA must not race with
// lookups.
type Zone struct {
	origin dnsname.Name

	mu     sync.RWMutex
	sets   map[rrKey][]dnswire.RR
	names  map[dnsname.Name]bool // all owner names, for NXDOMAIN vs NODATA
	ents   map[dnsname.Name]bool // owner names plus empty non-terminals
	delegs map[dnsname.Name]bool // cut points (names with NS below apex)
}

// New creates an empty zone rooted at origin.
func New(origin dnsname.Name) *Zone {
	return &Zone{
		origin: origin,
		sets:   make(map[rrKey][]dnswire.RR),
		names:  make(map[dnsname.Name]bool),
		ents:   make(map[dnsname.Name]bool),
		delegs: make(map[dnsname.Name]bool),
	}
}

// Origin returns the zone apex name.
func (z *Zone) Origin() dnsname.Name { return z.origin }

// Add inserts rr into the zone. Duplicate records (same name/type/RDATA)
// are ignored. Records outside the zone are rejected.
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.origin) {
		return fmt.Errorf("%w: %q not under %q", ErrOutOfZone, rr.Name, z.origin)
	}
	if rr.Data == nil {
		return fmt.Errorf("zone: record %q has nil RDATA", rr.Name)
	}
	z.mu.Lock()
	defer z.mu.Unlock()

	key := rrKey{name: rr.Name, rtype: rr.Type()}
	for _, existing := range z.sets[key] {
		if existing.Equal(rr) {
			return nil
		}
	}
	z.sets[key] = append(z.sets[key], rr)
	z.names[rr.Name] = true
	// Record the owner and every empty non-terminal above it, so
	// NXDOMAIN-vs-NODATA decisions are O(labels).
	for cur := rr.Name; cur.IsSubdomainOf(z.origin); cur = cur.Parent() {
		z.ents[cur] = true
		if cur == z.origin {
			break
		}
	}
	if rr.Type() == dnswire.TypeNS && rr.Name != z.origin {
		z.delegs[rr.Name] = true
	}
	return nil
}

// MustAdd is Add that panics on error; for use by generators with
// known-good data.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// Remove deletes all records matching name and type. It reports how many
// records were removed.
func (z *Zone) Remove(name dnsname.Name, rtype dnswire.Type) int {
	z.mu.Lock()
	defer z.mu.Unlock()
	key := rrKey{name: name, rtype: rtype}
	n := len(z.sets[key])
	delete(z.sets, key)
	if rtype == dnswire.TypeNS {
		delete(z.delegs, name)
	}
	// Drop the owner name if nothing remains at it.
	remaining := false
	for k := range z.sets {
		if k.name == name {
			remaining = true
			break
		}
	}
	if !remaining {
		delete(z.names, name)
	}
	return n
}

// Lookup returns a copy of the RRset for (name, rtype), or nil.
func (z *Zone) Lookup(name dnsname.Name, rtype dnswire.Type) []dnswire.RR {
	return z.appendSet(nil, name, rtype)
}

// appendSet appends the RRset for (name, rtype) to dst. It is the one
// read of the zone's record storage, so every record a lookup hands out
// is a copy the caller may modify.
func (z *Zone) appendSet(dst []dnswire.RR, name dnsname.Name, rtype dnswire.Type) []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return append(dst, z.sets[rrKey{name: name, rtype: rtype}]...)
}

// since returns the records buf gained past from, capped so an append
// to it reallocates rather than reach records appended after it; nil
// when there are none.
func since(buf []dnswire.RR, from int) []dnswire.RR {
	if len(buf) == from {
		return nil
	}
	return buf[from:len(buf):len(buf)]
}

// SOA returns the zone's SOA record, or an error if absent.
func (z *Zone) SOA() (dnswire.RR, error) {
	set := z.Lookup(z.origin, dnswire.TypeSOA)
	if len(set) == 0 {
		return dnswire.RR{}, fmt.Errorf("%w at %q", ErrNoSOA, z.origin)
	}
	return set[0], nil
}

// HasName reports whether any record exists at name.
func (z *Zone) HasName(name dnsname.Name) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.names[name]
}

// delegationFor returns the deepest cut point at or above name (strictly
// below the apex), if any. A query for a name at or under a cut must be
// answered with a referral.
func (z *Zone) delegationFor(name dnsname.Name) (dnsname.Name, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	// Walk from name upward until (and excluding) the apex.
	for cur := name; cur.IsSubdomainOf(z.origin) && cur != z.origin; cur = cur.Parent() {
		if z.delegs[cur] {
			return cur, true
		}
	}
	return "", false
}

// AnswerKind classifies the outcome of an authoritative lookup.
type AnswerKind int

// Lookup outcomes.
const (
	// KindAnswer is an authoritative answer with records.
	KindAnswer AnswerKind = iota + 1
	// KindReferral is a delegation to a child zone.
	KindReferral
	// KindNoData means the name exists but has no records of the type.
	KindNoData
	// KindNXDomain means the name does not exist in the zone.
	KindNXDomain
)

// Answer is the result of Zone.Authoritative.
type Answer struct {
	Kind       AnswerKind
	Records    []dnswire.RR // answer section
	Authority  []dnswire.RR // NS records for referrals, SOA for negatives
	Additional []dnswire.RR // glue addresses
}

// Authoritative performs an RFC 1034 §4.3.2-style lookup of (name, rtype)
// in the zone and classifies the result. CNAMEs at the query name are
// returned as answers (the measurement client does not chase CNAMEs for NS
// lookups, matching the paper's pipeline).
func (z *Zone) Authoritative(name dnsname.Name, rtype dnswire.Type) Answer {
	return z.AppendAuthoritative(nil, name, rtype)
}

// AppendAuthoritative is Authoritative with every section's records
// appended to dst, so a server can build them in scratch it reuses. The
// sections are consecutive runs of the grown buffer, each capped so an
// append to one reallocates rather than overwrite the next.
func (z *Zone) AppendAuthoritative(dst []dnswire.RR, name dnsname.Name, rtype dnswire.Type) Answer {
	from := len(dst)
	if !name.IsSubdomainOf(z.origin) {
		return Answer{Kind: KindNXDomain, Authority: since(z.appendSet(dst, z.origin, dnswire.TypeSOA), from)}
	}

	// Below or at a zone cut: referral, except that an explicit NS query
	// for the cut itself is also answered from the parent side as a
	// referral (the parent is not authoritative for the child apex).
	if cut, ok := z.delegationFor(name); ok {
		buf := z.appendSet(dst, cut, dnswire.TypeNS)
		nsSet := since(buf, from)
		buf = z.appendAddrs(buf, nsSet)
		return Answer{Kind: KindReferral, Authority: nsSet, Additional: since(buf, from+len(nsSet))}
	}

	if buf := z.appendSet(dst, name, rtype); len(buf) > from {
		set := since(buf, from)
		buf = z.appendAddrs(buf, set)
		return Answer{Kind: KindAnswer, Records: set, Additional: since(buf, from+len(set))}
	}
	// CNAME redirection at the owner name.
	if rtype != dnswire.TypeCNAME {
		if buf := z.appendSet(dst, name, dnswire.TypeCNAME); len(buf) > from {
			return Answer{Kind: KindAnswer, Records: since(buf, from)}
		}
	}
	if z.hasNameOrChildren(name) {
		return Answer{Kind: KindNoData, Authority: since(z.appendSet(dst, z.origin, dnswire.TypeSOA), from)}
	}
	// RFC 1034 §4.3.3 wildcard synthesis: the closest enclosing "*"
	// owner answers for names that would otherwise not exist.
	if ans, ok := z.wildcard(dst, name, rtype); ok {
		return ans
	}
	return Answer{Kind: KindNXDomain, Authority: since(z.appendSet(dst, z.origin, dnswire.TypeSOA), from)}
}

// wildcard searches for a matching "*" owner at each ancestor of name
// (excluding names that exist — the caller established NXDOMAIN) and
// synthesizes records with the query name as owner, appended to dst.
func (z *Zone) wildcard(dst []dnswire.RR, name dnsname.Name, rtype dnswire.Type) (Answer, bool) {
	from := len(dst)
	for cur := name.Parent(); cur.IsSubdomainOf(z.origin); cur = cur.Parent() {
		star, err := cur.Prepend("*")
		if err != nil {
			break
		}
		buf := z.appendSet(dst, star, rtype)
		if len(buf) == from && rtype != dnswire.TypeCNAME {
			buf = z.appendSet(dst, star, dnswire.TypeCNAME)
		}
		if set := since(buf, from); set != nil {
			for i := range set {
				set[i].Name = name
			}
			return Answer{Kind: KindAnswer, Records: set}, true
		}
		// A wildcard exists but lacks the type: NODATA per the RFC.
		if z.HasName(star) {
			return Answer{Kind: KindNoData, Authority: since(z.appendSet(dst, z.origin, dnswire.TypeSOA), from)}, true
		}
		if cur == z.origin {
			break
		}
	}
	return Answer{}, false
}

// hasNameOrChildren reports whether name exists as an owner name or as an
// empty non-terminal (an ancestor of an existing name). The ents index is
// not rebuilt by Remove, so a fully-removed subtree may answer NODATA
// rather than NXDOMAIN — the conservative direction for a nameserver.
func (z *Zone) hasNameOrChildren(name dnsname.Name) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.ents[name]
}

// appendAddrs appends the in-zone A records that help resolve set's
// targets: glue for a referral's NS hosts, additional addresses for an
// answer's NS and MX targets.
func (z *Zone) appendAddrs(dst, set []dnswire.RR) []dnswire.RR {
	for _, rr := range set {
		switch d := rr.Data.(type) {
		case dnswire.NSData:
			dst = z.appendSet(dst, d.Host, dnswire.TypeA)
		case dnswire.MXData:
			dst = z.appendSet(dst, d.Exchange, dnswire.TypeA)
		}
	}
	return dst
}

// Records returns every record in the zone in deterministic order:
// canonical name order, then type, then presentation form of RDATA.
func (z *Zone) Records() []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]dnswire.RR, 0, len(z.sets)*2)
	for _, set := range z.sets {
		out = append(out, set...)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := dnsname.Compare(out[i].Name, out[j].Name); c != 0 {
			return c < 0
		}
		if out[i].Type() != out[j].Type() {
			return out[i].Type() < out[j].Type()
		}
		return out[i].Data.String() < out[j].Data.String()
	})
	return out
}

// Len returns the total number of records in the zone.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, set := range z.sets {
		n += len(set)
	}
	return n
}

// Delegations returns the zone's cut points in canonical order.
func (z *Zone) Delegations() []dnsname.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]dnsname.Name, 0, len(z.delegs))
	for n := range z.delegs {
		out = append(out, n)
	}
	slices.SortFunc(out, dnsname.Compare)
	return out
}

// Validate performs basic zone sanity checks: an SOA must exist at the
// apex, NS records must exist at the apex, and every in-zone NS host below
// a cut should have glue. It returns all problems found.
func (z *Zone) Validate() []error {
	var errs []error
	if _, err := z.SOA(); err != nil {
		errs = append(errs, err)
	}
	if len(z.Lookup(z.origin, dnswire.TypeNS)) == 0 {
		errs = append(errs, fmt.Errorf("zone %q: no NS records at apex", z.origin))
	}
	for _, cut := range z.Delegations() {
		for _, rr := range z.Lookup(cut, dnswire.TypeNS) {
			ns, ok := rr.Data.(dnswire.NSData)
			if !ok {
				continue
			}
			if ns.Host.IsSubdomainOf(cut) && len(z.Lookup(ns.Host, dnswire.TypeA)) == 0 {
				errs = append(errs, fmt.Errorf("zone %q: delegation %q needs glue for %q",
					z.origin, cut, ns.Host))
			}
		}
	}
	return errs
}
