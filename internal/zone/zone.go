// Package zone implements the DNS zone data model: RRset storage with
// authoritative lookup semantics (answers, referrals with glue, NXDOMAIN,
// NODATA), plus a master-file parser and serialiser.
// A Builder collects a zone's records and Freeze makes them an immutable
// Zone that readers share without a lock: a served zone is never edited,
// only replaced by a newly frozen one.
package zone

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

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

// Builder collects the records of one zone. It is not safe for
// concurrent use.
type Builder struct {
	origin dnsname.Name
	rrs    []dnswire.RR // in Add order until Freeze sorts them
}

// NewBuilder starts an empty zone rooted at origin.
func NewBuilder(origin dnsname.Name) *Builder { return &Builder{origin: origin} }

// Origin returns the zone apex name.
func (b *Builder) Origin() dnsname.Name { return b.origin }

// Add inserts rr into the zone. Duplicate records (same name/type/RDATA)
// are ignored: the first one added stays. Records outside the zone are
// rejected.
func (b *Builder) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(b.origin) {
		return fmt.Errorf("%w: %q not under %q", ErrOutOfZone, rr.Name, b.origin)
	}
	if rr.Data == nil {
		return fmt.Errorf("zone: record %q has nil RDATA", rr.Name)
	}
	b.rrs = append(b.rrs, rr)
	return nil
}

// MustAdd is Add that panics on error; for use by generators with
// known-good data.
func (b *Builder) MustAdd(rr dnswire.RR) {
	if err := b.Add(rr); err != nil {
		panic(err)
	}
}

// Remove deletes all records matching name and type. It reports how many
// records it removed, counting each duplicate Add.
func (b *Builder) Remove(name dnsname.Name, rtype dnswire.Type) int {
	n := len(b.rrs)
	b.rrs = slices.DeleteFunc(b.rrs, func(rr dnswire.RR) bool { return rr.Name == name && rr.Type() == rtype })
	return n - len(b.rrs)
}

// Freeze lays the records out as an immutable Zone: one exact-size array
// sorted by canonical owner and type (an RRset keeps Add order, its wire
// order), a node per owner and empty non-terminal, and a hashed index of
// the nodes, in four allocations whatever the size (three when empty).
func (b *Builder) Freeze() *Zone {
	slices.SortStableFunc(b.rrs, compareOwnerType)
	b.rrs = dedupe(b.rrs)
	z := &Zone{origin: b.origin, rrs: slices.Clone(b.rrs)}
	n := 0
	z.walk(func(dnsname.Name, int) { n++ })
	z.nodes = make([]node, 0, n)
	z.walk(func(name dnsname.Name, start int) { z.nodes = append(z.nodes, node{name: name, start: uint32(start)}) })

	slots := 2
	for slots < 2*n {
		slots <<= 1
	}
	z.index = make([]uint32, slots)
	for i := range z.nodes {
		nd := &z.nodes[i]
		j := maphash.String(seed, string(nd.name)) & uint64(slots-1)
		for z.index[j] != 0 {
			j = (j + 1) & uint64(slots-1)
		}
		z.index[j] = uint32(i + 1)
		if nd.name != z.origin && len(z.set(i, dnswire.TypeNS)) > 0 {
			nd.flags |= flagCut
		}
		// A "*" that owns records is a wildcard. "*" sorts before every
		// other label, so it directly follows the name it stands below.
		if strings.HasPrefix(string(nd.name), "*.") && z.rrs[nd.start].Name == nd.name {
			z.nodes[i-1].flags |= flagWildcard
		}
	}
	return z
}

// walk calls f on every name in z, canonical order, with the index of its
// first record: each owner after the empty non-terminals above it that no
// earlier owner brought in. A subtree follows its root contiguously in
// that order, so an ancestor is new when the owner before is not under it.
func (z *Zone) walk(f func(name dnsname.Name, start int)) {
	var prev dnsname.Name
	for i, rr := range z.rrs {
		if rr.Name == prev {
			continue
		}
		fresh := 0
		for cur := rr.Name; cur != z.origin; fresh++ {
			if cur = cur.Parent(); prev != "" && prev.IsSubdomainOf(cur) {
				break
			}
		}
		for level := rr.Name.Level() - fresh; level < rr.Name.Level(); level++ {
			ent, _ := rr.Name.AncestorAtLevel(level)
			f(ent, i)
		}
		f(rr.Name, i)
		prev = rr.Name
	}
}

// compareOwnerType orders records by canonical owner, then type.
func compareOwnerType(a, b dnswire.RR) int {
	if a.Name != b.Name {
		return dnsname.Compare(a.Name, b.Name)
	}
	return int(a.Type()) - int(b.Type())
}

// dedupe drops, in place, every record Equal to an earlier one in its
// RRset from rrs sorted by owner and type.
func dedupe(rrs []dnswire.RR) []dnswire.RR {
	out, set := 0, 0
	for _, rr := range rrs {
		if out > 0 && compareOwnerType(rrs[out-1], rr) != 0 {
			set = out
		}
		if !slices.ContainsFunc(rrs[set:out], rr.Equal) {
			rrs[out] = rr
			out++
		}
	}
	clear(rrs[out:])
	return rrs[:out]
}

// Zone holds the authoritative data for one DNS zone. It never changes
// once Freeze returns it, so any number of goroutines may read it.
type Zone struct {
	origin dnsname.Name
	rrs    []dnswire.RR // by canonical owner, then type; an RRset in Add order
	nodes  []node       // every name that exists, in canonical order
	index  []uint32     // open-addressed by name hash: node index + 1, 0 empty
}

// node is a name that exists in the zone: an owner of records, or an
// empty non-terminal, whose run is empty.
type node struct {
	name  dnsname.Name
	start uint32 // its records run from here to the next node's start
	flags uint8
}

const (
	flagCut      = 1 << iota // NS records below the apex: a zone cut
	flagWildcard             // the next node is "*" directly below
)

// seed keys every zone's index; an index lives in one process.
var seed = maphash.MakeSeed()

// find returns the index of name's node.
func (z *Zone) find(name dnsname.Name) (int, bool) {
	mask := uint64(len(z.index) - 1)
	for j := maphash.String(seed, string(name)) & mask; z.index[j] != 0; j = (j + 1) & mask {
		if i := int(z.index[j] - 1); z.nodes[i].name == name {
			return i, true
		}
	}
	return 0, false
}

// set returns node i's RRset of type rtype.
func (z *Zone) set(i int, rtype dnswire.Type) []dnswire.RR {
	j, end := int(z.nodes[i].start), len(z.rrs)
	if i+1 < len(z.nodes) {
		end = int(z.nodes[i+1].start)
	}
	for j < end && z.rrs[j].Type() != rtype {
		j++
	}
	k := j
	for k < end && z.rrs[k].Type() == rtype {
		k++
	}
	return z.rrs[j:k]
}

// Origin returns the zone apex name.
func (z *Zone) Origin() dnsname.Name { return z.origin }

// Builder returns a builder holding z's records in z's stored order, to
// build an edited copy from; z itself never changes.
func (z *Zone) Builder() *Builder {
	return &Builder{origin: z.origin, rrs: slices.Clone(z.rrs)}
}

// Lookup returns a copy of the RRset for (name, rtype), or nil.
func (z *Zone) Lookup(name dnsname.Name, rtype dnswire.Type) []dnswire.RR {
	return z.appendSet(nil, name, rtype)
}

// appendSet appends the RRset for (name, rtype) to dst. Every record a
// lookup hands out is a copy the caller may modify.
func (z *Zone) appendSet(dst []dnswire.RR, name dnsname.Name, rtype dnswire.Type) []dnswire.RR {
	if i, ok := z.find(name); ok {
		return append(dst, z.set(i, rtype)...)
	}
	return dst
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
// append to one reallocates rather than overwrite the next. It allocates
// nothing when dst has room.
func (z *Zone) AppendAuthoritative(dst []dnswire.RR, name dnsname.Name, rtype dnswire.Type) Answer {
	from := len(dst)
	negative := KindNXDomain
	if name.IsSubdomainOf(z.origin) {
		// At or below a zone cut: referral to the deepest cut, even for
		// an NS query at the cut itself (the parent is not authoritative
		// for the child apex). The walk also finds name's own node.
		at, exists := 0, len(z.nodes) > 0 // the apex is the first node
		for cur := name; cur != z.origin; cur = cur.Parent() {
			i, ok := z.find(cur)
			if cur == name {
				at, exists = i, ok
			}
			if ok && z.nodes[i].flags&flagCut != 0 {
				buf := append(dst, z.set(i, dnswire.TypeNS)...)
				nsSet := since(buf, from)
				buf = z.appendAddrs(buf, nsSet)
				return Answer{Kind: KindReferral, Authority: nsSet, Additional: since(buf, from+len(nsSet))}
			}
		}
		// RFC 1034 §4.3.3: a name that does not exist is answered from
		// the wildcard below its closest ancestor that has one.
		synthesized := false
		for cur := name; !exists && cur != z.origin; {
			cur = cur.Parent()
			if i, ok := z.find(cur); ok && z.nodes[i].flags&flagWildcard != 0 {
				at, exists, synthesized = i+1, true, true
			}
		}
		if exists {
			set := z.set(at, rtype)
			if len(set) == 0 && rtype != dnswire.TypeCNAME {
				set = z.set(at, dnswire.TypeCNAME) // CNAME redirection at the owner
			}
			if len(set) > 0 {
				buf := append(dst, set...)
				set = since(buf, from)
				if synthesized {
					for i := range set {
						set[i].Name = name
					}
				} else {
					buf = z.appendAddrs(buf, set)
				}
				return Answer{Kind: KindAnswer, Records: set, Additional: since(buf, from+len(set))}
			}
			negative = KindNoData // an owner without the type, or an empty non-terminal
		}
	}
	return Answer{Kind: negative, Authority: since(z.appendSet(dst, z.origin, dnswire.TypeSOA), from)}
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
	out := slices.Clone(z.rrs)
	slices.SortStableFunc(out, func(a, b dnswire.RR) int {
		if c := compareOwnerType(a, b); c != 0 {
			return c
		}
		return strings.Compare(a.Data.String(), b.Data.String())
	})
	return out
}

// Len returns the total number of records in the zone.
func (z *Zone) Len() int { return len(z.rrs) }

// Delegations returns the zone's cut points in canonical order.
func (z *Zone) Delegations() []dnsname.Name {
	var out []dnsname.Name
	for _, n := range z.nodes {
		if n.flags&flagCut != 0 {
			out = append(out, n.name)
		}
	}
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
