package zone

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

// refZone is the reference the frozen layout is checked against: RFC
// 1034 §4.3.2's lookup (with §4.3.3's wildcards) read off a flat record
// list by scanning it for every question. It keeps the model's three
// choices: the deepest cut at or above the name refers (RFC 1034 takes
// the highest; the data below a deeper cut is occluded there), a CNAME
// answers without being chased, and the closest ancestor that has a "*"
// child answers for a name that does not exist.
type refZone struct {
	origin dnsname.Name
	rrs    []dnswire.RR // Add order, duplicates dropped
}

func (r *refZone) add(rr dnswire.RR) {
	if !slices.ContainsFunc(r.rrs, rr.Equal) {
		r.rrs = append(r.rrs, rr)
	}
}

func (r *refZone) remove(name dnsname.Name, rtype dnswire.Type) {
	r.rrs = slices.DeleteFunc(r.rrs, func(rr dnswire.RR) bool { return rr.Name == name && rr.Type() == rtype })
}

// set is the RRset (name, rtype) in Add order.
func (r *refZone) set(name dnsname.Name, rtype dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range r.rrs {
		if rr.Name == name && rr.Type() == rtype {
			out = append(out, rr)
		}
	}
	return out
}

// exists reports whether name owns records or lies above a name that
// does (an empty non-terminal).
func (r *refZone) exists(name dnsname.Name) bool {
	return slices.ContainsFunc(r.rrs, func(rr dnswire.RR) bool { return rr.Name.IsSubdomainOf(name) })
}

// addrs is the A records of the NS hosts and MX exchanges in set.
func (r *refZone) addrs(set []dnswire.RR) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range set {
		switch d := rr.Data.(type) {
		case dnswire.NSData:
			out = append(out, r.set(d.Host, dnswire.TypeA)...)
		case dnswire.MXData:
			out = append(out, r.set(d.Exchange, dnswire.TypeA)...)
		}
	}
	return out
}

func (r *refZone) lookup(name dnsname.Name, rtype dnswire.Type) Answer {
	negative := Answer{Kind: KindNXDomain, Authority: r.set(r.origin, dnswire.TypeSOA)}
	if !name.IsSubdomainOf(r.origin) {
		return negative
	}
	for cur := name; cur != r.origin; cur = cur.Parent() {
		if ns := r.set(cur, dnswire.TypeNS); len(ns) > 0 {
			return Answer{Kind: KindReferral, Authority: ns, Additional: r.addrs(ns)}
		}
	}
	owner, synthesized := name, false
	if !r.exists(name) {
		for cur := name; cur != r.origin && !synthesized; {
			cur = cur.Parent()
			if star := cur.MustPrepend("*"); slices.ContainsFunc(r.rrs, func(rr dnswire.RR) bool { return rr.Name == star }) {
				owner, synthesized = star, true
			}
		}
		if !synthesized {
			return negative
		}
	}
	set := r.set(owner, rtype)
	if len(set) == 0 && rtype != dnswire.TypeCNAME {
		set = r.set(owner, dnswire.TypeCNAME)
	}
	switch {
	case len(set) == 0:
		negative.Kind = KindNoData
		return negative
	case synthesized:
		for i := range set {
			set[i].Name = name
		}
		return Answer{Kind: KindAnswer, Records: set}
	}
	return Answer{Kind: KindAnswer, Records: set, Additional: r.addrs(set)}
}

// fuzzName decodes b into one of a small set of names under "z.", so
// that random inputs collide into RRsets, cuts, empty non-terminals and
// wildcards: up to three labels from {a, b, *, ns}.
func fuzzName(b byte) dnsname.Name {
	name := dnsname.Name("z.")
	for i := 0; i < int(b>>6); i++ {
		name = name.MustPrepend([]string{"a", "b", "*", "ns"}[b>>(2*i)&3])
	}
	return name
}

var fuzzTypes = []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypeMX,
	dnswire.TypeTXT, dnswire.TypeSOA, dnswire.TypeAAAA}

// fuzzRR decodes a record at fuzzName(b0) of a type picked by b1, whose
// RDATA (b2) often repeats and whose name targets are in the zone or
// out of it.
func fuzzRR(b0, b1, b2 byte) dnswire.RR {
	target := fuzzName(b2)
	if b2&1 == 1 {
		target = "ns.y."
	}
	var data dnswire.RData
	switch fuzzTypes[int(b1)%len(fuzzTypes)] {
	case dnswire.TypeA:
		data = dnswire.AData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, b2 % 4})}
	case dnswire.TypeNS:
		data = dnswire.NSData{Host: target}
	case dnswire.TypeCNAME:
		data = dnswire.CNAMEData{Target: target}
	case dnswire.TypeMX:
		data = dnswire.MXData{Preference: uint16(b2 % 3), Exchange: target}
	case dnswire.TypeTXT:
		data = dnswire.TXTData{Strings: []string{fmt.Sprint(b2 % 4)}}
	case dnswire.TypeSOA:
		data = dnswire.SOAData{MName: target, RName: "h.z.", Serial: uint32(b2 % 2)}
	default:
		data = dnswire.AAAAData{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: b2 % 4})}
	}
	return dnswire.RR{Name: fuzzName(b0), Class: dnswire.ClassIN, TTL: uint32(b1 >> 4), Data: data}
}

// FuzzZoneLookup builds a small random zone both as a frozen Zone and as
// the reference, then asks both one random question: the outcome and
// every section must agree record for record, in order. Each four input
// bytes are one Add, or one Remove when the first has its low bit set.
func FuzzZoneLookup(f *testing.F) {
	f.Add([]byte{0x00, 5, 0, 0, 0x40, 1, 4, 0, 0x48, 0, 1, 0, 0x80, 0, 2, 0}, byte(0x81), byte(0))
	f.Add([]byte{0x48, 0, 3, 0, 0x42, 3, 2, 0, 0x02, 1, 0, 0}, byte(0x90), byte(1))
	f.Fuzz(func(t *testing.T, ops []byte, qname, qtype byte) {
		b, ref := NewBuilder("z."), &refZone{origin: "z."}
		for ; len(ops) >= 4; ops = ops[4:] {
			rr := fuzzRR(ops[1], ops[2], ops[3])
			if ops[0]&1 == 1 {
				b.Remove(rr.Name, rr.Type())
				ref.remove(rr.Name, rr.Type())
				continue
			}
			b.MustAdd(rr)
			ref.add(rr)
		}
		z, name := b.Freeze(), fuzzName(qname)
		if qname&0x3f == 0x3f {
			name = "a.y." // out of zone
		}
		rtype := fuzzTypes[int(qtype)%len(fuzzTypes)]
		want := ref.lookup(name, rtype)
		for _, prefix := range []int{0, 3} {
			got := z.AppendAuthoritative(make([]dnswire.RR, prefix, 8), name, rtype)
			if got.Kind != want.Kind {
				t.Fatalf("%s %s: Kind %v, reference %v", name, rtype, got.Kind, want.Kind)
			}
			sameRRs(t, "answer", got.Records, want.Records)
			sameRRs(t, "authority", got.Authority, want.Authority)
			sameRRs(t, "additional", got.Additional, want.Additional)
		}
		if z.Len() != len(ref.rrs) {
			t.Fatalf("Len %d, reference holds %d records", z.Len(), len(ref.rrs))
		}
	})
}

func sameRRs(t *testing.T, section string, got, want []dnswire.RR) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records %v, reference %d %v", section, len(got), got, len(want), want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) || got[i].TTL != want[i].TTL {
			t.Fatalf("%s[%d]: %v, reference %v", section, i, got[i], want[i])
		}
	}
}
