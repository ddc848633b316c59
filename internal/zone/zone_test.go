package zone

import (
	"fmt"
	"net/netip"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

func a(addr string) dnswire.AData {
	return dnswire.AData{Addr: netip.MustParseAddr(addr)}
}

// buildParentZone starts a gov.br-style parent zone with one working
// delegation (child "city") including glue, and apex records.
func buildParentZone(t *testing.T) *Builder {
	t.Helper()
	z := NewBuilder("gov.br.")
	records := []dnswire.RR{
		{Name: "gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOAData{
			MName: "ns1.gov.br.", RName: "hostmaster.gov.br.", Serial: 1,
			Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
		{Name: "gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NSData{Host: "ns1.gov.br."}},
		{Name: "gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NSData{Host: "ns2.gov.br."}},
		{Name: "ns1.gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: a("198.51.100.1")},
		{Name: "ns2.gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: a("198.51.100.2")},
		{Name: "city.gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NSData{Host: "ns1.city.gov.br."}},
		{Name: "city.gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NSData{Host: "ns2.city.gov.br."}},
		{Name: "ns1.city.gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: a("203.0.113.1")},
		{Name: "ns2.city.gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: a("203.0.113.2")},
		{Name: "www.gov.br.", Class: dnswire.ClassIN, TTL: 300, Data: a("192.0.2.80")},
	}
	for _, rr := range records {
		if err := z.Add(rr); err != nil {
			t.Fatalf("Add(%v): %v", rr, err)
		}
	}
	return z
}

func TestAddRejectsOutOfZone(t *testing.T) {
	z := NewBuilder("gov.br.")
	err := z.Add(dnswire.RR{Name: "gov.cn.", Class: dnswire.ClassIN, Data: a("192.0.2.1")})
	if err == nil {
		t.Fatal("Add accepted an out-of-zone record")
	}
}

func TestAddDeduplicates(t *testing.T) {
	b := NewBuilder("gov.br.")
	rr := dnswire.RR{Name: "www.gov.br.", Class: dnswire.ClassIN, TTL: 60, Data: a("192.0.2.1")}
	if err := b.Add(rr); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(rr); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Freeze().Lookup("www.gov.br.", dnswire.TypeA)); got != 1 {
		t.Errorf("duplicate Add produced %d records", got)
	}
}

func TestAuthoritativeAnswer(t *testing.T) {
	z := buildParentZone(t).Freeze()
	ans := z.Authoritative("www.gov.br.", dnswire.TypeA)
	if ans.Kind != KindAnswer {
		t.Fatalf("Kind = %v, want KindAnswer", ans.Kind)
	}
	if len(ans.Records) != 1 {
		t.Fatalf("got %d answers", len(ans.Records))
	}
}

func TestAuthoritativeApexNS(t *testing.T) {
	z := buildParentZone(t).Freeze()
	ans := z.Authoritative("gov.br.", dnswire.TypeNS)
	if ans.Kind != KindAnswer {
		t.Fatalf("Kind = %v, want KindAnswer", ans.Kind)
	}
	if len(ans.Records) != 2 {
		t.Errorf("apex NS count = %d, want 2", len(ans.Records))
	}
	if len(ans.Additional) != 2 {
		t.Errorf("additional glue count = %d, want 2", len(ans.Additional))
	}
}

func TestAuthoritativeReferral(t *testing.T) {
	z := buildParentZone(t).Freeze()
	for _, qname := range []dnsname.Name{"city.gov.br.", "www.city.gov.br.", "deep.a.city.gov.br."} {
		ans := z.Authoritative(qname, dnswire.TypeNS)
		if ans.Kind != KindReferral {
			t.Errorf("Authoritative(%q): Kind = %v, want KindReferral", qname, ans.Kind)
			continue
		}
		if len(ans.Authority) != 2 {
			t.Errorf("Authoritative(%q): %d NS in authority, want 2", qname, len(ans.Authority))
		}
		if len(ans.Additional) != 2 {
			t.Errorf("Authoritative(%q): %d glue records, want 2", qname, len(ans.Additional))
		}
	}
}

func TestAuthoritativeNXDomain(t *testing.T) {
	z := buildParentZone(t).Freeze()
	ans := z.Authoritative("missing.gov.br.", dnswire.TypeA)
	if ans.Kind != KindNXDomain {
		t.Fatalf("Kind = %v, want KindNXDomain", ans.Kind)
	}
	if len(ans.Authority) != 1 || ans.Authority[0].Type() != dnswire.TypeSOA {
		t.Error("NXDOMAIN must carry the SOA in authority")
	}
}

func TestAuthoritativeNoData(t *testing.T) {
	z := buildParentZone(t).Freeze()
	ans := z.Authoritative("www.gov.br.", dnswire.TypeTXT)
	if ans.Kind != KindNoData {
		t.Fatalf("Kind = %v, want KindNoData", ans.Kind)
	}
}

func TestAuthoritativeEmptyNonTerminal(t *testing.T) {
	b := NewBuilder("gov.br.")
	b.MustAdd(dnswire.RR{Name: "gov.br.", Class: dnswire.ClassIN, Data: dnswire.SOAData{MName: "ns.gov.br.", RName: "h.gov.br."}})
	b.MustAdd(dnswire.RR{Name: "a.b.gov.br.", Class: dnswire.ClassIN, Data: a("192.0.2.9")})
	// "b.gov.br." has no records but has children: NODATA, not NXDOMAIN.
	ans := b.Freeze().Authoritative("b.gov.br.", dnswire.TypeA)
	if ans.Kind != KindNoData {
		t.Fatalf("empty non-terminal: Kind = %v, want KindNoData", ans.Kind)
	}
}

func TestAuthoritativeCNAME(t *testing.T) {
	b := buildParentZone(t)
	b.MustAdd(dnswire.RR{Name: "portal.gov.br.", Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.CNAMEData{Target: "www.gov.br."}})
	ans := b.Freeze().Authoritative("portal.gov.br.", dnswire.TypeA)
	if ans.Kind != KindAnswer {
		t.Fatalf("Kind = %v, want KindAnswer (CNAME)", ans.Kind)
	}
	if ans.Records[0].Type() != dnswire.TypeCNAME {
		t.Errorf("answer type = %v, want CNAME", ans.Records[0].Type())
	}
}

func TestAuthoritativeOutOfZone(t *testing.T) {
	z := buildParentZone(t).Freeze()
	ans := z.Authoritative("gov.cn.", dnswire.TypeNS)
	if ans.Kind != KindNXDomain {
		t.Fatalf("out-of-zone lookup Kind = %v, want KindNXDomain", ans.Kind)
	}
}

func TestRemove(t *testing.T) {
	b := buildParentZone(t)
	if n := b.Remove("city.gov.br.", dnswire.TypeNS); n != 2 {
		t.Fatalf("Remove = %d, want 2", n)
	}
	ans := b.Freeze().Authoritative("city.gov.br.", dnswire.TypeNS)
	if ans.Kind == KindReferral {
		t.Error("delegation survived Remove")
	}
	if n := b.Remove("nonexistent.gov.br.", dnswire.TypeA); n != 0 {
		t.Errorf("Remove(nonexistent) = %d, want 0", n)
	}
}

// TestRemoveDropsEmptyNonTerminals: once every record under a name is
// removed, the name and the empty non-terminals above it stop existing,
// so they answer NXDOMAIN rather than NODATA.
func TestRemoveDropsEmptyNonTerminals(t *testing.T) {
	b := buildParentZone(t)
	b.MustAdd(dnswire.RR{Name: "x.dead.gov.br.", Class: dnswire.ClassIN, TTL: 60, Data: a("192.0.2.7")})
	if ans := b.Freeze().Authoritative("dead.gov.br.", dnswire.TypeA); ans.Kind != KindNoData {
		t.Fatalf("before Remove: Kind = %v, want KindNoData", ans.Kind)
	}
	b.Remove("x.dead.gov.br.", dnswire.TypeA)
	z := b.Freeze()
	for _, name := range []dnsname.Name{"dead.gov.br.", "x.dead.gov.br."} {
		if ans := z.Authoritative(name, dnswire.TypeA); ans.Kind != KindNXDomain {
			t.Errorf("after Remove: %s Kind = %v, want KindNXDomain", name, ans.Kind)
		}
	}
}

// TestEditLeavesZoneUnchanged: a builder taken from a frozen zone edits
// a copy; the zone it came from answers as before.
func TestEditLeavesZoneUnchanged(t *testing.T) {
	z := buildParentZone(t).Freeze()
	b := z.Builder()
	b.Remove("city.gov.br.", dnswire.TypeNS)
	b.MustAdd(dnswire.RR{Name: "gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NSData{Host: "ns3.gov.br."}})
	edited := b.Freeze()
	if got := z.Authoritative("city.gov.br.", dnswire.TypeNS).Kind; got != KindReferral {
		t.Errorf("original lost its delegation: Kind = %v", got)
	}
	// city's glue stays, so the name is now an empty non-terminal.
	if got := edited.Authoritative("city.gov.br.", dnswire.TypeNS).Kind; got != KindNoData {
		t.Errorf("edited copy: city Kind = %v, want KindNoData", got)
	}
	ns := edited.Lookup("gov.br.", dnswire.TypeNS)
	if len(ns) != 3 || ns[2].Data.(dnswire.NSData).Host != "ns3.gov.br." {
		t.Errorf("edited apex NS = %v, want the added record last", ns)
	}
	if len(z.Lookup("gov.br.", dnswire.TypeNS)) != 2 {
		t.Error("original gained the edit's NS record")
	}
}

func TestValidate(t *testing.T) {
	b := buildParentZone(t)
	if errs := b.Freeze().Validate(); len(errs) != 0 {
		t.Fatalf("valid zone reported errors: %v", errs)
	}
	// Remove glue: validation must flag the in-zone NS host without an A.
	b.Remove("ns1.city.gov.br.", dnswire.TypeA)
	if errs := b.Freeze().Validate(); len(errs) == 0 {
		t.Error("Validate missed missing glue")
	}
	empty := NewBuilder("gov.xx.").Freeze()
	if errs := empty.Validate(); len(errs) < 2 {
		t.Errorf("empty zone: %d errors, want >=2 (no SOA, no NS)", len(errs))
	}
}

func TestRecordsDeterministicOrder(t *testing.T) {
	z1 := buildParentZone(t).Freeze()
	z2 := buildParentZone(t).Freeze()
	r1, r2 := z1.Records(), z2.Records()
	if len(r1) != len(r2) || len(r1) != z1.Len() {
		t.Fatalf("record counts differ: %d, %d, Len=%d", len(r1), len(r2), z1.Len())
	}
	for i := range r1 {
		if !r1[i].Equal(r2[i]) {
			t.Fatalf("order differs at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestDelegations(t *testing.T) {
	z := buildParentZone(t).Freeze()
	cuts := z.Delegations()
	if len(cuts) != 1 || cuts[0] != "city.gov.br." {
		t.Errorf("Delegations = %v, want [city.gov.br.]", cuts)
	}
}

func TestWildcardSynthesis(t *testing.T) {
	b := NewBuilder("gov.br.")
	b.MustAdd(dnswire.RR{Name: "gov.br.", Class: dnswire.ClassIN, Data: dnswire.SOAData{
		MName: "ns1.gov.br.", RName: "h.gov.br."}})
	b.MustAdd(dnswire.RR{Name: "*.apps.gov.br.", Class: dnswire.ClassIN, TTL: 300,
		Data: a("192.0.2.50")})
	b.MustAdd(dnswire.RR{Name: "real.apps.gov.br.", Class: dnswire.ClassIN, TTL: 300,
		Data: a("192.0.2.51")})
	z := b.Freeze()

	// Synthesized answer with the query name as owner.
	ans := z.Authoritative("anything.apps.gov.br.", dnswire.TypeA)
	if ans.Kind != KindAnswer {
		t.Fatalf("Kind = %v, want KindAnswer", ans.Kind)
	}
	if ans.Records[0].Name != "anything.apps.gov.br." {
		t.Errorf("owner = %s, want the query name", ans.Records[0].Name)
	}
	if ans.Records[0].Data.(dnswire.AData).Addr != netip.MustParseAddr("192.0.2.50") {
		t.Errorf("address = %v", ans.Records[0].Data)
	}

	// Existing names win over the wildcard.
	ans = z.Authoritative("real.apps.gov.br.", dnswire.TypeA)
	if ans.Records[0].Data.(dnswire.AData).Addr != netip.MustParseAddr("192.0.2.51") {
		t.Errorf("existing name shadowed by wildcard: %v", ans.Records[0])
	}

	// A wildcard without the queried type yields NODATA.
	ans = z.Authoritative("anything.apps.gov.br.", dnswire.TypeTXT)
	if ans.Kind != KindNoData {
		t.Errorf("Kind = %v, want KindNoData", ans.Kind)
	}

	// Names outside the wildcard's branch still get NXDOMAIN.
	ans = z.Authoritative("missing.other.gov.br.", dnswire.TypeA)
	if ans.Kind != KindNXDomain {
		t.Errorf("Kind = %v, want KindNXDomain", ans.Kind)
	}
}

func TestWildcardDeepMatch(t *testing.T) {
	b := NewBuilder("gov.br.")
	b.MustAdd(dnswire.RR{Name: "gov.br.", Class: dnswire.ClassIN, Data: dnswire.SOAData{
		MName: "ns1.gov.br.", RName: "h.gov.br."}})
	b.MustAdd(dnswire.RR{Name: "*.gov.br.", Class: dnswire.ClassIN, TTL: 300,
		Data: a("192.0.2.60")})
	// A multi-label miss under the apex matches *.gov.br per RFC 1034.
	ans := b.Freeze().Authoritative("a.b.c.gov.br.", dnswire.TypeA)
	if ans.Kind != KindAnswer {
		t.Fatalf("Kind = %v, want KindAnswer via wildcard", ans.Kind)
	}
	if ans.Records[0].Name != "a.b.c.gov.br." {
		t.Errorf("owner = %s", ans.Records[0].Name)
	}
}

// TestAppendAuthoritativeAllocatesNothing: with room in dst, every kind
// of answer is built without an allocation — names longer than 32 bytes
// included, which a name concatenation would put on the heap.
func TestAppendAuthoritativeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	b := buildParentZone(t)
	b.MustAdd(dnswire.RR{Name: "*.apps.gov.br.", Class: dnswire.ClassIN, TTL: 300, Data: a("192.0.2.50")})
	z := b.Freeze()
	dst := make([]dnswire.RR, 0, 16)
	for _, tc := range []struct {
		name  dnsname.Name
		rtype dnswire.Type
		kind  AnswerKind
	}{
		{"gov.br.", dnswire.TypeNS, KindAnswer},
		{"a-rather-long-host-label.www.city.gov.br.", dnswire.TypeA, KindReferral},
		{"www.gov.br.", dnswire.TypeTXT, KindNoData},
		{"www.dead.gov.br.", dnswire.TypeA, KindNXDomain},
		{"a-rather-long-host-label.dead.gov.br.", dnswire.TypeA, KindNXDomain},
		{"a-rather-long-host-label.apps.gov.br.", dnswire.TypeA, KindAnswer},
	} {
		var ans Answer
		allocs := testing.AllocsPerRun(100, func() { ans = z.AppendAuthoritative(dst[:0], tc.name, tc.rtype) })
		if ans.Kind != tc.kind {
			t.Errorf("%s %s: Kind = %v, want %v", tc.name, tc.rtype, ans.Kind, tc.kind)
		}
		if allocs != 0 {
			t.Errorf("%s %s: %v allocations per lookup, want 0", tc.name, tc.rtype, allocs)
		}
	}
}

// TestFreezeAllocationsFixed: Freeze lays out a zone of any size in the
// same four allocations: header, records, nodes and index.
func TestFreezeAllocationsFixed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, n := range []int{0, 1, 10, 1000} {
		b := buildParentZone(t)
		for i := range n {
			host := dnsname.MustParse(fmt.Sprintf("ns%d.d%d.sub.gov.br", i%2, i))
			b.MustAdd(dnswire.RR{Name: host.Parent(), Class: dnswire.ClassIN, TTL: 60, Data: dnswire.NSData{Host: host}})
			b.MustAdd(dnswire.RR{Name: host, Class: dnswire.ClassIN, TTL: 60, Data: a("192.0.2.1")})
		}
		if allocs := testing.AllocsPerRun(10, func() { b.Freeze() }); allocs != 4 {
			t.Errorf("%d delegations: Freeze makes %v allocations, want 4", n, allocs)
		}
	}
}
