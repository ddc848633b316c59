package authserver

import (
	"net/netip"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/zone"
)

func testZone(t testing.TB) *zone.Zone {
	t.Helper()
	return testZoneBuilder(t).Freeze()
}

// testZoneBuilder holds testZone's records, for fixtures that add more.
func testZoneBuilder(t testing.TB) *zone.Builder {
	t.Helper()
	z := zone.NewBuilder("gov.br.")
	records := []dnswire.RR{
		{Name: "gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOAData{
			MName: "ns1.gov.br.", RName: "hostmaster.gov.br.", Serial: 1}},
		{Name: "gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NSData{Host: "ns1.gov.br."}},
		{Name: "ns1.gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.AData{Addr: netip.MustParseAddr("198.51.100.1")}},
		{Name: "city.gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NSData{Host: "ns1.city.gov.br."}},
		{Name: "ns1.city.gov.br.", Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.AData{Addr: netip.MustParseAddr("203.0.113.1")}},
		{Name: "www.gov.br.", Class: dnswire.ClassIN, TTL: 300, Data: dnswire.AData{Addr: netip.MustParseAddr("192.0.2.80")}},
	}
	for _, rr := range records {
		z.MustAdd(rr)
	}
	return z
}

func query(name dnsname.Name, qtype dnswire.Type) *dnswire.Message {
	return dnswire.NewQuery(42, name, qtype)
}

// handle answers a decoded query on the heap, nil when s drops it.
func handle(s *Server, query *dnswire.Message) *dnswire.Message {
	return s.respond(query, dnswire.NewResponse(query), nil)
}

func TestHandleAuthoritativeAnswer(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	resp := handle(s, query("www.gov.br.", dnswire.TypeA))
	if resp == nil {
		t.Fatal("nil response")
	}
	if !resp.Header.Authoritative {
		t.Error("AA bit clear on authoritative answer")
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %d, want 1", len(resp.Answers))
	}
}

func TestHandleReferral(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	resp := handle(s, query("city.gov.br.", dnswire.TypeNS))
	if resp.Header.Authoritative {
		t.Error("AA bit set on referral")
	}
	if !resp.IsReferral() {
		t.Fatalf("expected referral, got %s", resp)
	}
	if len(resp.Additional) != 1 {
		t.Errorf("glue records = %d, want 1", len(resp.Additional))
	}
}

func TestHandleDeepestZoneWins(t *testing.T) {
	// A server hosting both parent and child answers child queries
	// authoritatively from the child zone (no referral).
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	child := zone.NewBuilder("city.gov.br.")
	child.MustAdd(dnswire.RR{Name: "city.gov.br.", Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.SOAData{MName: "ns1.city.gov.br.", RName: "h.city.gov.br."}})
	child.MustAdd(dnswire.RR{Name: "city.gov.br.", Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NSData{Host: "ns1.city.gov.br."}})
	s.AddZone(child.Freeze())

	resp := handle(s, query("city.gov.br.", dnswire.TypeNS))
	if !resp.Header.Authoritative {
		t.Error("expected authoritative answer from child zone")
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %d, want 1", len(resp.Answers))
	}
}

func TestHandleRefusedForUnknownZone(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	resp := handle(s, query("example.com.", dnswire.TypeA))
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("RCode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestHandleNXDomain(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	resp := handle(s, query("missing.gov.br.", dnswire.TypeA))
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("RCode = %v, want NXDOMAIN", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type() != dnswire.TypeSOA {
		t.Error("NXDOMAIN lacks SOA in authority")
	}
}

func TestBehaviors(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	q := query("www.gov.br.", dnswire.TypeA)

	s.SetBehavior(BehaviorUnresponsive)
	if resp := handle(s, q); resp != nil {
		t.Error("unresponsive server answered")
	}
	if got := s.Behavior(); got != BehaviorUnresponsive {
		t.Errorf("Behavior() = %v", got)
	}
}

func TestParkingBehavior(t *testing.T) {
	s := New("park.example.com.")
	s.SetBehavior(BehaviorParking)
	s.SetParkingTarget(netip.MustParseAddr("203.0.113.99"))

	resp := handle(s, query("hijacked.gov.xx.", dnswire.TypeA))
	if !resp.Header.Authoritative || len(resp.Answers) != 1 {
		t.Fatalf("parking A response: %s", resp)
	}
	if a := resp.Answers[0].Data.(dnswire.AData); a.Addr != netip.MustParseAddr("203.0.113.99") {
		t.Errorf("parking target = %v", a.Addr)
	}
	resp = handle(s, query("hijacked.gov.xx.", dnswire.TypeNS))
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(dnswire.NSData).Host != "park.example.com." {
		t.Errorf("parking NS response: %s", resp)
	}
}

func TestHandleWireRoundTrip(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	wire, err := dnswire.Encode(query("www.gov.br.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	respWire := s.HandleWire(wire)
	if respWire == nil {
		t.Fatal("HandleWire returned nil")
	}
	resp, err := dnswire.Decode(respWire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if resp.Header.ID != 42 || len(resp.Answers) != 1 {
		t.Errorf("response: %s", resp)
	}
}

func TestHandleWireGarbage(t *testing.T) {
	s := New("ns1.gov.br.")
	// Shorter than a header: dropped.
	if resp := s.HandleWire([]byte{1, 2, 3}); resp != nil {
		t.Error("tiny garbage got a response")
	}
	// Full header but broken body: FORMERR with the same ID.
	junk := make([]byte, 14)
	junk[0], junk[1] = 0xAB, 0xCD
	junk[5] = 1     // one question
	junk[12] = 0xC0 // bad pointer
	junk[13] = 0xFF
	respWire := s.HandleWire(junk)
	if respWire == nil {
		t.Fatal("header-complete garbage should get FORMERR")
	}
	resp, err := dnswire.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormErr || resp.Header.ID != 0xABCD {
		t.Errorf("got %s", resp)
	}
}

func TestHandleRejectsWeirdQueries(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	chaos := query("www.gov.br.", dnswire.TypeA)
	chaos.Questions[0].Class = dnswire.Class(3)
	if resp := handle(s, chaos); resp.Header.RCode != dnswire.RCodeNotImp {
		t.Errorf("CH class: RCode = %v, want NOTIMP", resp.Header.RCode)
	}
	twoQ := query("www.gov.br.", dnswire.TypeA)
	twoQ.Questions = append(twoQ.Questions, twoQ.Questions[0])
	if resp := handle(s, twoQ); resp.Header.RCode != dnswire.RCodeNotImp {
		t.Errorf("two questions: RCode = %v, want NOTIMP", resp.Header.RCode)
	}
}
