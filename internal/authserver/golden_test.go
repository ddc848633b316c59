package authserver

// Golden-response coverage of the serving decision table in respond():
// every RCODE branch, the section shape each row promises, and the
// behaviour-injected failure modes — including the empty-NOERROR
// (NODATA) row that looks like success but carries only a SOA.

import (
	"testing"

	"govdns/internal/dnswire"
)

func TestDecisionTableGoldens(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))

	multiQ := query("www.gov.br.", dnswire.TypeA)
	multiQ.Questions = append(multiQ.Questions, multiQ.Questions[0])
	badOpcode := query("www.gov.br.", dnswire.TypeA)
	badOpcode.Header.Opcode = 2 // STATUS
	badClass := query("www.gov.br.", dnswire.TypeA)
	badClass.Questions[0].Class = dnswire.ClassANY

	cases := []struct {
		desc    string
		query   *dnswire.Message
		rcode   dnswire.RCode
		aa      bool
		ans     int
		auth    int
		add     int
		authSOA bool // the authority section must be exactly one SOA
	}{
		{desc: "multi-question NOTIMP", query: multiQ, rcode: dnswire.RCodeNotImp},
		{desc: "non-query opcode NOTIMP", query: badOpcode, rcode: dnswire.RCodeNotImp},
		{desc: "non-IN class NOTIMP", query: badClass, rcode: dnswire.RCodeNotImp},
		{desc: "AXFR on this path REFUSED", query: query("gov.br.", dnswire.TypeAXFR),
			rcode: dnswire.RCodeRefused},
		{desc: "unhosted zone REFUSED", query: query("example.com.", dnswire.TypeA),
			rcode: dnswire.RCodeRefused},
		{desc: "referral NOERROR no-AA", query: query("www.city.gov.br.", dnswire.TypeA),
			rcode: dnswire.RCodeNoError, auth: 1, add: 1},
		{desc: "answer NOERROR AA", query: query("www.gov.br.", dnswire.TypeA),
			rcode: dnswire.RCodeNoError, aa: true, ans: 1},
		{desc: "NS answer with glue NOERROR AA", query: query("gov.br.", dnswire.TypeNS),
			rcode: dnswire.RCodeNoError, aa: true, ans: 1, add: 1},
		{desc: "empty-NOERROR (NODATA) AA+SOA", query: query("www.gov.br.", dnswire.TypeMX),
			rcode: dnswire.RCodeNoError, aa: true, auth: 1, authSOA: true},
		{desc: "NXDOMAIN AA+SOA", query: query("missing.gov.br.", dnswire.TypeA),
			rcode: dnswire.RCodeNXDomain, aa: true, auth: 1, authSOA: true},
	}
	for _, c := range cases {
		resp := handle(s, c.query)
		if resp == nil {
			t.Fatalf("%s: dropped", c.desc)
		}
		if !resp.Header.Response || resp.Header.ID != c.query.Header.ID {
			t.Errorf("%s: bad response header %+v", c.desc, resp.Header)
		}
		if resp.Header.RCode != c.rcode {
			t.Errorf("%s: RCode = %s, want %s", c.desc, resp.Header.RCode, c.rcode)
		}
		if resp.Header.Authoritative != c.aa {
			t.Errorf("%s: AA = %v, want %v", c.desc, resp.Header.Authoritative, c.aa)
		}
		if len(resp.Answers) != c.ans || len(resp.Authority) != c.auth || len(resp.Additional) != c.add {
			t.Errorf("%s: sections = %d/%d/%d, want %d/%d/%d", c.desc,
				len(resp.Answers), len(resp.Authority), len(resp.Additional),
				c.ans, c.auth, c.add)
		}
		if c.authSOA && (len(resp.Authority) != 1 || resp.Authority[0].Type() != dnswire.TypeSOA) {
			t.Errorf("%s: authority is not a single SOA: %v", c.desc, resp.Authority)
		}
	}
}

func TestBehaviorGoldens(t *testing.T) {
	cases := []struct {
		behavior Behavior
		rcode    dnswire.RCode
		dropped  bool
	}{
		{BehaviorUnresponsive, 0, true},
	}
	for _, c := range cases {
		s := New("ns1.gov.br.")
		s.AddZone(testZone(t))
		s.SetBehavior(c.behavior)
		resp := handle(s, query("www.gov.br.", dnswire.TypeA))
		if c.dropped {
			if resp != nil {
				t.Errorf("%s: got response, want drop", c.behavior)
			}
			continue
		}
		if resp == nil {
			t.Fatalf("%s: dropped, want %s", c.behavior, c.rcode)
		}
		if resp.Header.RCode != c.rcode {
			t.Errorf("%s: RCode = %s, want %s", c.behavior, resp.Header.RCode, c.rcode)
		}
		if len(resp.Answers)+len(resp.Authority)+len(resp.Additional) != 0 {
			t.Errorf("%s: non-empty sections on failure response", c.behavior)
		}
	}
}

func TestWireGoldensFormErrAndDrop(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))

	// Sub-header garbage is dropped on both transport classes.
	if out, ok := s.serveWire(nil, []byte{0xAB, 0xCD, 3}, TransportUDP); ok {
		t.Errorf("sub-header garbage answered over UDP: % x", out)
	}
	if out, ok := s.serveWire(nil, []byte{0xAB, 0xCD, 3}, TransportTCP); ok {
		t.Errorf("sub-header garbage answered over TCP: % x", out)
	}

	// Garbage with a readable header gets FORMERR echoing the ID.
	junk := make([]byte, 20)
	junk[0], junk[1] = 0xBE, 0xEF
	junk[5] = 7 // claims 7 questions, none present
	out, ok := s.serveWire(nil, junk, TransportUDP)
	if !ok {
		t.Fatal("header-bearing garbage dropped, want FORMERR")
	}
	m, err := dnswire.Decode(out)
	if err != nil {
		t.Fatalf("FORMERR response does not decode: %v", err)
	}
	if m.Header.RCode != dnswire.RCodeFormErr || m.Header.ID != 0xBEEF {
		t.Errorf("FORMERR golden: RCode=%s ID=%#x, want FORMERR/0xbeef",
			m.Header.RCode, m.Header.ID)
	}
	if len(m.Questions)+len(m.Answers)+len(m.Authority)+len(m.Additional) != 0 {
		t.Error("FORMERR response carries sections")
	}
}
