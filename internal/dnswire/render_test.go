package dnswire

import (
	"net/netip"
	"strings"
	"testing"
)

func TestRDataStringRendering(t *testing.T) {
	cases := []struct {
		data RData
		want string
	}{
		{NSData{Host: "ns1.gov.br."}, "ns1.gov.br."},
		{AData{Addr: netip.MustParseAddr("192.0.2.1")}, "192.0.2.1"},
		{AAAAData{Addr: netip.MustParseAddr("2001:db8::1")}, "2001:db8::1"},
		{CNAMEData{Target: "www.gov.br."}, "www.gov.br."},
		{PTRData{Target: "host.gov.br."}, "host.gov.br."},
		{MXData{Preference: 10, Exchange: "mx.gov.br."}, "10 mx.gov.br."},
		{TXTData{Strings: []string{"a", "b c"}}, `"a" "b c"`},
		{SOAData{MName: "ns.gov.br.", RName: "h.gov.br.", Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5},
			"ns.gov.br. h.gov.br. 1 2 3 4 5"},
		{OpaqueData{RRType: Type(99), Bytes: []byte{0xDE, 0xAD}}, `\# 2 dead`},
		{CSYNCData{Serial: 9, Flags: 3, Types: []Type{TypeNS, TypeA}}, "9 3 NS A"},
	}
	for _, tc := range cases {
		if got := tc.data.String(); got != tc.want {
			t.Errorf("%T.String() = %q, want %q", tc.data, got, tc.want)
		}
	}
}

func TestRRStringAndType(t *testing.T) {
	rr := RR{Name: "x.gov.br.", Class: ClassIN, TTL: 300, Data: AData{Addr: netip.MustParseAddr("192.0.2.1")}}
	s := rr.String()
	for _, want := range []string{"x.gov.br.", "300", "IN", "A", "192.0.2.1"} {
		if !strings.Contains(s, want) {
			t.Errorf("RR.String() = %q missing %q", s, want)
		}
	}
	var empty RR
	if empty.Type() != 0 {
		t.Errorf("nil-payload RR type = %v", empty.Type())
	}
}

func TestRREqualSemantics(t *testing.T) {
	a := RR{Name: "x.gov.br.", Class: ClassIN, TTL: 300, Data: AData{Addr: netip.MustParseAddr("192.0.2.1")}}
	b := a
	b.TTL = 999 // TTL is not part of RRset identity
	if !a.Equal(b) {
		t.Error("TTL change broke Equal")
	}
	c := a
	c.Data = AData{Addr: netip.MustParseAddr("192.0.2.2")}
	if a.Equal(c) {
		t.Error("different RDATA compared equal")
	}
	d := a
	d.Data = NSData{Host: "ns.gov.br."}
	if a.Equal(d) {
		t.Error("different type compared equal")
	}
	var nilData RR
	nilData.Name = a.Name
	nilData.Class = a.Class
	if a.Equal(nilData) {
		t.Error("nil payload compared equal to non-nil")
	}
}

func TestMessageHelpers(t *testing.T) {
	q := NewQuery(5, "x.gov.br.", TypeNS)
	if got := q.Question(); got.Name != "x.gov.br." || got.Type != TypeNS {
		t.Errorf("Question = %v", got)
	}
	var empty Message
	if got := empty.Question(); got != (Question{}) {
		t.Errorf("empty Question = %v", got)
	}

	resp := NewResponse(q)
	resp.Answers = []RR{
		{Name: "x.gov.br.", Class: ClassIN, Data: NSData{Host: "ns1.x.gov.br."}},
		{Name: "x.gov.br.", Class: ClassIN, Data: TXTData{Strings: []string{"note"}}},
	}
	resp.Additional = []RR{
		{Name: "ns1.x.gov.br.", Class: ClassIN, Data: AData{Addr: netip.MustParseAddr("192.0.2.1")}},
	}
	a := NewPool().Get()
	defer a.Finish()
	if got := len(a.OfType(resp.Answers, TypeNS)); got != 1 {
		t.Errorf("answer NS records = %d", got)
	}
	if got := len(a.OfType(resp.Additional, TypeA)); got != 1 {
		t.Errorf("additional A records = %d", got)
	}
	if got := len(a.OfType(resp.Authority, TypeNS)); got != 0 {
		t.Errorf("authority NS records = %d", got)
	}

	// String renders all sections.
	s := resp.String()
	for _, want := range []string{"response", "question", "answer", "additional"} {
		if !strings.Contains(s, want) {
			t.Errorf("Message.String() missing %q:\n%s", want, s)
		}
	}
}

func TestClassAndRCodeStrings(t *testing.T) {
	if ClassIN.String() != "IN" || ClassANY.String() != "ANY" || Class(3).String() != "CLASS3" {
		t.Error("Class mnemonics wrong")
	}
	for rc, want := range map[RCode]string{
		RCodeNoError: "NOERROR", RCodeFormErr: "FORMERR", RCodeServFail: "SERVFAIL",
		RCodeNXDomain: "NXDOMAIN", RCodeNotImp: "NOTIMP", RCodeRefused: "REFUSED",
		RCode(15): "RCODE15",
	} {
		if rc.String() != want {
			t.Errorf("RCode(%d).String() = %q, want %q", rc, rc.String(), want)
		}
	}
	if Type(4242).String() != "TYPE4242" {
		t.Errorf("unknown type mnemonic = %q", Type(4242).String())
	}
}
