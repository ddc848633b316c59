package dnswire

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"govdns/internal/dnsname"
)

func sampleMessage() *Message {
	m := NewQuery(0x1234, dnsname.MustParse("city.gov.br"), TypeNS)
	resp := NewResponse(m)
	resp.Header.Authoritative = true
	resp.Answers = []RR{
		{Name: "city.gov.br.", Class: ClassIN, TTL: 3600, Data: NSData{Host: "ns1.city.gov.br."}},
		{Name: "city.gov.br.", Class: ClassIN, TTL: 3600, Data: NSData{Host: "ns2.city.gov.br."}},
	}
	resp.Authority = []RR{
		{Name: "city.gov.br.", Class: ClassIN, TTL: 900, Data: SOAData{
			MName: "ns1.city.gov.br.", RName: "hostmaster.city.gov.br.",
			Serial: 2021040100, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 900,
		}},
	}
	resp.Additional = []RR{
		{Name: "ns1.city.gov.br.", Class: ClassIN, TTL: 3600, Data: AData{Addr: netip.MustParseAddr("203.0.113.5")}},
		{Name: "ns2.city.gov.br.", Class: ClassIN, TTL: 3600, Data: AData{Addr: netip.MustParseAddr("203.0.113.6")}},
		{Name: "ns1.city.gov.br.", Class: ClassIN, TTL: 3600, Data: AAAAData{Addr: netip.MustParseAddr("2001:db8::5")}},
		{Name: "city.gov.br.", Class: ClassIN, TTL: 60, Data: TXTData{Strings: []string{"v=spf1 -all", "b"}}},
		{Name: "city.gov.br.", Class: ClassIN, TTL: 60, Data: MXData{Preference: 10, Exchange: "mail.city.gov.br."}},
		{Name: "alias.city.gov.br.", Class: ClassIN, TTL: 60, Data: CNAMEData{Target: "www.city.gov.br."}},
		{Name: "5.113.0.203.in-addr.arpa.", Class: ClassIN, TTL: 60, Data: PTRData{Target: "ns1.city.gov.br."}},
	}
	return resp
}

func assertMessagesEqual(t *testing.T, got, want *Message) {
	t.Helper()
	if got.Header != want.Header {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got.Header, want.Header)
	}
	if len(got.Questions) != len(want.Questions) {
		t.Fatalf("question count %d, want %d", len(got.Questions), len(want.Questions))
	}
	for i := range want.Questions {
		if got.Questions[i] != want.Questions[i] {
			t.Fatalf("question %d = %v, want %v", i, got.Questions[i], want.Questions[i])
		}
	}
	sections := []struct {
		name      string
		got, want []RR
	}{
		{"answer", got.Answers, want.Answers},
		{"authority", got.Authority, want.Authority},
		{"additional", got.Additional, want.Additional},
	}
	for _, s := range sections {
		if len(s.got) != len(s.want) {
			t.Fatalf("%s count %d, want %d", s.name, len(s.got), len(s.want))
		}
		for i := range s.want {
			if !s.got[i].Equal(s.want[i]) || s.got[i].TTL != s.want[i].TTL {
				t.Errorf("%s %d = %v, want %v", s.name, i, s.got[i], s.want[i])
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msg := sampleMessage()
	wire, err := Encode(msg)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	assertMessagesEqual(t, got, msg)
}

func TestCompressionShrinksMessage(t *testing.T) {
	msg := sampleMessage()
	wire, err := Encode(msg)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Rough uncompressed size: every name spelled out fully.
	uncompressed := 12
	for _, q := range msg.Questions {
		uncompressed += len(q.Name) + 1 + 4
	}
	for _, rr := range append(append(append([]RR{}, msg.Answers...), msg.Authority...), msg.Additional...) {
		uncompressed += len(rr.Name) + 1 + 10 + 24
	}
	if len(wire) >= uncompressed {
		t.Errorf("compressed size %d not smaller than crude uncompressed estimate %d", len(wire), uncompressed)
	}
}

func TestDecodeRejectsShortHeader(t *testing.T) {
	if _, err := Decode(make([]byte, 11)); !errors.Is(err, ErrTruncatedMessage) {
		t.Errorf("Decode(short) error = %v, want ErrTruncatedMessage", err)
	}
}

func TestDecodeRejectsPointerLoop(t *testing.T) {
	// Header claiming one question, then a name that points at itself.
	wire := make([]byte, 12)
	wire[5] = 1 // QDCOUNT = 1
	wire = append(wire, 0xC0, 12)
	if _, err := Decode(wire); !errors.Is(err, ErrBadPointer) {
		t.Errorf("Decode(self-pointer) error = %v, want ErrBadPointer", err)
	}
}

func TestDecodeRejectsForwardPointer(t *testing.T) {
	wire := make([]byte, 12)
	wire[5] = 1
	wire = append(wire, 0xC0, 20) // points past itself
	if _, err := Decode(wire); !errors.Is(err, ErrBadPointer) {
		t.Errorf("Decode(forward pointer) error = %v, want ErrBadPointer", err)
	}
}

func TestDecodeRejectsTruncatedRDATA(t *testing.T) {
	msg := NewQuery(1, "example.com.", TypeA)
	resp := NewResponse(msg)
	resp.Answers = []RR{{Name: "example.com.", Class: ClassIN, TTL: 60,
		Data: AData{Addr: netip.MustParseAddr("192.0.2.1")}}}
	wire, err := Encode(resp)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(wire[:len(wire)-2]); !errors.Is(err, ErrTruncatedMessage) {
		t.Errorf("Decode(cut RDATA) error = %v, want ErrTruncatedMessage", err)
	}
}

func TestEncodeRejectsNilRData(t *testing.T) {
	msg := NewQuery(1, "example.com.", TypeA)
	resp := NewResponse(msg)
	resp.Answers = []RR{{Name: "example.com.", Class: ClassIN}}
	if _, err := Encode(resp); !errors.Is(err, ErrBadRecord) {
		t.Errorf("Encode(nil RDATA) error = %v, want ErrBadRecord", err)
	}
}

func TestEncodeRejectsMismatchedAddressFamilies(t *testing.T) {
	v6 := RR{Name: "x.example.", Class: ClassIN, Data: AData{Addr: netip.MustParseAddr("2001:db8::1")}}
	v4 := RR{Name: "x.example.", Class: ClassIN, Data: AAAAData{Addr: netip.MustParseAddr("192.0.2.1")}}
	for _, rr := range []RR{v6, v4} {
		m := &Message{Answers: []RR{rr}}
		if _, err := Encode(m); !errors.Is(err, ErrBadRecord) {
			t.Errorf("Encode(%v) error = %v, want ErrBadRecord", rr, err)
		}
	}
}

func TestEncodeUDPTruncates(t *testing.T) {
	msg := NewQuery(7, "big.example.", TypeTXT)
	resp := NewResponse(msg)
	for i := 0; i < 20; i++ {
		resp.Answers = append(resp.Answers, RR{
			Name: "big.example.", Class: ClassIN, TTL: 60,
			Data: TXTData{Strings: []string{string(make([]byte, 200))}},
		})
	}
	a := DefaultPool.Get()
	defer a.Finish()
	wire, err := a.EncodeUDP(resp)
	if err != nil {
		t.Fatalf("EncodeUDP: %v", err)
	}
	if len(wire) > MaxUDPPayload {
		t.Fatalf("EncodeUDP produced %d bytes > %d", len(wire), MaxUDPPayload)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.Header.Truncated {
		t.Error("TC bit not set on truncated response")
	}
	if len(got.Answers) != 0 {
		t.Errorf("truncated response carries %d answers", len(got.Answers))
	}
}

func TestOpaqueRoundTrip(t *testing.T) {
	msg := NewQuery(9, "x.example.", Type(99))
	resp := NewResponse(msg)
	resp.Answers = []RR{{Name: "x.example.", Class: ClassIN, TTL: 30,
		Data: OpaqueData{RRType: Type(99), Bytes: []byte{1, 2, 3, 4}}}}
	wire, err := Encode(resp)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.Answers[0].Equal(resp.Answers[0]) {
		t.Errorf("opaque RR round trip: got %v, want %v", got.Answers[0], resp.Answers[0])
	}
}

func TestIsReferral(t *testing.T) {
	q := NewQuery(3, "sub.gov.cn.", TypeNS)
	ref := NewResponse(q)
	ref.Authority = []RR{{Name: "sub.gov.cn.", Class: ClassIN, TTL: 3600, Data: NSData{Host: "ns.sub.gov.cn."}}}
	if !ref.IsReferral() {
		t.Error("referral not recognized")
	}
	ans := NewResponse(q)
	ans.Header.Authoritative = true
	ans.Answers = ref.Authority
	if ans.IsReferral() {
		t.Error("authoritative answer misclassified as referral")
	}
}

// randomName builds a parseable random name from a seed.
func randomName(rng *rand.Rand) dnsname.Name {
	labels := []string{"ns1", "www", "city", "gov", "example", "br", "cn", "org", "a-b", "x_1"}
	depth := 1 + rng.Intn(4)
	n := dnsname.Root
	for i := 0; i < depth; i++ {
		n = n.MustPrepend(labels[rng.Intn(len(labels))])
	}
	return n
}

func TestQuickRoundTripRandomMessages(t *testing.T) {
	f := func(seed int64, idVal uint16, ttl uint32, nRecords uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		msg := NewQuery(idVal, randomName(rng), TypeNS)
		resp := NewResponse(msg)
		resp.Header.Authoritative = rng.Intn(2) == 0
		resp.Header.RCode = RCode(rng.Intn(6))
		for i := 0; i < int(nRecords%16); i++ {
			var data RData
			switch rng.Intn(4) {
			case 0:
				data = NSData{Host: randomName(rng)}
			case 1:
				data = AData{Addr: netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})}
			case 2:
				data = CNAMEData{Target: randomName(rng)}
			default:
				data = TXTData{Strings: []string{"probe"}}
			}
			resp.Answers = append(resp.Answers, RR{Name: randomName(rng), Class: ClassIN, TTL: ttl, Data: data})
		}
		wire, err := Encode(resp)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		if got.Header != resp.Header || len(got.Answers) != len(resp.Answers) {
			return false
		}
		for i := range resp.Answers {
			if !got.Answers[i].Equal(resp.Answers[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Decoding arbitrary bytes must return an error or a message, never panic.
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", raw, r)
			}
		}()
		_, _ = Decode(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypeA, TypeNS, TypeCNAME, TypeSOA, TypePTR, TypeMX, TypeTXT, TypeAAAA, TypeANY} {
		got, ok := ParseType(typ.String())
		if !ok || got != typ {
			t.Errorf("ParseType(%q) = %v, %v", typ.String(), got, ok)
		}
	}
	if _, ok := ParseType("NOPE"); ok {
		t.Error("ParseType accepted an unknown mnemonic")
	}
}
