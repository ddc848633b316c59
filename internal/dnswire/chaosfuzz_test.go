// This file is an external test package so it can seed the fuzzer with
// chaos-mangled wire images: chaos imports dnswire, so the corpus
// builders cannot live in package dnswire itself.
package dnswire_test

import (
	"bytes"
	"net/netip"
	"testing"

	"govdns/internal/chaos"
	"govdns/internal/dnswire"
)

// chaosCorpusMessage is a response exercising every section and the
// name-compression paths: question, answers (A + NS), authority (SOA),
// additional glue.
func chaosCorpusMessage() *dnswire.Message {
	q := dnswire.NewQuery(0x4d2, "www.city.gov.br.", dnswire.TypeA)
	resp := dnswire.NewResponse(q)
	resp.Header.Authoritative = true
	resp.Answers = []dnswire.RR{
		{Name: "www.city.gov.br.", Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.AData{Addr: netip.MustParseAddr("4.0.0.9")}},
		{Name: "city.gov.br.", Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NSData{Host: "ns1.city.gov.br."}},
	}
	resp.Authority = []dnswire.RR{
		{Name: "city.gov.br.", Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.SOAData{MName: "ns1.city.gov.br.", RName: "hostmaster.city.gov.br.",
				Serial: 2026010100, Refresh: 7200, Retry: 1800, Expire: 604800, Minimum: 300}},
	}
	resp.Additional = []dnswire.RR{
		{Name: "ns1.city.gov.br.", Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.AData{Addr: netip.MustParseAddr("4.0.0.1")}},
	}
	return resp
}

// FuzzMessageRoundTrip round-trips whole messages — all four sections —
// through Decode→Encode→Decode. The seed corpus is the chaos package's
// own wire mutators applied to a realistic response, so the fuzzer
// starts exactly on the damage shapes the resolver must survive:
// flipped transaction IDs, TC-bit truncation, RCODE rewrites, question
// rewrites, and multi-byte mangling.
func FuzzMessageRoundTrip(f *testing.F) {
	msg := chaosCorpusMessage()
	wire, err := dnswire.Encode(msg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add(chaos.CorruptQIDWireInPlace(bytes.Clone(wire)))
	f.Add(chaos.TruncateWire(wire))
	f.Add(chaos.FlipRCodeWireInPlace(bytes.Clone(wire), dnswire.RCodeServFail))
	f.Add(chaos.MismatchQuestionWire(wire))
	for h := uint64(0); h < 8; h++ {
		f.Add(chaos.MangleWireInPlace(h*0x9e3779b97f4a7c15+1, bytes.Clone(wire)))
	}
	query, err := dnswire.Encode(dnswire.NewQuery(9, "single.gov.br.", dnswire.TypeNS))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(query)
	f.Add(chaos.MangleWireInPlace(42, bytes.Clone(query)))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := dnswire.Decode(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rewire, err := dnswire.Encode(m)
		if err != nil {
			return // un-encodable decodes must fail cleanly, not panic
		}
		m2, err := dnswire.Decode(rewire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m.Header != m2.Header {
			t.Fatalf("headers differ after round trip: %+v vs %+v", m.Header, m2.Header)
		}
		if len(m.Questions) != len(m2.Questions) {
			t.Fatalf("question counts differ: %d vs %d", len(m.Questions), len(m2.Questions))
		}
		for i := range m.Questions {
			if m.Questions[i] != m2.Questions[i] {
				t.Fatalf("question %d differs: %v vs %v", i, m.Questions[i], m2.Questions[i])
			}
		}
		sections := []struct {
			name string
			a, b []dnswire.RR
		}{
			{"answer", m.Answers, m2.Answers},
			{"authority", m.Authority, m2.Authority},
			{"additional", m.Additional, m2.Additional},
		}
		for _, s := range sections {
			if len(s.a) != len(s.b) {
				t.Fatalf("%s counts differ: %d vs %d", s.name, len(s.a), len(s.b))
			}
			for i := range s.a {
				if !s.a[i].Equal(s.b[i]) {
					t.Fatalf("%s record %d differs: %v vs %v", s.name, i, s.a[i], s.b[i])
				}
			}
		}
	})
}
