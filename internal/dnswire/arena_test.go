package dnswire

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"

	"govdns/internal/dnsname"
)

// referralResponse builds the canonical hot-path message: a delegation
// with NS authority records and A glue, as every zone cut in a scan
// serves it.
func referralResponse() *Message {
	q := NewQuery(0x4242, dnsname.MustParse("city.gov.br"), TypeNS)
	resp := NewResponse(q)
	resp.Authority = []RR{
		{Name: "gov.br.", Class: ClassIN, TTL: 3600, Data: NSData{Host: "ns1.registro.br."}},
		{Name: "gov.br.", Class: ClassIN, TTL: 3600, Data: NSData{Host: "ns2.registro.br."}},
	}
	resp.Additional = []RR{
		{Name: "ns1.registro.br.", Class: ClassIN, TTL: 3600, Data: AData{Addr: netip.MustParseAddr("203.0.113.10")}},
		{Name: "ns2.registro.br.", Class: ClassIN, TTL: 3600, Data: AData{Addr: netip.MustParseAddr("203.0.113.11")}},
	}
	return resp
}

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	wire, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return wire
}

// TestWirePathZeroAlloc is the tentpole regression gate: steady-state
// decode+encode of a typical referral response — and building+encoding
// the query that elicits it — must not touch the heap. It runs in the
// ordinary `make check` test pass; under -race the allocation counter is
// not meaningful and the gate is skipped (the race pass covers the pool
// with TestPoolConcurrentExchange instead).
func TestWirePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	wire := mustEncode(t, referralResponse())
	qname := dnsname.MustParse("city.gov.br")

	a := DefaultPool.Get()
	defer a.Finish()

	// Warm the arena so buffer growth is behind us, then measure.
	for i := 0; i < 4; i++ {
		if _, err := a.Decode(wire); err != nil {
			t.Fatalf("Decode: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		q := a.NewQuery(0x4242, qname, TypeNS)
		if _, err := a.Encode(q); err != nil {
			t.Fatalf("Encode query: %v", err)
		}
		m, err := a.Decode(wire)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !m.IsReferral() {
			t.Fatal("response no longer classifies as a referral")
		}
		if _, err := a.EncodeUDP(m); err != nil {
			t.Fatalf("EncodeUDP: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("wire path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestArenaDecodeMatchesOwnedDecode pins the arena fast path to the
// compatibility wrapper (which is itself arena + deep copy): both views
// of the same packet must be identical, including for names the fast
// path canonicalises inline (uppercase labels) or punts to the legacy
// parser (wildcards are fine; dots inside labels re-split).
func TestArenaDecodeMatchesOwnedDecode(t *testing.T) {
	msgs := []*Message{
		referralResponse(),
		sampleMessage(),
	}
	for i, msg := range msgs {
		wire := mustEncode(t, msg)
		owned, err := Decode(wire)
		if err != nil {
			t.Fatalf("msg %d: Decode: %v", i, err)
		}
		a := NewPool().Get()
		borrowed, err := a.Decode(wire)
		if err != nil {
			t.Fatalf("msg %d: arena Decode: %v", i, err)
		}
		assertMessagesEqual(t, borrowed, owned)
		a.Finish()
	}
}

// TestDecodeCanonicalisesCase checks the fast path lowercases uppercase
// wire labels exactly as the Parse-based decoder did.
func TestDecodeCanonicalisesCase(t *testing.T) {
	wire := mustEncode(t, NewQuery(7, dnsname.MustParse("city.gov.br"), TypeNS))
	// Uppercase the qname bytes in place: "city" starts after the header.
	idx := bytes.Index(wire, []byte("city"))
	if idx < 0 {
		t.Fatal("qname not found in wire image")
	}
	copy(wire[idx:], "CITY")
	m, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got := m.Question().Name; got != "city.gov.br." {
		t.Fatalf("decoded name %q, want %q", got, "city.gov.br.")
	}
}

// TestDecodeSlowPathParity exercises names the fast path cannot take —
// a dot inside a wire label (legacy Parse re-splits and accepts it), a
// forbidden character and a name over 255 bytes (legacy Parse rejects
// both with specific text) — and asserts the arena decoder preserves
// every outcome.
func TestDecodeSlowPathParity(t *testing.T) {
	// Hand-build a query whose qname is the single 5-byte label "a.b.c".
	header := []byte{0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}
	name := append([]byte{5}, []byte("a.b.c")...)
	wire := append(append(append([]byte{}, header...), name...), 0x00, 0x00, 0x02, 0x00, 0x01)
	m, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode dotted label: %v", err)
	}
	if got := m.Question().Name; got != "a.b.c." {
		t.Fatalf("dotted label decoded to %q, want %q", got, "a.b.c.")
	}

	bad := append([]byte{}, wire...)
	copy(bad[13:], "a!b.c")
	if _, err := Decode(bad); err == nil {
		t.Fatal("Decode accepted a label with '!'")
	} else if want := `contains '!'`; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not preserve legacy text %q", err, want)
	}

	// Five 63-byte labels: a clean name of 319 bytes.
	long := append([]byte{}, header...)
	label := strings.Repeat("a", 63)
	for range 5 {
		long = append(append(long, 63), label...)
	}
	long = append(long, 0x00, 0x00, 0x02, 0x00, 0x01)
	want := fmt.Sprintf("dnswire: bad name: dnsname: name too long: %q has 319 bytes", strings.Repeat(label+".", 4)+label)
	if _, err := Decode(long); err == nil {
		t.Fatal("Decode accepted a 319-byte name")
	} else if !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("error %q does not end with legacy text %q", err, want)
	}
}

// TestArenaAliasSafety is the borrow-contract regression test: names
// decoded from a packet must not alias the packet (mutating the source
// buffer after decode changes nothing), and Own() copies and payloads
// asserted out by value must survive the arena being reused and
// recycled.
func TestArenaAliasSafety(t *testing.T) {
	pool := NewPool()
	wire := mustEncode(t, referralResponse())

	a := pool.Get()
	m, err := a.Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	borrowedHost := m.Authority[0].Data.(NSData).Host
	ownedHost := borrowedHost.Own()
	var ownedGlue []netip.Addr
	for _, rr := range m.Additional {
		ownedGlue = append(ownedGlue, rr.Data.(AData).Addr)
	}

	// Mutate the source packet: decoded names live in the arena, not the
	// packet, so even borrowed views must be unaffected.
	for i := range wire {
		wire[i] = 0xFF
	}
	if borrowedHost != "ns1.registro.br." {
		t.Fatalf("borrowed name changed with its source packet: %q", borrowedHost)
	}

	// Reuse the arena: borrowed views are now invalid, owned copies must
	// hold. Decode a different message so the scratch is rewritten, then
	// one carrying different A records so the payload slabs are rewritten
	// too — a retained AData interface whose cell still pointed into the
	// slab would flip to the new address here; the asserted-out value
	// must not.
	other := mustEncode(t, NewQuery(9, dnsname.MustParse("zzzzzzzzzzzzzzz.example"), TypeA))
	if _, err := a.Decode(other); err != nil {
		t.Fatalf("Decode other: %v", err)
	}
	overwrite := NewResponse(NewQuery(10, "slab.example.", TypeA))
	overwrite.Answers = []RR{
		{Name: "slab.example.", Class: ClassIN, TTL: 1, Data: AData{Addr: netip.MustParseAddr("192.0.2.99")}},
		{Name: "slab.example.", Class: ClassIN, TTL: 1, Data: AData{Addr: netip.MustParseAddr("192.0.2.100")}},
	}
	if _, err := a.Decode(mustEncode(t, overwrite)); err != nil {
		t.Fatalf("Decode overwrite: %v", err)
	}
	a.Finish()

	if ownedHost != "ns1.registro.br." {
		t.Fatalf("owned name did not survive arena reuse: %q", ownedHost)
	}
	for i, want := range []string{"203.0.113.10", "203.0.113.11"} {
		if got := ownedGlue[i]; got != netip.MustParseAddr(want) {
			t.Fatalf("glue address %d did not survive slab rewrite: %v (want %s)", i, got, want)
		}
	}
}

// TestArenaFinishClearsWhatItUsed: a recycled arena holds no record or
// question reference anywhere in its capacity, although Finish clears
// only as far as the arena was used since the last Finish — which is
// further than where the last message left it: a large message decoded
// before a small one is cleared too, and so are records OfType filtered
// past the small one and the records a response was built from in its
// RRBuf.
func TestArenaFinishClearsWhatItUsed(t *testing.T) {
	big := NewResponse(NewQuery(1, "big.example.", TypeA))
	big.Questions = append(big.Questions,
		Question{Name: "q2.big.example.", Type: TypeA, Class: ClassIN},
		Question{Name: "q3.big.example.", Type: TypeA, Class: ClassIN})
	for i := range 200 {
		big.Answers = append(big.Answers, RR{Name: "big.example.", Class: ClassIN, TTL: 1,
			Data: AData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}})
	}
	bigWire, small := mustEncode(t, big), mustEncode(t, referralResponse())

	pool := NewPool()
	a := pool.Get()
	if _, err := a.Decode(bigWire); err != nil {
		t.Fatalf("Decode big: %v", err)
	}
	m, err := a.Decode(small)
	if err != nil {
		t.Fatalf("Decode small: %v", err)
	}
	if glue := a.OfType(m.Additional, TypeA); len(glue) == 0 {
		t.Fatal("the small message carries no glue to filter")
	}
	if built := append(a.RRBuf(), m.Authority...); len(built) == 0 || &built[0] != &a.sec[0] {
		t.Fatal("the response was not built in the arena's RRBuf")
	}
	a.Finish()
	if st := pool.Stats(); st.Recycles != 1 {
		t.Fatalf("pool stats %+v: the arena was not recycled", st)
	}
	if cap(a.rrs) < 200 || cap(a.qs) < 3 {
		t.Fatalf("arena capacity %d records, %d questions: the big message did not land in it", cap(a.rrs), cap(a.qs))
	}
	for i, rr := range a.rrs[:cap(a.rrs)] {
		if rr != (RR{}) {
			t.Fatalf("recycled arena still holds record %d: %v", i, rr)
		}
	}
	for i, q := range a.qs[:cap(a.qs)] {
		if q != (Question{}) {
			t.Fatalf("recycled arena still holds question %d: %v", i, q)
		}
	}
	for i, rr := range a.sec {
		if rr != (RR{}) {
			t.Fatalf("recycled arena still holds RRBuf record %d: %v", i, rr)
		}
	}
}

// TestArenaRecycleClearsSlabs: a recycled arena's payload slabs hold
// nothing up to their capacity. A large message of every pointer-holding
// payload type is decoded before a small one on the same arena, so the
// cells past the small message's length were filled by the earlier
// decode, and it is the reset at each decode that must have cleared
// them.
func TestArenaRecycleClearsSlabs(t *testing.T) {
	const n = 30 // 8n records stay under the arena's retention cap
	big := NewResponse(NewQuery(1, "big.example.", TypeANY))
	for i := range n {
		host := dnsname.Name(fmt.Sprintf("h%d.big.example.", i))
		big.Answers = append(big.Answers,
			RR{Name: "big.example.", Class: ClassIN, TTL: 1, Data: NSData{Host: host}},
			RR{Name: "big.example.", Class: ClassIN, TTL: 1, Data: CNAMEData{Target: host}},
			RR{Name: "big.example.", Class: ClassIN, TTL: 1, Data: PTRData{Target: host}},
			RR{Name: "big.example.", Class: ClassIN, TTL: 1, Data: MXData{Preference: 10, Exchange: host}},
			RR{Name: "big.example.", Class: ClassIN, TTL: 1, Data: TXTData{Strings: []string{string(host)}}},
			RR{Name: "big.example.", Class: ClassIN, TTL: 1, Data: SOAData{MName: host, RName: host, Serial: 1}},
			RR{Name: "big.example.", Class: ClassIN, TTL: 1, Data: CSYNCData{Serial: 1, Types: []Type{TypeNS}}},
			RR{Name: "big.example.", Class: ClassIN, TTL: 1, Data: OpaqueData{RRType: Type(65280), Bytes: []byte{byte(i)}}})
	}
	bigWire, small := mustEncode(t, big), mustEncode(t, referralResponse())

	pool := NewPool()
	a := pool.Get()
	if _, err := a.Decode(bigWire); err != nil {
		t.Fatalf("Decode big: %v", err)
	}
	if _, err := a.Decode(small); err != nil {
		t.Fatalf("Decode small: %v", err)
	}
	a.Finish()
	if st := pool.Stats(); st.Recycles != 1 {
		t.Fatalf("pool stats %+v: the arena was not recycled", st)
	}
	s := &a.slabs
	for name, cells := range map[string]reflect.Value{
		"ns": reflect.ValueOf(s.ns), "cname": reflect.ValueOf(s.cname), "ptr": reflect.ValueOf(s.ptr),
		"mx": reflect.ValueOf(s.mx), "txt": reflect.ValueOf(s.txt), "soa": reflect.ValueOf(s.soa),
		"csync": reflect.ValueOf(s.csync), "opaque": reflect.ValueOf(s.opaque),
	} {
		if cells.Cap() < n {
			t.Errorf("%s slab capacity %d: the big message did not land in it", name, cells.Cap())
		}
		cells = cells.Slice(0, cells.Cap())
		for i := range cells.Len() {
			if !cells.Index(i).IsZero() {
				t.Errorf("recycled arena's %s slab still holds cell %d: %+v", name, i, cells.Index(i))
				break
			}
		}
	}
}

// TestPoolCountersAndDiscard covers the pool's obs counters: checkouts
// and recycles on the normal cycle, discard of an arena whose buffers
// outgrew the retention caps, and NoRecycle bypassing both.
func TestPoolCountersAndDiscard(t *testing.T) {
	pool := NewPool()
	a := pool.Get()
	a.Finish()
	if s := pool.Stats(); s.Checkouts != 1 || s.Recycles != 1 || s.Discards != 0 {
		t.Fatalf("after one cycle: %+v", s)
	}

	// Grow the output buffer past the retention cap: encoding a >64 KiB
	// message fails with ErrMessageTooLarge, but the buffer has grown.
	big := &Message{Header: Header{Response: true}}
	for i := 0; i < 300; i++ {
		big.Answers = append(big.Answers, RR{
			Name:  dnsname.MustParse(fmt.Sprintf("h%d.example", i)),
			Class: ClassIN,
			Data:  TXTData{Strings: []string{strings.Repeat("x", 255)}},
		})
	}
	a = pool.Get()
	if _, err := a.Encode(big); err != ErrMessageTooLarge {
		t.Fatalf("Encode: err=%v, want ErrMessageTooLarge", err)
	}
	a.Finish()
	if s := pool.Stats(); s.Checkouts != 2 || s.Recycles != 1 || s.Discards != 1 {
		t.Fatalf("after oversize cycle: %+v", s)
	}

	// Finish is idempotent.
	a.Finish()
	if s := pool.Stats(); s.Recycles != 1 || s.Discards != 1 {
		t.Fatalf("double Finish moved counters: %+v", s)
	}

	nr := &Pool{NoRecycle: true}
	b := nr.Get()
	b.Finish()
	if s := nr.Stats(); s.Checkouts != 1 || s.Recycles != 0 || s.Discards != 0 {
		t.Fatalf("NoRecycle cycle: %+v", s)
	}
}

// TestPoolConcurrentExchange hammers one pool from many goroutines under
// the race detector: every exchange checks out its own arena, so decodes
// and encodes must never observe each other.
func TestPoolConcurrentExchange(t *testing.T) {
	pool := NewPool()
	wire := mustEncode(t, referralResponse())
	qname := dnsname.MustParse("city.gov.br")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a := pool.Get()
				q := a.NewQuery(uint16(i), qname, TypeNS)
				if _, err := a.Encode(q); err != nil {
					t.Errorf("Encode query: %v", err)
				}
				m, err := a.Decode(wire)
				if err != nil {
					t.Errorf("Decode: %v", err)
				} else if got := m.Authority[0].Data.(NSData).Host; got != "ns1.registro.br." {
					t.Errorf("decoded host %q, want ns1.registro.br.", got)
				}
				a.Finish()
			}
		}()
	}
	wg.Wait()
	if s := pool.Stats(); s.Checkouts != 8*500 {
		t.Fatalf("checkouts %d, want %d", s.Checkouts, 8*500)
	}
}

// TestArenaOfType: a filtered section holds the section's records of
// the type (the fixture's authority is all NS, its additional all A),
// leaves the decoded sections intact, stays valid while a second filter
// grows the record array, and costs nothing once the arena is warm.
func TestArenaOfType(t *testing.T) {
	want := referralResponse()
	wire := mustEncode(t, want)
	a := NewPool().Get()
	defer a.Finish()
	filter := func() (m *Message, ns, glue []RR) {
		m, err := a.Decode(wire)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		ns = a.OfType(m.Authority, TypeNS)
		glue = a.OfType(m.Additional, TypeA)
		if a.OfType(m.Answers, TypeNS) != nil || a.OfType(m.Additional, TypeCNAME) != nil {
			t.Fatal("a filter that matches nothing is not nil")
		}
		return m, ns, glue
	}
	m, ns, glue := filter()
	if fmt.Sprint(m.Authority, m.Additional) != fmt.Sprint(want.Authority, want.Additional) {
		t.Fatalf("filtering changed the decoded sections: %v %v", m.Authority, m.Additional)
	}
	if got, owned := fmt.Sprint(ns), fmt.Sprint(want.Authority); got != owned {
		t.Errorf("OfType NS = %s, want %s", got, owned)
	}
	if got, owned := fmt.Sprint(glue), fmt.Sprint(want.Additional); got != owned {
		t.Errorf("OfType A = %s, want %s", got, owned)
	}
	if cap(ns) != len(ns) {
		t.Errorf("filtered section has spare capacity %d: an append would clobber the next", cap(ns)-len(ns))
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { filter() }); allocs != 0 {
		t.Errorf("decode and two filters on a warm arena allocate %v, want 0", allocs)
	}
}
