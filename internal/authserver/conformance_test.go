package authserver

// The wire-conformance differential suite: a table-driven corpus of
// queries served through every deployment variation the tier supports,
// with answers pinned byte-identical across the variations that must not
// change them — UDP vs TCP (modulo TC/OPT effects), cache-on vs
// cache-off, and primary vs AXFR-synced secondary. The same
// digest-pinning discipline the scan pipeline uses, applied at the
// serving boundary.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/obs"
	"govdns/internal/zone"
)

// conformanceZone is testZone plus an RRset big enough to overflow both
// the classic 512-byte UDP limit and the 1232-byte EDNS0 default, while
// fitting a 4096-byte buffer: the TC-fallback pivot of the suite.
func conformanceZone(t *testing.T) *zone.Zone {
	t.Helper()
	z := testZoneBuilder(t)
	for i := 0; i < 25; i++ {
		z.MustAdd(dnswire.RR{
			Name: "big.gov.br.", Class: dnswire.ClassIN, TTL: 600,
			Data: dnswire.TXTData{Strings: []string{fmt.Sprintf(
				"v=conformance; record %02d padded to make the rrset overflow a udp payload", i)}},
		})
	}
	return z.Freeze()
}

// canonicalZone rebuilds z with records inserted in Records()' canonical
// order, so per-RRset answer order matches what an AXFR-synced secondary
// reconstructs. Conformance fixtures serve the canonical form on every
// server under comparison.
func canonicalZone(t *testing.T, z *zone.Zone) *zone.Zone {
	t.Helper()
	out := zone.NewBuilder(z.Origin())
	for _, rr := range z.Records() {
		out.MustAdd(rr)
	}
	return out.Freeze()
}

// conformanceCorpus covers every row of the serving decision table plus
// the oversized RRset.
var conformanceCorpus = []struct {
	desc  string
	name  dnsname.Name
	qtype dnswire.Type
}{
	{"answer", "www.gov.br.", dnswire.TypeA},
	{"apex NS", "gov.br.", dnswire.TypeNS},
	{"apex SOA", "gov.br.", dnswire.TypeSOA},
	{"referral", "www.city.gov.br.", dnswire.TypeA},
	{"nodata", "www.gov.br.", dnswire.TypeMX},
	{"nxdomain", "missing.gov.br.", dnswire.TypeA},
	{"refused off-zone", "example.com.", dnswire.TypeA},
	{"oversized rrset", "big.gov.br.", dnswire.TypeTXT},
}

// ednsVariants are the client-advertisement shapes each corpus query is
// sent with: no OPT, the flag-day buffer, and a buffer above the server
// cap (4096 in this suite) to exercise clamping.
var ednsVariants = []uint16{0, 1232, 4096, 8192}

// confWire encodes one corpus query with the given ID, RD flag, and
// EDNS0 advertisement (0 = no OPT record).
func confWire(t *testing.T, name dnsname.Name, qtype dnswire.Type, id uint16, rd bool, edns uint16) []byte {
	t.Helper()
	q := dnswire.NewQuery(id, name, qtype)
	q.Header.RecursionDesired = rd
	if edns > 0 {
		q.Additional = append(q.Additional, dnswire.OPTRecord(edns))
	}
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatalf("encode query %s %s: %v", name, qtype, err)
	}
	return wire
}

// newConformanceServer builds a healthy server on the canonical fixture
// zone with a 4096-byte EDNS cap (so the 4096 variant can lift answers
// past 1232 and the 8192 variant exercises clamping).
func newConformanceServer(t *testing.T) *Server {
	t.Helper()
	s := New("ns1.gov.br.")
	s.AddZone(canonicalZone(t, conformanceZone(t)))
	s.SetEDNSBufSize(4096)
	return s
}

// exchangeTCP sends one framed query to a live TCP listener and returns
// the response message bytes.
func exchangeTCP(t *testing.T, addr string, wire []byte) []byte {
	t.Helper()
	tt := &TCPTransport{}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatalf("split %s: %v", addr, err)
	}
	ip := netip.MustParseAddr(host)
	var p int
	if _, err := fmt.Sscan(port, &p); err != nil {
		t.Fatalf("port %s: %v", port, err)
	}
	tt.PortOverride = map[netip.Addr]int{ip: p}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := tt.Exchange(ctx, ip, wire)
	if err != nil {
		t.Fatalf("tcp exchange: %v", err)
	}
	return resp
}

// TestConformanceUDPvsTCP pins the transport differential: when the UDP
// answer is not truncated, TCP returns the same bytes; when it is, the
// UDP answer decodes cleanly with TC set within the negotiated limit and
// the TCP answer carries the complete RRset.
func TestConformanceUDPvsTCP(t *testing.T) {
	s := newConformanceServer(t)
	tcpSrv, err := ListenTCP("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tcpSrv.Close() }()

	for _, q := range conformanceCorpus {
		for _, edns := range ednsVariants {
			name := fmt.Sprintf("%s/edns=%d", q.desc, edns)
			wire := confWire(t, q.name, q.qtype, 77, true, edns)
			udpResp := s.HandleWire(wire)
			if udpResp == nil {
				t.Fatalf("%s: UDP response dropped", name)
			}
			tcpResp := exchangeTCP(t, tcpSrv.Addr().String(), wire)

			udpMsg, err := dnswire.Decode(udpResp)
			if err != nil {
				t.Fatalf("%s: UDP response does not decode: %v", name, err)
			}
			tcpMsg, err := dnswire.Decode(tcpResp)
			if err != nil {
				t.Fatalf("%s: TCP response does not decode: %v", name, err)
			}
			if tcpMsg.Header.Truncated {
				t.Errorf("%s: TCP response truncated", name)
			}

			limit := payloadLimit(TransportUDP, edns > 0, edns, 4096)
			if len(udpResp) > limit {
				t.Errorf("%s: UDP response %d bytes exceeds negotiated limit %d",
					name, len(udpResp), limit)
			}
			if wantOPT := edns > 0; wantOPT {
				if size, ok := udpMsg.EDNS(); !ok || size != 4096 {
					t.Errorf("%s: UDP OPT echo = (%d, %v), want (4096, true)", name, size, ok)
				}
				if size, ok := tcpMsg.EDNS(); !ok || size != 4096 {
					t.Errorf("%s: TCP OPT echo = (%d, %v), want (4096, true)", name, size, ok)
				}
			} else if _, ok := udpMsg.EDNS(); ok {
				t.Errorf("%s: unsolicited OPT in UDP response", name)
			}

			if !udpMsg.Header.Truncated {
				if !bytes.Equal(udpResp, tcpResp) {
					t.Errorf("%s: UDP and TCP bytes differ without truncation\nudp: %s\ntcp: %s",
						name, udpMsg, tcpMsg)
				}
				continue
			}
			// Truncated UDP: the TCP retry must carry strictly more
			// records, and the UDP prefix must match the TCP answer
			// record-for-record.
			if len(tcpMsg.Answers) <= len(udpMsg.Answers) {
				t.Errorf("%s: TCP answers %d not beyond truncated UDP answers %d",
					name, len(tcpMsg.Answers), len(udpMsg.Answers))
			}
			for i, rr := range udpMsg.Answers {
				if !rr.Equal(tcpMsg.Answers[i]) {
					t.Errorf("%s: truncated answer %d diverges from TCP: %v != %v",
						name, i, rr, tcpMsg.Answers[i])
				}
			}
		}
	}
}

// TestConformanceOversizedSetsTC is the acceptance pivot spelled out:
// the oversized RRset over plain UDP sets TC; the same query retried
// over TCP returns the complete response.
func TestConformanceOversizedSetsTC(t *testing.T) {
	s := newConformanceServer(t)
	tcpSrv, err := ListenTCP("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tcpSrv.Close() }()

	wire := confWire(t, "big.gov.br.", dnswire.TypeTXT, 9001, false, 0)
	udpMsg, err := dnswire.Decode(s.HandleWire(wire))
	if err != nil {
		t.Fatalf("UDP response does not decode: %v", err)
	}
	if !udpMsg.Header.Truncated {
		t.Fatal("oversized UDP answer did not set TC")
	}
	tcpMsg, err := dnswire.Decode(exchangeTCP(t, tcpSrv.Addr().String(), wire))
	if err != nil {
		t.Fatalf("TCP response does not decode: %v", err)
	}
	if tcpMsg.Header.Truncated {
		t.Error("TCP retry still truncated")
	}
	if got := len(tcpMsg.Answers); got != 25 {
		t.Errorf("TCP retry answers = %d, want the complete 25-record RRset", got)
	}
}

// TestConformanceCacheOnVsOff pins the cache differential: a caching
// server must emit byte-identical responses to a cache-less twin on
// every corpus query, on the first pass (misses) and the second (hits),
// across varying transaction IDs and RD flags.
func TestConformanceCacheOnVsOff(t *testing.T) {
	plain := newConformanceServer(t)
	cached := newConformanceServer(t)
	reg := obs.NewRegistry()
	cc := NewResponseCache()
	cc.AttachRegistry(reg)
	cached.SetCache(cc)

	passes := []struct {
		id uint16
		rd bool
	}{{101, false}, {202, true}, {303, false}}
	for pass, hdr := range passes {
		for _, q := range conformanceCorpus {
			for _, edns := range ednsVariants {
				name := fmt.Sprintf("pass%d/%s/edns=%d", pass, q.desc, edns)
				wire := confWire(t, q.name, q.qtype, hdr.id, hdr.rd, edns)
				a := plain.HandleWire(wire)
				b := cached.HandleWire(wire)
				if !bytes.Equal(a, b) {
					t.Errorf("%s: cache-on and cache-off bytes differ", name)
				}
			}
		}
	}
	if n := cc.Len(); n == 0 {
		t.Error("cache holds no entries after the corpus ran")
	}
	if hits := reg.Counter("authserver_cache_hits_total").Load(); hits == 0 {
		t.Error("cache registered no hits across repeated passes")
	}
	if misses := reg.Counter("authserver_cache_misses_total").Load(); misses == 0 {
		t.Error("cache registered no misses on the first pass")
	}
}

// TestConformancePrimaryVsSecondary pins the replication differential: a
// secondary bootstrapped over AXFR answers every corpus query with the
// same bytes as the primary it synced from.
func TestConformancePrimaryVsSecondary(t *testing.T) {
	primary := newConformanceServer(t)
	tcpSrv, err := ListenTCP("127.0.0.1:0", primary)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tcpSrv.Close() }()

	secondary := New("ns2.gov.br.")
	secondary.SetEDNSBufSize(4096)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := SyncZone(ctx, tcpSrv.Addr().String(), "gov.br.", secondary); err != nil {
		t.Fatalf("SyncZone: %v", err)
	}

	z, ok := secondary.ZoneByOrigin("gov.br.")
	if !ok {
		t.Fatal("secondary did not install the zone")
	}
	pz, _ := primary.ZoneByOrigin("gov.br.")
	if z.Len() != pz.Len() {
		t.Fatalf("secondary zone has %d records, primary %d", z.Len(), pz.Len())
	}

	for _, q := range conformanceCorpus {
		for _, edns := range ednsVariants {
			name := fmt.Sprintf("%s/edns=%d", q.desc, edns)
			wire := confWire(t, q.name, q.qtype, 55, false, edns)
			a := primary.HandleWire(wire)
			b := secondary.HandleWire(wire)
			if !bytes.Equal(a, b) {
				t.Errorf("%s: primary and AXFR-synced secondary bytes differ", name)
			}
		}
	}
}

// TestAXFRRefusedOffPath pins the transfer authorization table: AXFR
// over UDP, for an unhosted origin, or for a non-origin name inside the
// zone is REFUSED rather than streamed.
func TestAXFRRefusedOffPath(t *testing.T) {
	s := newConformanceServer(t)
	tcpSrv, err := ListenTCP("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tcpSrv.Close() }()

	cases := []struct {
		desc string
		resp []byte
	}{
		{"axfr over udp", s.HandleWire(confWire(t, "gov.br.", dnswire.TypeAXFR, 5, false, 0))},
		{"axfr unhosted origin", exchangeTCP(t, tcpSrv.Addr().String(),
			confWire(t, "example.com.", dnswire.TypeAXFR, 6, false, 0))},
		{"axfr non-origin name", exchangeTCP(t, tcpSrv.Addr().String(),
			confWire(t, "www.gov.br.", dnswire.TypeAXFR, 7, false, 0))},
	}
	for _, c := range cases {
		m, err := dnswire.Decode(c.resp)
		if err != nil {
			t.Fatalf("%s: response does not decode: %v", c.desc, err)
		}
		if m.Header.RCode != dnswire.RCodeRefused {
			t.Errorf("%s: RCode = %s, want REFUSED", c.desc, m.Header.RCode)
		}
		if len(m.Answers) != 0 {
			t.Errorf("%s: %d answer records on a refused transfer", c.desc, len(m.Answers))
		}
	}
}

// TestTCPPipelining sends the whole corpus down one connection before
// reading anything back, then checks responses arrive complete, in
// order, and identical to their one-shot forms.
func TestTCPPipelining(t *testing.T) {
	s := newConformanceServer(t)
	tcpSrv, err := ListenTCP("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tcpSrv.Close() }()

	conn, err := net.DialTimeout("tcp", tcpSrv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))

	var queries [][]byte
	var burst []byte
	for i, q := range conformanceCorpus {
		wire := confWire(t, q.name, q.qtype, uint16(1000+i), false, 1232)
		queries = append(queries, wire)
		burst = append(burst, byte(len(wire)>>8), byte(len(wire)))
		burst = append(burst, wire...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatalf("burst write: %v", err)
	}
	for i, q := range conformanceCorpus {
		resp, err := readFrame(conn, nil)
		if err != nil {
			t.Fatalf("response %d (%s): %v", i, q.desc, err)
		}
		m, err := dnswire.Decode(resp)
		if err != nil {
			t.Fatalf("response %d (%s) does not decode: %v", i, q.desc, err)
		}
		if m.Header.ID != uint16(1000+i) {
			t.Fatalf("response %d has ID %d, want %d: pipeline reordered", i, m.Header.ID, 1000+i)
		}
		oneshot := exchangeTCP(t, tcpSrv.Addr().String(), queries[i])
		if !bytes.Equal(resp, oneshot) {
			t.Errorf("response %d (%s): pipelined bytes differ from one-shot", i, q.desc)
		}
	}
}
