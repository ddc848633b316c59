package measure

// The result line is written by hand (jsonlEncoder.appendResultJSON).
// These tests pin it to encoding/json: the oracle below is the
// reflection-based encoder the line format was first defined by, and
// every case, fuzz input and golden result must render to the same
// bytes through both. They also hold the emit path to its allocation
// budget: none per result once the writer is warm.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

// toResultJSON builds the serialization shape of r, the oracle the
// hand-written line is checked against: address lists in
// netip.Addr.Compare order, an unresolved host as an empty list.
func toResultJSON(r *DomainResult) resultJSON {
	out := resultJSON{
		Domain:              r.Domain,
		ParentZone:          r.ParentZone,
		ParentResponded:     r.ParentResponded,
		ParentNS:            r.ParentNS,
		ParentAuthoritative: r.ParentAuthoritative,
		Rounds:              r.Rounds,
		Err:                 r.Err,
		ErrTransient:        r.ErrTransient,
	}
	if r.Faults != (FaultCounts{}) {
		f := r.Faults
		out.Faults = &f
	}
	if len(r.Addrs) > 0 {
		out.Addrs = make(map[string][]string, len(r.Addrs))
		for _, h := range r.Addrs {
			host, addrs := h.Host, h.Addrs
			sorted := append([]netip.Addr(nil), addrs...)
			slices.SortFunc(sorted, netip.Addr.Compare)
			strs := make([]string, len(sorted))
			for j, a := range sorted {
				strs[j] = a.String()
			}
			out.Addrs[string(host)] = strs
		}
	}
	for _, sr := range r.Servers {
		sj := serverJSON{
			Host: sr.Host, OK: sr.OK, RCode: uint8(sr.RCode),
			Authoritative: sr.Authoritative, NS: sr.NS, Err: sr.Err,
		}
		if sr.Addr.IsValid() {
			sj.Addr = sr.Addr.String()
		}
		out.Servers = append(out.Servers, sj)
	}
	return out
}

// checkResultJSON fails t unless appendResultJSON renders r to exactly
// the bytes json.Encoder writes for toResultJSON(r).
func checkResultJSON(t *testing.T, r *DomainResult) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(toResultJSON(r)); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	var enc jsonlEncoder
	if got := enc.appendResultJSON(nil, r); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendResultJSON differs from encoding/json:\ngot:  %q\nwant: %q", got, want.Bytes())
	}
}

// oddStrings are the strings whose escaping the fast path must leave to
// encoding/json: control bytes, HTML-escaped and quoted characters, the
// JavaScript line separators, DEL and invalid UTF-8.
var oddStrings = []string{
	"a\x00\x01\x1f\t\n\rb.",
	`<>&"\`,
	"\u2028\u2029.",
	"\x7f",
	"\xff\xfe\xc3.",
	"ünïcode.gov.",
}

func TestResultJSONMatchesEncoder(t *testing.T) {
	v4 := netip.MustParseAddr("9.0.0.2")
	v4b := netip.MustParseAddr("10.0.0.1")
	v6 := netip.MustParseAddr("2001:db8::1")
	mapped := netip.MustParseAddr("::ffff:10.0.0.1")
	zoned := netip.MustParseAddr("fe80::1%eth0")
	oddZone := netip.MustParseAddr("fe80::1").WithZone(`<"\` + "\x00\xff")

	cases := map[string]*DomainResult{
		"nil lists":   {Domain: "x.gov."},
		"empty lists": {Domain: "x.gov.", ParentNS: []dnsname.Name{}, Addrs: []HostAddrs{}, Servers: []ServerResponse{}},
		"unresolved hosts": {Domain: "x.gov.", Addrs: []HostAddrs{
			{"ns1.x.gov.", nil}, {"ns2.x.gov.", []netip.Addr{}},
		}},
		"hosts out of byte order": {Domain: "x.gov.", Addrs: []HostAddrs{
			{"b.x.gov.", []netip.Addr{v4}}, {"A.x.gov.", []netip.Addr{v4}}, {"a.x.gov.", []netip.Addr{v4}}, {"\xff.x.gov.", []netip.Addr{v4}}, {"a-.x.gov.", []netip.Addr{v4}},
		}},
		"addresses": {Domain: "x.gov.", Addrs: []HostAddrs{
			{"ns1.x.gov.", []netip.Addr{v6, zoned, {}, v4b, mapped, v4, oddZone}},
		}},
		"servers": {Domain: "x.gov.", Servers: []ServerResponse{
			{Host: "ns1.x.gov."},
			{Host: "ns1.x.gov.", Addr: v6, OK: true, RCode: dnswire.RCodeNXDomain, Authoritative: true, NS: []dnsname.Name{}},
			{Host: "ns1.x.gov.", Addr: zoned, OK: true, RCode: 255, NS: []dnsname.Name{"a.", "b."}},
			{Host: "ns1.x.gov.", Addr: oddZone, Err: "simnet: packet dropped"},
		}},
		"every field": {
			Domain: "x.gov.", ParentZone: "gov.", ParentResponded: true,
			ParentNS: []dnsname.Name{"ns1.x.gov."}, ParentAuthoritative: true,
			Addrs:   []HostAddrs{{"ns1.x.gov.", []netip.Addr{v4}}},
			Servers: []ServerResponse{{Host: "ns1.x.gov.", Addr: v4, OK: true, Authoritative: true, NS: []dnsname.Name{"ns1.x.gov."}}},
			Rounds:  2, Err: "resolver: timeout", ErrTransient: true,
			Faults: FaultCounts{Duplicates: 1, Truncations: 2, QIDMismatches: 3, QuestionMismatches: 4, Malformed: 1 << 63},
		},
		"negative rounds": {Domain: "x.gov.", Rounds: -1},
	}
	for _, r := range goldenResults() {
		cases["golden "+string(r.Domain)] = r
	}
	for i, s := range oddStrings {
		n := dnsname.Name(s)
		cases["odd string "+string(rune('a'+i))] = &DomainResult{
			Domain: n, ParentZone: n, ParentNS: []dnsname.Name{n, "ns1.x.gov."},
			Addrs:   []HostAddrs{{n, []netip.Addr{v4}}, {"ns1.x.gov.", nil}},
			Servers: []ServerResponse{{Host: n, Addr: v4, NS: []dnsname.Name{n}, Err: s}},
			Err:     s,
		}
	}
	// Each fault class alone: the others' zero counts are omitted.
	for i := range 5 {
		var f FaultCounts
		counts := []*uint64{&f.Duplicates, &f.Truncations, &f.QIDMismatches, &f.QuestionMismatches, &f.Malformed}
		*counts[i] = uint64(i + 1)
		cases["fault class "+string(rune('a'+i))] = &DomainResult{Domain: "x.gov.", Faults: f}
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) { checkResultJSON(t, r) })
	}
}

// FuzzResultJSON differentially fuzzes the hand-written result line
// against encoding/json. The input's line, when it decodes, gives the
// result's shape; s and the bits of knobs then reach what no decoded
// line carries: raw bytes in every string field, nil against empty
// lists, invalid and zoned addresses, any rcode and every fault class.
func FuzzResultJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "results.golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	for i, line := range lines {
		f.Add(line, "", uint64(0))
		// Each odd string goes in through one knob bit, the bits taken in
		// turn across lines, with a rounds value in the high word.
		for j, s := range oddStrings {
			f.Add(line, s, uint64(1)<<((i*len(oddStrings)+j)%24)|uint64(j+1)<<32)
		}
	}
	f.Add([]byte(nil), "ns1.x.gov.", ^uint64(0))

	f.Fuzz(func(t *testing.T, line []byte, s string, knobs uint64) {
		checkResultJSON(t, fuzzResult(line, s, knobs))
	})
}

// fuzzResult decodes one FuzzResultJSON input into a result.
func fuzzResult(line []byte, s string, knobs uint64) *DomainResult {
	r := &DomainResult{}
	var in resultJSON
	if json.Unmarshal(line, &in) == nil {
		if decoded, err := fromResultJSON(&in); err == nil {
			r = decoded
		}
	}
	bit := func(i int) bool { return knobs>>i&1 == 1 }
	name := dnsname.Name(s)
	if bit(0) {
		r.Domain = name
	}
	if bit(1) {
		r.ParentZone = name
	}
	switch {
	case bit(2):
		r.ParentNS = append(r.ParentNS, name)
	case bit(3):
		r.ParentNS = []dnsname.Name{}
	case bit(4):
		r.ParentNS = nil
	}
	switch {
	case bit(5):
		r.Addrs = nil
	case bit(6):
		r.Addrs = []HostAddrs{}
	}
	if bit(7) || bit(8) || bit(9) {
		if r.Addrs == nil {
			r.Addrs = []HostAddrs{}
		}
		var addrs []netip.Addr
		if bit(8) {
			addrs = append(addrs, netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("9.0.0.2"), netip.Addr{})
		}
		if bit(9) {
			addrs = append(addrs, netip.MustParseAddr("fe80::1").WithZone(s))
		}
		setAddrs(r, name, addrs)
	}
	if bit(10) {
		r.Err = s
	}
	if bit(11) {
		r.ErrTransient = !r.ErrTransient
	}
	if bit(12) {
		r.ParentResponded = !r.ParentResponded
		r.ParentAuthoritative = !r.ParentAuthoritative
	}
	if bit(13) {
		r.Rounds = int(int32(knobs >> 32))
	}
	if bit(14) || bit(15) || bit(16) {
		sr := ServerResponse{Host: name, OK: bit(17), Authoritative: bit(18), RCode: dnswire.RCode(knobs >> 24), Err: s}
		switch {
		case bit(14):
			sr.Addr = netip.MustParseAddr("10.0.0.1")
		case bit(15):
			sr.Addr = netip.MustParseAddr("fe80::1").WithZone(s)
		}
		if bit(19) {
			sr.NS = []dnsname.Name{name, "ns1.x.gov."}
		} else if bit(20) {
			sr.NS = []dnsname.Name{}
		}
		r.Servers = append(r.Servers, sr)
	}
	if bit(21) {
		f := knobs >> 40
		r.Faults = FaultCounts{
			Duplicates: f & 1, Truncations: f >> 1 & 1, QIDMismatches: f >> 2 & 1,
			QuestionMismatches: f >> 3 & 1, Malformed: f >> 4,
		}
	}
	return r
}

// TestEmitAllocatesNothing is the emit path's allocation gate: after
// one pass over the golden results has grown every scratch buffer, the
// digest record, the rendered line and the whole emit (line, buffered
// write, byte hash, digest) cost no heap object per result, and neither
// does a one-shot Digest of each result on its own.
func TestEmitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	results := goldenResults()
	acc := NewDigestAccumulator()
	var enc jsonlEncoder
	var line []byte
	sw := NewStreamWriter(io.Discard, StreamConfig{})
	pass := map[string]func(){
		"DigestAccumulator.Add": func() {
			for _, r := range results {
				acc.Add(r)
			}
		},
		"appendResultJSON": func() {
			for _, r := range results {
				line = enc.appendResultJSON(line[:0], r)
			}
		},
		"Digest": func() {
			for i := range results {
				_ = Digest(results[i : i+1])
			}
		},
		"StreamWriter.emitLocked": func() {
			sw.mu.Lock()
			defer sw.mu.Unlock()
			for _, r := range results {
				sw.emitLocked(r)
			}
		},
	}
	for name, run := range pass {
		run()
		if n := testing.AllocsPerRun(50, run); n != 0 {
			t.Errorf("%s: %.1f allocations per pass over %d results, want 0", name, n, len(results))
		}
	}
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStreamOffer measures the writer's per-result cost: in-order
// Offer of the golden results onto io.Discard, without checkpoints. One
// op is one result.
func BenchmarkStreamOffer(b *testing.B) {
	results := goldenResults()
	sw := NewStreamWriter(io.Discard, StreamConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.Offer(i, results[i%len(results)]); err != nil {
			b.Fatal(err)
		}
	}
}
