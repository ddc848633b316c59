package measure

import (
	"bytes"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenResults is a fixed result set exercising every serialized field:
// a healthy domain with fault counters from a chaotic-but-recovered
// scan, a transient walk failure, a lame delegation with per-server
// errors, and a minimal no-delegation record.
func goldenResults() []*DomainResult {
	return []*DomainResult{
		{
			Domain:          "city.gov.br.",
			ParentZone:      "gov.br.",
			ParentResponded: true,
			ParentNS:        []dnsname.Name{"ns1.city.gov.br.", "ns2.city.gov.br."},
			Addrs: []HostAddrs{
				{Host: "ns1.city.gov.br.", Addrs: []netip.Addr{netip.MustParseAddr("4.0.0.1")}},
				{Host: "ns2.city.gov.br.", Addrs: []netip.Addr{netip.MustParseAddr("4.0.1.1")}},
				// Multi-address host whose netip.Addr.Less order differs
				// from lexicographic string order ("10.0.0.1" < "9.0.0.2"
				// as strings): pins the canonical address order on disk.
				{Host: "ns3.city.gov.br.", Addrs: []netip.Addr{netip.MustParseAddr("9.0.0.2"), netip.MustParseAddr("10.0.0.1")}},
			},
			Servers: []ServerResponse{
				{Host: "ns1.city.gov.br.", Addr: netip.MustParseAddr("4.0.0.1"),
					OK: true, Authoritative: true,
					NS: []dnsname.Name{"ns1.city.gov.br.", "ns2.city.gov.br."}},
				{Host: "ns2.city.gov.br.", Addr: netip.MustParseAddr("4.0.1.1"),
					OK: true, Authoritative: true,
					NS: []dnsname.Name{"ns1.city.gov.br.", "ns2.city.gov.br."}},
			},
			Rounds: 2,
			Faults: FaultCounts{
				Duplicates:         1,
				Truncations:        2,
				QIDMismatches:      3,
				QuestionMismatches: 4,
				Malformed:          5,
			},
		},
		{
			Domain:       "flaky.gov.br.",
			Rounds:       2,
			Err:          "resolver: timeout",
			ErrTransient: true,
		},
		{
			Domain:              "lame.gov.br.",
			ParentZone:          "gov.br.",
			ParentResponded:     true,
			ParentAuthoritative: true,
			ParentNS:            []dnsname.Name{"ns1.lame.gov.br.", "ns2.lame.gov.br."},
			Addrs: []HostAddrs{
				{Host: "ns1.lame.gov.br.", Addrs: []netip.Addr{netip.MustParseAddr("4.1.0.1")}},
				{Host: "ns2.lame.gov.br.", Addrs: nil},
			},
			Servers: []ServerResponse{
				{Host: "ns1.lame.gov.br.", Addr: netip.MustParseAddr("4.1.0.1"),
					OK: true, RCode: dnswire.RCodeRefused},
			},
			Rounds: 1,
			Faults: FaultCounts{Truncations: 7},
		},
		{
			Domain:          "gone.gov.br.",
			ParentZone:      "gov.br.",
			ParentResponded: true,
			Rounds:          1,
		},
	}
}

// TestJSONLFieldRoundTrip is the table-driven schema check: every
// analysis-relevant field of every golden result must survive
// WriteJSONL→ReadJSONL unchanged, including the chaos-era additions
// (per-class fault counters and the transient-error flag).
func TestJSONLFieldRoundTrip(t *testing.T) {
	results := goldenResults()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, results); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	loaded, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(loaded) != len(results) {
		t.Fatalf("round trip returned %d results, want %d", len(loaded), len(results))
	}

	for i, want := range results {
		got := loaded[i]
		fields := []struct {
			name      string
			got, want any
		}{
			{"Domain", got.Domain, want.Domain},
			{"ParentZone", got.ParentZone, want.ParentZone},
			{"ParentResponded", got.ParentResponded, want.ParentResponded},
			{"ParentNS", got.ParentNS, want.ParentNS},
			{"ParentAuthoritative", got.ParentAuthoritative, want.ParentAuthoritative},
			{"Servers", got.Servers, want.Servers},
			{"Rounds", got.Rounds, want.Rounds},
			{"Err", got.Err, want.Err},
			{"ErrTransient", got.ErrTransient, want.ErrTransient},
			{"Faults", got.Faults, want.Faults},
		}
		for _, f := range fields {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s: %s = %+v after round trip, want %+v", want.Domain, f.name, f.got, f.want)
			}
		}
		// Addrs: nil (unresolvable) and empty entries are equivalent in
		// the schema; compare the address sets per host.
		for _, h := range want.Addrs {
			if g := got.AddrsOf(h.Host); !reflect.DeepEqual(g, h.Addrs) && len(g)+len(h.Addrs) > 0 {
				t.Errorf("%s: AddrsOf(%s) = %v after round trip, want %v", want.Domain, h.Host, g, h.Addrs)
			}
		}
		// Derived predicates must agree too — they are what analyses use.
		if got.Classify() != want.Classify() {
			t.Errorf("%s: Classify() = %s after round trip, want %s", want.Domain, got.Classify(), want.Classify())
		}
	}
}

// TestJSONLWriteReadWriteByteIdentity pins the canonicalization fix:
// serialization sorts addresses by netip.Addr.Less (not string order)
// and deserialization re-sorts, so write→read→write is byte-identical
// and the digest survives a round trip — even when the in-memory
// result arrives with addresses out of order, as a legacy
// lexicographically-sorted archive would after loading.
func TestJSONLWriteReadWriteByteIdentity(t *testing.T) {
	results := goldenResults()
	// Present one multi-address host in reversed (former lexicographic)
	// order: the writer must canonicalize rather than trust the caller.
	setAddrs(results[0], "ns3.city.gov.br.", []netip.Addr{
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("9.0.0.2"),
	})

	var first bytes.Buffer
	if err := WriteJSONL(&first, results); err != nil {
		t.Fatalf("first WriteJSONL: %v", err)
	}
	loaded, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	var second bytes.Buffer
	if err := WriteJSONL(&second, loaded); err != nil {
		t.Fatalf("second WriteJSONL: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("write→read→write not byte-identical:\nfirst:\n%s\nsecond:\n%s",
			first.Bytes(), second.Bytes())
	}
	if got, want := DigestHex(loaded), DigestHex(results); got != want {
		t.Errorf("digest changed across round trip: %s != %s", got, want)
	}
}

// TestJSONLGolden pins the on-disk schema: the serialization of the
// golden results must match testdata/results.golden.jsonl byte for
// byte, so schema changes are visible in review (regenerate with
// `go test ./internal/measure -run Golden -update`).
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, goldenResults()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	path := filepath.Join("testdata", "results.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("serialization diverged from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// The golden bytes must also load back cleanly.
	if _, err := ReadJSONL(bytes.NewReader(want)); err != nil {
		t.Errorf("golden file does not parse: %v", err)
	}
}
