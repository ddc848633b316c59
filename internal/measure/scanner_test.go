package measure

import (
	"bytes"
	"context"
	"net/netip"
	"slices"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/miniworld"
	"govdns/internal/resolver"
)

func newScanner(t *testing.T) (*miniworld.World, *Scanner) {
	t.Helper()
	w := miniworld.Build()
	c := resolver.NewClient(w.Net)
	c.Timeout = 20 * time.Millisecond
	c.Retries = 1
	return w, NewScanner(resolver.NewIterator(c, w.Roots))
}

func scanCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestScanHealthyDomain(t *testing.T) {
	_, s := newScanner(t)
	r := s.ScanDomain(scanCtx(t), "city.gov.br.")
	if !r.ParentResponded || !r.HasData() {
		t.Fatalf("result: %+v", r)
	}
	if r.ParentZone != "gov.br." {
		t.Errorf("ParentZone = %q", r.ParentZone)
	}
	if len(r.ParentNS) != 2 {
		t.Fatalf("ParentNS = %v", r.ParentNS)
	}
	if !r.Responsive() || r.HasDefect() {
		t.Errorf("healthy domain flagged defective: %+v", r.Servers)
	}
	child := r.ChildNS()
	if len(child) != 2 || child[0] != "ns1.city.gov.br." {
		t.Errorf("ChildNS = %v", child)
	}
	if refNSCount(r) != 2 {
		t.Errorf("|P ∪ C| = %d", refNSCount(r))
	}
	if got := len(r.AllAddrs()); got != 2 {
		t.Errorf("AllAddrs = %d", got)
	}
	if r.Rounds != 1 {
		t.Errorf("Rounds = %d", r.Rounds)
	}
}

// warmScanDomainAllocs is the heap-allocation ceiling for one warm,
// healthy, untraced ScanDomain of each of the miniworld's healthy
// domains: city.gov.br. has two NS hosts with glue and takes three
// exchanges, single.gov.br. one host, hosted.gov.br. two out-of-zone
// hosts, inconsistent.gov.br. parent and child NS sets that differ.
// What is left is the result's own blocks — the DomainResult, its
// Servers, its Addrs, one name array and one address array — and the
// walk's one string of owned host names; the round itself runs in
// recycled scratch, and an answered exchange costs nothing — a recycled
// attempt deadline, a lent simnet response, a pooled fan-out batch,
// unboxed in-flight marks and filtered sections on the codec arena.
// inconsistent.gov.br. also owns a copy of the one host only its child
// serves, once per server that names it.
// (city.gov.br. was 16 while each result had a map, a slice per host
// and a name clone per host, 25 before the exchange stopped
// allocating, 62 before the attempt's deadline became one object and
// the server rendered into arena scratch, 113 before the inline-first
// fan-out and the probe copy-out.)
var warmScanDomainAllocs = []struct {
	domain  dnsname.Name
	ceiling float64
}{
	{"city.gov.br.", 6},
	{"single.gov.br.", 6},
	{"hosted.gov.br.", 6},
	{"inconsistent.gov.br.", 8},
}

func TestScanDomainWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	_, s := newScanner(t)
	ctx := scanCtx(t)
	for _, tc := range warmScanDomainAllocs {
		r := s.ScanDomain(ctx, tc.domain)
		if !r.Responsive() || r.HasDefect() {
			t.Fatalf("%s is not healthy in the miniworld: %+v", tc.domain, r.Servers)
		}
		allocs := testing.AllocsPerRun(100, func() { s.ScanDomain(ctx, tc.domain) })
		if allocs > tc.ceiling {
			t.Errorf("warm healthy ScanDomain(%s) allocates %v times, ceiling %v", tc.domain, allocs, tc.ceiling)
		}
	}
}

func TestScanPartiallyLame(t *testing.T) {
	_, s := newScanner(t)
	r := s.ScanDomain(scanCtx(t), "lame.gov.br.")
	if !r.PartiallyDefective() {
		t.Fatalf("lame.gov.br not partially defective: %+v", r.Servers)
	}
	if r.FullyDefective() {
		t.Error("lame.gov.br flagged fully defective")
	}
	bad := refDefectiveServerHosts(r)
	if len(bad) != 1 || bad[0] != "ns2.lame.gov.br." {
		t.Errorf("defective hosts = %v", bad)
	}
}

func TestScanFullyLameRunsSecondRound(t *testing.T) {
	_, s := newScanner(t)
	r := s.ScanDomain(scanCtx(t), "dead.gov.br.")
	if !r.FullyDefective() {
		t.Fatalf("dead.gov.br not fully defective: %+v", r)
	}
	if r.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2 (second-round retry)", r.Rounds)
	}
	if r.Responsive() {
		t.Error("dead domain responsive")
	}
}

func TestScanSecondRoundDisabled(t *testing.T) {
	_, s := newScanner(t)
	s.SecondRound = false
	r := s.ScanDomain(scanCtx(t), "dead.gov.br.")
	if r.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", r.Rounds)
	}
}

func TestScanSingleNS(t *testing.T) {
	_, s := newScanner(t)
	r := s.ScanDomain(scanCtx(t), "single.gov.br.")
	if refNSCount(r) != 1 {
		t.Errorf("|P ∪ C| = %d, want 1", refNSCount(r))
	}
	if !r.Responsive() {
		t.Error("single.gov.br not responsive")
	}
}

func TestScanInconsistent(t *testing.T) {
	_, s := newScanner(t)
	r := s.ScanDomain(scanCtx(t), "inconsistent.gov.br.")
	if !r.HasData() {
		t.Fatalf("no data: %+v", r)
	}
	p, c := r.ParentNS, r.ChildNS()
	if len(p) != 2 || len(c) != 2 {
		t.Fatalf("P = %v, C = %v", p, c)
	}
	same := len(p) == len(c)
	for i := range p {
		if p[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Errorf("P and C should differ: P=%v C=%v", p, c)
	}
	// ns-count over the union: ns1, ns2 (parent), ns3 (child).
	if refNSCount(r) != 3 {
		t.Errorf("|P ∪ C| = %d, want 3", refNSCount(r))
	}
}

func TestScanDanglingNS(t *testing.T) {
	_, s := newScanner(t)
	r := s.ScanDomain(scanCtx(t), "dangling.gov.br.")
	if !r.HasData() {
		t.Fatalf("no data: %+v", r)
	}
	if !r.FullyDefective() {
		t.Error("dangling.gov.br should be fully defective")
	}
	if addrs := r.AddrsOf("ns.gone-provider.com."); addrs != nil {
		t.Errorf("dangling host resolved to %v", addrs)
	}
}

func TestScanRemovedDomain(t *testing.T) {
	_, s := newScanner(t)
	r := s.ScanDomain(scanCtx(t), "neverexisted.gov.br.")
	if !r.ParentResponded {
		t.Error("parent servers answered NXDOMAIN; ParentResponded should be true")
	}
	if r.HasData() {
		t.Error("NXDOMAIN produced data")
	}
}

func TestScanParentDead(t *testing.T) {
	w, s := newScanner(t)
	w.Net.Blackhole(miniworld.GovNS1Addr)
	w.Net.Blackhole(miniworld.GovNS2Addr)
	r := s.ScanDomain(scanCtx(t), "city.gov.br.")
	if r.ParentResponded {
		t.Error("ParentResponded with a dead parent zone")
	}
	if r.Err == "" {
		t.Error("no error recorded")
	}
}

func TestScanBulk(t *testing.T) {
	_, s := newScanner(t)
	s.Concurrency = 4
	domains := miniworld.Domains()
	results := s.Scan(scanCtx(t), domains)
	if len(results) != len(domains) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.Domain != domains[i] {
			t.Errorf("result %d out of order: %s", i, r.Domain)
		}
	}
	// Spot-check aggregate counts over the fixture.
	responsive := 0
	for _, r := range results {
		if r.Responsive() {
			responsive++
		}
	}
	// city, lame, single, hosted, inconsistent respond; dead and
	// dangling do not.
	if responsive != 5 {
		t.Errorf("responsive = %d, want 5", responsive)
	}
}

func TestScanCancelledContext(t *testing.T) {
	_, s := newScanner(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := s.Scan(ctx, []dnsname.Name{"city.gov.br.", "lame.gov.br."})
	for _, r := range results {
		if r == nil {
			t.Fatal("nil result after cancellation")
		}
		// Cancelled slots are normalized like every other result:
		// downstream code may range over Addrs and divide by Rounds
		// without special-casing an aborted scan.
		if r.Rounds < 1 {
			t.Errorf("%s: Rounds = %d after cancellation, want >= 1", r.Domain, r.Rounds)
		}
		if r.Addrs == nil {
			t.Errorf("%s: nil Addrs map after cancellation", r.Domain)
		}
		if r.Err == "" {
			t.Errorf("%s: cancelled result carries no error", r.Domain)
		}
	}
}

// TestScanResultsOwnTheirBlocks: a round is measured in scratch that
// the next domain reuses, and the result is copied out of it. So a
// result must share no list with the scratch or with another result:
// results keep their digests after the same scanner measures more
// domains — through Scan's workers and through ScanDomain — and writing
// through one result's NS and address lists changes no other result,
// and appending to one list changes no other list, not even one of the
// same result. Under -race it also checks that a worker's scratch is
// touched by one domain at a time.
func TestScanResultsOwnTheirBlocks(t *testing.T) {
	_, s := newScanner(t)
	s.Concurrency = 3
	s.PerDomainParallelism = 2
	ctx := scanCtx(t)
	list := []dnsname.Name{
		"city.gov.br.", "single.gov.br.", "hosted.gov.br.", "inconsistent.gov.br.",
		"lame.gov.br.", "dead.gov.br.", "dangling.gov.br.", "gone.gov.br.",
	}
	results := s.Scan(ctx, list)
	results = append(results, s.ScanDomain(ctx, "inconsistent.gov.br."), s.ScanDomain(ctx, "city.gov.br."))
	digests := make([]string, len(results))
	for i, r := range results {
		digests[i] = DigestHex([]*DomainResult{r})
	}
	check := func(when string, skip int) {
		t.Helper()
		for i, r := range results {
			if got := DigestHex([]*DomainResult{r}); i != skip && got != digests[i] {
				t.Errorf("%s: result %d (%s) changed", when, i, r.Domain)
			}
		}
	}

	s.Scan(ctx, slices.Concat(list, list))
	for _, d := range list {
		s.ScanDomain(ctx, d)
	}
	check("after the scanner measured more domains", -1)

	bogus := netip.MustParseAddr("203.0.113.250")
	for i, r := range results {
		// An append that fits in place would write past the list's end,
		// into whatever shares its block.
		_ = append(r.ParentNS, "appended.")
		_ = append(r.Servers, ServerResponse{Host: "appended."})
		_ = append(r.Addrs, HostAddrs{Host: "appended."})
		for j := range r.Servers {
			_ = append(r.Servers[j].NS, "appended.")
		}
		for j := range r.Addrs {
			_ = append(r.Addrs[j].Addrs, bogus)
		}
		check("after appending to the lists of result "+string(r.Domain), -1)

		for k := range r.ParentNS {
			r.ParentNS[k] = "mutated."
		}
		for j := range r.Servers {
			for k := range r.Servers[j].NS {
				r.Servers[j].NS[k] = "mutated."
			}
		}
		for j := range r.Addrs {
			for k := range r.Addrs[j].Addrs {
				r.Addrs[j].Addrs[k] = bogus
			}
		}
		check("after writing through result "+string(r.Domain), i)
		digests[i] = DigestHex([]*DomainResult{r})
	}
}

// TestScanMultiGlueChild pins the glue-handling fix: a delegation whose
// single NS host carries several glue A records (inserted at the parent
// in descending address order) must surface them in canonical
// netip.Addr.Less order, sorted in a slice the unit owns — not in one
// shared by fan-out workers, where concurrent sorts raced.
// Runs with fan-out > 1 so `make race` exercises the concurrent reads.
func TestScanMultiGlueChild(t *testing.T) {
	w := miniworld.Build()
	child := w.AddMultiGlueChild()
	c := resolver.NewClient(w.Net)
	c.Timeout = 20 * time.Millisecond
	c.Retries = 1
	s := NewScanner(resolver.NewIterator(c, w.Roots))
	s.PerDomainParallelism = 4

	r := s.ScanDomain(scanCtx(t), child)
	if r.Err != "" {
		t.Fatalf("scan failed: %s", r.Err)
	}
	got := r.AddrsOf("ns1.multiglue.gov.br.")
	want := []netip.Addr{miniworld.MultiGlueLowAddr, miniworld.MultiGlueHighAddr}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("glue addrs = %v, want %v (Less order)", got, want)
	}
	if !r.Responsive() {
		t.Errorf("multi-glue child unresponsive: %+v", r.Servers)
	}
	// The same scan must serialize and digest stably regardless of the
	// order glue arrived in.
	if d1, d2 := DigestHex([]*DomainResult{r}), DigestHex([]*DomainResult{r}); d1 != d2 {
		t.Errorf("digest unstable: %s != %s", d1, d2)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	_, s := newScanner(t)
	results := s.Scan(scanCtx(t), miniworld.Domains())

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, results); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	loaded, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(loaded) != len(results) {
		t.Fatalf("round trip changed count: %d -> %d", len(results), len(loaded))
	}
	for i, orig := range results {
		got := loaded[i]
		if got.Domain != orig.Domain || got.ParentResponded != orig.ParentResponded {
			t.Errorf("result %d basics differ", i)
		}
		// Every derived predicate must survive the round trip: the
		// analyses run identically on archived scans.
		if got.Responsive() != orig.Responsive() ||
			got.FullyDefective() != orig.FullyDefective() ||
			got.PartiallyDefective() != orig.PartiallyDefective() ||
			refNSCount(got) != refNSCount(orig) {
			t.Errorf("result %d predicates differ after round trip", i)
		}
		if len(got.AllAddrs()) != len(orig.AllAddrs()) {
			t.Errorf("result %d addrs differ", i)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewReader([]byte("{oops"))); err == nil {
		t.Error("ReadJSONL accepted garbage")
	}
	if _, err := ReadJSONL(bytes.NewReader([]byte(`{"domain":"x.gov.br.","addrs":{"bad..name":["1.2.3.4"]}}`))); err == nil {
		t.Error("ReadJSONL accepted a bad hostname")
	}
	if _, err := ReadJSONL(bytes.NewReader([]byte(`{"domain":"x.gov.br.","addrs":{"ns1.x.gov.br.":["zap"]}}`))); err == nil {
		t.Error("ReadJSONL accepted a bad address")
	}
}
