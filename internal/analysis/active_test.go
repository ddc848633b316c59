package analysis

import (
	"context"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/geoip"
	"govdns/internal/measure"
	"govdns/internal/miniworld"
	"govdns/internal/pdns"
	"govdns/internal/providers"
	"govdns/internal/registrar"
	"govdns/internal/resolver"
)

// scanMiniworld runs the scanner over the fixture and returns results
// plus a GeoIP database covering the fixture's address plan.
func scanMiniworld(t *testing.T) ([]*measure.DomainResult, *geoip.DB) {
	t.Helper()
	w := miniworld.Build()
	c := resolver.NewClient(w.Net)
	c.Timeout = 20 * time.Millisecond
	c.Retries = 1
	s := measure.NewScanner(resolver.NewIterator(c, w.Roots))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results := s.Scan(ctx, miniworld.Domains())
	return results, fixtureGeoDB(t)
}

// fixtureGeoDB covers the fixture's hand-picked address plan: each /16
// is its own AS.
func fixtureGeoDB(t *testing.T) *geoip.DB {
	t.Helper()
	csv := `4.0.0.0,4.0.255.255,64500,"Gov BR City"
4.1.0.0,4.1.255.255,64501,"Gov BR Lame"
4.2.0.0,4.2.255.255,64502,"Gov BR Dead"
4.3.0.0,4.3.255.255,64503,"Gov BR Single"
4.4.0.0,4.4.255.255,64504,"Gov BR Inc"
5.0.0.0,5.0.255.255,64510,"Provider"
`
	db, err := geoip.ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatalf("fixture GeoIP: %v", err)
	}
	return db
}

func miniMapper() *Mapper {
	return NewMapper([]Country{{Code: "br", Name: "Brazil", SubRegion: "South America", Suffix: "gov.br."}})
}

func TestReplicationActiveOnFixture(t *testing.T) {
	results, _ := scanMiniworld(t)
	ar := ReplicationActive(results, miniMapper())
	if ar.Queried != 7 {
		t.Errorf("Queried = %d", ar.Queried)
	}
	if ar.ParentResponded != 7 {
		t.Errorf("ParentResponded = %d", ar.ParentResponded)
	}
	if ar.WithData != 7 {
		t.Errorf("WithData = %d", ar.WithData)
	}
	// Single-NS domains: single (responds), dead and dangling (both
	// stale) — 2 of 3 have no authoritative response.
	if ar.SingleStalePct < 66 || ar.SingleStalePct > 67 {
		t.Errorf("SingleStalePct = %v, want 2/3", ar.SingleStalePct)
	}
	if len(ar.CountriesOver10PctSingle) != 1 || ar.CountriesOver10PctSingle[0] != "br" {
		t.Errorf("CountriesOver10PctSingle = %v", ar.CountriesOver10PctSingle)
	}
	if len(ar.NSCountCDF) == 0 {
		t.Fatal("empty CDF")
	}
	last := ar.NSCountCDF[len(ar.NSCountCDF)-1]
	if last.Fraction != 1 {
		t.Errorf("CDF does not reach 1: %v", last)
	}
}

func TestDiversityOnFixture(t *testing.T) {
	results, geo := scanMiniworld(t)
	rows := Diversity(results, geo, miniMapper(), []string{"br"})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	total := rows[0]
	if total.Scope != "Total" || total.Domains == 0 {
		t.Fatalf("total row = %+v", total)
	}
	// Fixture multi-NS responsive domains: city (2 IPs same AS block
	// 4.0), lame (responsive, 2 IPs), hosted (provider, 2 IPs one AS),
	// inconsistent (3 hosts across parent+child). All have >1 IP.
	if total.MultiIPPct != 100 {
		t.Errorf("MultiIPPct = %v", total.MultiIPPct)
	}
	if rows[1].Scope != "Brazil" || rows[1].Domains != total.Domains {
		t.Errorf("country row = %+v", rows[1])
	}
}

func TestLevelDistributionOnFixture(t *testing.T) {
	results, _ := scanMiniworld(t)
	dist := LevelDistribution(results)
	if dist[3] != 100 {
		t.Errorf("level distribution = %v (all fixture domains are level 3)", dist)
	}
}

func TestDelegationsOnFixture(t *testing.T) {
	results, _ := scanMiniworld(t)
	ds := Delegations(results, miniMapper())
	if ds.WithData != 7 {
		t.Fatalf("WithData = %d", ds.WithData)
	}
	// lame = partial; dead + dangling = full.
	if ds.Partial != 1 {
		t.Errorf("Partial = %d, want 1", ds.Partial)
	}
	if ds.Full != 2 {
		t.Errorf("Full = %d, want 2", ds.Full)
	}
	if ds.AnyDefect != 3 {
		t.Errorf("AnyDefect = %d, want 3", ds.AnyDefect)
	}
	br := ds.PerCountry["br"]
	if br.Domains != 7 || br.AnyDefect != 3 {
		t.Errorf("per-country = %+v", br)
	}
}

func TestHijackRisksOnFixture(t *testing.T) {
	results, _ := scanMiniworld(t)
	reg := registrar.New(dnsname.NewSuffixSet("gov.br"))
	reg.MarkRegistered("provider.com.")
	hr := HijackRisks(results, miniMapper(), reg)
	// Only dangling.gov.br points at a registrable domain
	// (gone-provider.com); dead.gov.br's host is in-government.
	if len(hr.AvailableNSDomains) != 1 || hr.AvailableNSDomains[0] != "gone-provider.com." {
		t.Fatalf("AvailableNSDomains = %v", hr.AvailableNSDomains)
	}
	if hr.AffectedDomains != 1 || hr.Countries != 1 {
		t.Errorf("affected = %d, countries = %d", hr.AffectedDomains, hr.Countries)
	}
	if hr.FullyUnresponsiveAffected != 1 {
		t.Errorf("FullyUnresponsiveAffected = %d", hr.FullyUnresponsiveAffected)
	}
	if len(hr.Prices) != 1 || hr.MedianPrice != hr.Prices[0] {
		t.Errorf("prices = %v median %v", hr.Prices, hr.MedianPrice)
	}
}

func TestConsistencyOnFixture(t *testing.T) {
	results, _ := scanMiniworld(t)
	cs := Consistency(results, miniMapper())
	// Responsive domains: city, lame, single, hosted, inconsistent.
	if cs.Responsive != 5 {
		t.Fatalf("Responsive = %d", cs.Responsive)
	}
	if cs.Counts[ClassEqual] != 4 {
		t.Errorf("ClassEqual = %d, want 4", cs.Counts[ClassEqual])
	}
	if cs.Counts[ClassIntersect] != 1 {
		t.Errorf("ClassIntersect = %d, want 1 (inconsistent.gov.br)", cs.Counts[ClassIntersect])
	}
	if cs.EqualPct != 80 {
		t.Errorf("EqualPct = %v", cs.EqualPct)
	}
	if v := cs.DisagreementPerCountry["br"]; v != 20 {
		t.Errorf("DisagreementPerCountry = %v", v)
	}
}

func TestClassifyTable(t *testing.T) {
	mk := func(p, c []dnsname.Name) *measure.DomainResult {
		r := &measure.DomainResult{Domain: "x.gov.br.", ParentResponded: true, ParentNS: p}
		r.Servers = []measure.ServerResponse{{
			Host: p[0], OK: true, Authoritative: true, NS: c,
		}}
		return r
	}
	a, b, c, d := dnsname.Name("a.x.gov.br."), dnsname.Name("b.x.gov.br."), dnsname.Name("c.x.gov.br."), dnsname.Name("d.x.gov.br.")
	cases := []struct {
		p, c []dnsname.Name
		want ConsistencyClass
	}{
		{[]dnsname.Name{a, b}, []dnsname.Name{a, b}, ClassEqual},
		{[]dnsname.Name{a, b, c}, []dnsname.Name{a, b}, ClassParentSuperset},
		{[]dnsname.Name{a}, []dnsname.Name{a, b}, ClassChildSuperset},
		{[]dnsname.Name{a, b}, []dnsname.Name{b, c}, ClassIntersect},
		{[]dnsname.Name{a, b}, []dnsname.Name{c, d}, ClassDisjoint},
	}
	for _, tc := range cases {
		r := mk(tc.p, tc.c)
		if got := classify(r, r.ChildNS()); got != tc.want {
			t.Errorf("classify(P=%v, C=%v) = %v, want %v", tc.p, tc.c, got, tc.want)
		}
	}
}

// renamedResult is a domain whose parent and child NS sets share no
// hostname, but whose hosts resolve to the same address: the
// rename-only migration case.
func renamedResult() *measure.DomainResult {
	shared := netip.MustParseAddr("203.0.113.9")
	r := &measure.DomainResult{
		Domain:          "x.gov.br.",
		ParentResponded: true,
		ParentNS:        []dnsname.Name{"old.x.gov.br."},
		Addrs: []measure.HostAddrs{
			{Host: "new.x.gov.br.", Addrs: []netip.Addr{shared}},
			{Host: "old.x.gov.br.", Addrs: []netip.Addr{shared}},
		},
	}
	r.Servers = []measure.ServerResponse{{
		Host: "old.x.gov.br.", Addr: shared, OK: true, Authoritative: true,
		NS: []dnsname.Name{"new.x.gov.br."},
	}}
	return r
}

func TestClassifyDisjointIPOverlap(t *testing.T) {
	r := renamedResult()
	if got := classify(r, r.ChildNS()); got != ClassDisjointIPOverlap {
		t.Errorf("classify = %v, want ClassDisjointIPOverlap", got)
	}
}

func TestDiversityByLevelOnFixture(t *testing.T) {
	results, geo := scanMiniworld(t)
	byLevel := DiversityByLevel(results, geo)
	// All fixture children are level 3.
	if _, ok := byLevel[3]; !ok {
		t.Fatalf("no level-3 entry: %v", byLevel)
	}
	if _, ok := byLevel[2]; ok {
		t.Errorf("unexpected level-2 entry: %v", byLevel)
	}
	row := byLevel[3]
	if row.Domains == 0 || row.MultiIPPct == 0 {
		t.Errorf("level-3 row = %+v", row)
	}
}

func TestAnalysesOnEmptyResults(t *testing.T) {
	m := miniMapper()
	if ar := ReplicationActive(nil, m); ar.Queried != 0 || len(ar.NSCountCDF) != 0 {
		t.Errorf("empty ReplicationActive = %+v", ar)
	}
	if ds := Delegations(nil, m); ds.WithData != 0 {
		t.Errorf("empty Delegations = %+v", ds)
	}
	if cs := Consistency(nil, m); cs.Responsive != 0 {
		t.Errorf("empty Consistency = %+v", cs)
	}
	rows := Diversity(nil, fixtureGeoDB(t), m, []string{"br"})
	if rows[0].Domains != 0 {
		t.Errorf("empty Diversity = %+v", rows[0])
	}
	if dist := LevelDistribution(nil); len(dist) != 0 {
		t.Errorf("empty LevelDistribution = %v", dist)
	}
}

// classifyBySets is classify's definition on explicit sets, kept as the
// reference for the scan-based implementation.
func classifyBySets(r *measure.DomainResult) ConsistencyClass {
	if !r.Responsive() {
		return ClassUnresponsive
	}
	p, c := map[dnsname.Name]bool{}, map[dnsname.Name]bool{}
	for _, h := range r.ParentNS {
		p[h] = true
	}
	for _, h := range r.ChildNS() {
		c[h] = true
	}
	if len(c) == 0 {
		return ClassUnresponsive
	}
	inter := 0
	for host := range c {
		if p[host] {
			inter++
		}
	}
	switch {
	case inter == len(p) && inter == len(c):
		return ClassEqual
	case inter == len(c) && len(p) > len(c):
		return ClassParentSuperset
	case inter == len(p) && len(c) > len(p):
		return ClassChildSuperset
	case inter > 0:
		return ClassIntersect
	}
	pAddrs := map[netip.Addr]bool{}
	for host := range p {
		for _, a := range r.AddrsOf(host) {
			pAddrs[a] = true
		}
	}
	for host := range c {
		for _, a := range r.AddrsOf(host) {
			if pAddrs[a] {
				return ClassDisjointIPOverlap
			}
		}
	}
	return ClassDisjoint
}

func TestClassifyMatchesSetDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hosts := []dnsname.Name{"a.x.gov.br.", "b.x.gov.br.", "c.x.gov.br.", "d.hoster.net.", "e.hoster.net."}
	pick := func(n int) []dnsname.Name {
		out := make([]dnsname.Name, rng.Intn(n+1))
		for i := range out {
			out[i] = hosts[rng.Intn(len(hosts))] // repeats included
		}
		return out
	}
	seen := map[ConsistencyClass]int{}
	for i := 0; i < 5000; i++ {
		r := &measure.DomainResult{Domain: "x.gov.br.", ParentResponded: true, ParentNS: pick(3)}
		for _, h := range hosts {
			r.Addrs = append(r.Addrs, measure.HostAddrs{Host: h, Addrs: []netip.Addr{netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(6))})}})
		}
		for k := rng.Intn(3); k >= 0; k-- {
			r.Servers = append(r.Servers, measure.ServerResponse{
				Host: hosts[rng.Intn(len(hosts))], OK: rng.Intn(5) > 0, Authoritative: true, NS: pick(3),
			})
		}
		got, want := classify(r, r.ChildNS()), classifyBySets(r)
		if got != want {
			t.Fatalf("classify = %v, set definition says %v\n%+v", got, want, r)
		}
		// The figures' unsorted child view: the same set, the same
		// class, and |P ∪ C| by its definition.
		child := childView(r, nil)
		sorted := slices.Clone(child)
		slices.SortFunc(sorted, dnsname.Compare)
		if !slices.Equal(sorted, r.ChildNS()) || (len(child) > 0) != r.Responsive() {
			t.Fatalf("childView = %v, ChildNS = %v\n%+v", child, r.ChildNS(), r)
		}
		if got := classify(r, child); got != want {
			t.Fatalf("classify(childView) = %v, set definition says %v\n%+v", got, want, r)
		}
		union := map[dnsname.Name]bool{}
		for _, h := range append(slices.Clone(r.ParentNS), child...) {
			union[h] = true
		}
		if got := unionLen(r.ParentNS, child); got != len(union) {
			t.Fatalf("unionLen = %d, want %d\n%+v", got, len(union), r)
		}
		seen[want]++
	}
	for class := ClassEqual; class <= ClassUnresponsive; class++ {
		if seen[class] == 0 {
			t.Errorf("no generated result was %v", class)
		}
	}
}

// TestActiveFiguresDoNotAllocatePerResult runs every active figure over
// a result set and over that set twice over: the allocations may grow
// with the distinct values a figure collects, which doubling does not
// add to, but not with the number of results.
func TestActiveFiguresDoNotAllocatePerResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	scanned, geo := scanMiniworld(t)
	moved := renamedResult()
	moved.Addrs[0].Addrs = []netip.Addr{netip.MustParseAddr("203.0.113.10")} // new.x.gov.br.: plain disjoint
	scanned = append(scanned, renamedResult(), moved)
	var rs []*measure.DomainResult
	for len(rs) < 100 {
		rs = append(rs, scanned...)
	}
	doubled := append(slices.Clone(rs), rs...)

	m := miniMapper()
	reg := registrar.New(dnsname.NewSuffixSet("gov.br"))
	reg.MarkRegistered("provider.com.")
	for _, f := range []struct {
		name string
		run  func([]*measure.DomainResult)
	}{
		{"ReplicationActive", func(rs []*measure.DomainResult) { ReplicationActive(rs, m) }},
		{"Diversity", func(rs []*measure.DomainResult) { Diversity(rs, geo, m, []string{"br"}) }},
		{"DiversityByLevel", func(rs []*measure.DomainResult) { DiversityByLevel(rs, geo) }},
		{"LevelDistribution", func(rs []*measure.DomainResult) { LevelDistribution(rs) }},
		{"Delegations", func(rs []*measure.DomainResult) { Delegations(rs, m) }},
		{"HijackRisks", func(rs []*measure.DomainResult) { HijackRisks(rs, m, reg) }},
		{"Consistency", func(rs []*measure.DomainResult) { Consistency(rs, m) }},
		{"InconsistencyHijacks", func(rs []*measure.DomainResult) { InconsistencyHijacks(rs, m, reg) }},
	} {
		once := testing.AllocsPerRun(5, func() { f.run(rs) })
		twice := testing.AllocsPerRun(5, func() { f.run(doubled) })
		// A slice that doubles as it is appended to may grow once more.
		if twice-once > 2 {
			t.Errorf("%s allocates %v times over %d results and %v over %d: it allocates per result",
				f.name, once, len(rs), twice, len(doubled))
		}
	}

	// The Table II/III tallies, over a corpus and over one with every
	// domain twice (under a second name).
	store, twiceStore := genStore(5), pdns.NewStore()
	for _, rs := range store.Snapshot() {
		for _, owner := range []dnsname.Name{rs.RRName, "copy-" + rs.RRName} {
			twiceStore.ObserveRange(owner, rs.RRType, rs.RData, rs.FirstSeen, rs.LastSeen)
		}
	}
	pa := NewProviderAnalysis(providers.Default(), testMapper(), []string{"cn"})
	for _, f := range []struct {
		name string
		run  func(*Corpus)
	}{
		{"MajorProvidersCorpus", func(c *Corpus) { pa.MajorProvidersCorpus(c, goldenEnd) }},
		{"TopProvidersCorpus", func(c *Corpus) { pa.TopProvidersCorpus(c, goldenEnd, 11) }},
	} {
		c := CompileCorpus(pdns.NewView(store.Snapshot()), pa.mapper, goldenStart, goldenEnd)
		c2 := CompileCorpus(pdns.NewView(twiceStore.Snapshot()), pa.mapper, goldenStart, goldenEnd)
		if len(c2.nsOwners) != 2*len(c.nsOwners) {
			t.Fatalf("doubled corpus has %d NS owners, want %d", len(c2.nsOwners), 2*len(c.nsOwners))
		}
		once := testing.AllocsPerRun(5, func() { f.run(c) })
		twice := testing.AllocsPerRun(5, func() { f.run(c2) })
		if twice-once > 2 {
			t.Errorf("%s allocates %v times over %d domains and %v over %d: it allocates per domain",
				f.name, once, len(c.nsOwners), twice, len(c2.nsOwners))
		}
	}
}
