package worldgen

import (
	"context"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
	"govdns/internal/resolver"
	"govdns/internal/stats"
)

// testConfig keeps generation fast: ~2% of paper scale.
func testConfig() Config {
	return Config{Seed: 7, Scale: 0.02}
}

var (
	_cachedWorld  *World
	_cachedActive *Active
)

// sharedWorld generates one world per test binary; generation is
// deterministic so sharing is safe for read-only tests.
func sharedWorld(t *testing.T) (*World, *Active) {
	t.Helper()
	if _cachedWorld == nil {
		_cachedWorld = Generate(testConfig())
		_cachedActive = Build(_cachedWorld)
	}
	return _cachedWorld, _cachedActive
}

func TestCountriesDataset(t *testing.T) {
	countries := Countries()
	if len(countries) != 193 {
		t.Fatalf("Countries() = %d entries, want 193 UN member states", len(countries))
	}
	seenCode := make(map[string]bool)
	seenSuffix := make(map[dnsname.Name]bool)
	subRegions := make(map[string]bool)
	for _, country := range countries {
		if seenCode[country.Code] {
			t.Errorf("duplicate country code %s", country.Code)
		}
		seenCode[country.Code] = true
		if seenSuffix[country.Suffix] {
			t.Errorf("duplicate suffix %s", country.Suffix)
		}
		seenSuffix[country.Suffix] = true
		if country.Weight <= 0 {
			t.Errorf("%s has non-positive weight", country.Code)
		}
		subRegions[country.SubRegion] = true
	}
	if len(subRegions) != 22 {
		t.Errorf("got %d sub-regions, want 22 UN M49 sub-regions", len(subRegions))
	}
	// Paper groups: 22 sub-regions + 10 singleton countries, where the
	// singletons leave their sub-region (which may then still contain
	// other countries) — in total 32 groups.
	top := make(map[string]bool, 10)
	for _, country := range TopByWeight(countries, 10) {
		top[country.Code] = true
	}
	distinct := make(map[string]bool)
	for _, country := range countries {
		if top[country.Code] {
			distinct[country.Name] = true
		} else {
			distinct[country.SubRegion] = true
		}
	}
	if len(distinct) != 32 {
		t.Errorf("got %d groups, want 32 (Table II footnote)", len(distinct))
	}
}

func TestTopByWeight(t *testing.T) {
	top := TopByWeight(Countries(), 10)
	if len(top) != 10 {
		t.Fatalf("TopByWeight returned %d", len(top))
	}
	if top[0].Code != "cn" {
		t.Errorf("largest country = %s, want cn", top[0].Code)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Weight > top[i-1].Weight {
			t.Errorf("TopByWeight not descending at %d", i)
		}
	}
}

func TestProfilesResolve(t *testing.T) {
	for _, country := range Countries() {
		p := profileFor(country)
		if len(p.Growth) != 10 {
			t.Errorf("%s: growth curve has %d points", country.Code, len(p.Growth))
		}
		if p.SingleNS < 0 || p.SingleNS > 1 || p.MultiIP < 0 || p.MultiIP > 1 {
			t.Errorf("%s: rates out of range: %+v", country.Code, p)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(Config{Seed: 3, Scale: 0.005})
	w2 := Generate(Config{Seed: 3, Scale: 0.005})
	if len(w1.Domains) != len(w2.Domains) {
		t.Fatalf("domain counts differ: %d vs %d", len(w1.Domains), len(w2.Domains))
	}
	for i := range w1.Domains {
		a, b := w1.Domains[i], w2.Domains[i]
		if a.Name != b.Name || a.Born != b.Born || a.Died != b.Died || a.Cond != b.Cond {
			t.Fatalf("domain %d differs: %+v vs %+v", i, a, b)
		}
	}
	if w1.PDNS.Len() != w2.PDNS.Len() {
		t.Fatalf("PDNS sizes differ: %d vs %d", w1.PDNS.Len(), w2.PDNS.Len())
	}
}

func TestGenerateGrowthShape(t *testing.T) {
	w, _ := sharedWorld(t)
	countByYear := func(y int) int {
		n := 0
		for _, d := range w.Domains {
			if d.AliveIn(y) {
				n++
			}
		}
		return n
	}
	n2011, n2019, n2020 := countByYear(2011), countByYear(2019), countByYear(2020)
	if n2020 <= n2011 {
		t.Errorf("population did not grow: %d (2011) -> %d (2020)", n2011, n2020)
	}
	ratio := float64(n2020) / float64(n2011)
	// Paper: 192.6k/113.5k = 1.7.
	if ratio < 1.4 || ratio > 2.1 {
		t.Errorf("growth ratio = %.2f, want near 1.7", ratio)
	}
	_ = n2019
}

func TestGenerateSingleNSShare(t *testing.T) {
	w, _ := sharedWorld(t)
	singles, total := 0, 0
	for _, d := range w.Domains {
		if !d.AliveIn(2020) {
			continue
		}
		total++
		if d.SingleNS {
			singles++
		}
	}
	share := stats.Rate(singles, total)
	// Paper: 5.9k/192.6k = 3.1% in the 2020 PDNS.
	if share < 0.015 || share > 0.08 {
		t.Errorf("single-NS share 2020 = %.3f, want near 0.031", share)
	}
}

func TestGeneratePDNSPopulated(t *testing.T) {
	w, _ := sharedWorld(t)
	if w.PDNS.Len() == 0 {
		t.Fatal("PDNS store is empty")
	}
	// Every alive domain must have NS records in the store.
	missing := 0
	for _, d := range w.Domains {
		if d.Died != 0 {
			continue
		}
		if len(w.PDNS.Lookup(d.Name, dnswire.TypeNS)) == 0 {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d alive domains missing from PDNS", missing)
	}
}

func TestConditionRatesRoughlyMatchProfiles(t *testing.T) {
	w, _ := sharedWorld(t)
	brIdx := w.countryIndex("br")
	var partial, total int
	for _, d := range w.Domains {
		if d.CountryIdx != brIdx || d.Died != 0 || d.SingleNS {
			continue
		}
		total++
		switch d.Cond {
		case CondPartialLameShared, CondPartialLameOwn, CondTypo:
			partial++
		}
	}
	if total < 50 {
		t.Skipf("too few Brazilian domains at test scale: %d", total)
	}
	rate := stats.Rate(partial, total)
	want := w.Profiles[brIdx].PartialLame
	if rate < want*0.6 || rate > want*1.4 {
		t.Errorf("Brazil partial-lame rate = %.3f, want near %.3f", rate, want)
	}
}

func TestBuildActiveIsResolvable(t *testing.T) {
	w, active := sharedWorld(t)
	client := resolver.NewClient(active.Net)
	client.Timeout = 25 * time.Millisecond
	client.Retries = 1
	it := resolver.NewIterator(client, active.Roots)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Every healthy multi-NS domain must be fully resolvable via a
	// delegation walk from the root. Spot-check a sample.
	checked := 0
	for _, d := range w.Domains {
		if checked >= 25 {
			break
		}
		if d.Cond != CondHealthy || d.Died != 0 || d.SingleNS {
			continue
		}
		if d.Name == w.Countries[d.CountryIdx].Suffix {
			continue
		}
		checked++
		deleg, err := it.Delegation(ctx, d.Name)
		if err != nil {
			t.Errorf("Delegation(%s) [%s, %s]: %v", d.Name, w.Countries[d.CountryIdx].Code, d.Cond, err)
			continue
		}
		if len(deleg.Hosts) != len(d.Final().NS) {
			t.Errorf("Delegation(%s): %d hosts, want %d", d.Name, len(deleg.Hosts), len(d.Final().NS))
		}
	}
	if checked == 0 {
		t.Fatal("no healthy domains to check")
	}
}

func TestBuildStaleDomainsAreLame(t *testing.T) {
	w, active := sharedWorld(t)
	client := resolver.NewClient(active.Net)
	client.Timeout = 15 * time.Millisecond
	client.Retries = 0
	it := resolver.NewIterator(client, active.Roots)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	checked := 0
	for _, d := range w.Domains {
		if checked >= 8 {
			break
		}
		if d.Cond != CondStaleDelegation || !d.DelegatedAtScan() {
			continue
		}
		checked++
		deleg, err := it.Delegation(ctx, d.Name)
		if err != nil {
			continue // acceptable: resolution may fail outright
		}
		// The delegation exists, but no listed server may answer for
		// the zone.
		for _, host := range deleg.Hosts {
			addrs, err := it.AppendHostAddrs(ctx, nil, host)
			if err != nil {
				continue
			}
			for _, addr := range addrs {
				resp, err := client.QueryArena(ctx, new(dnswire.Arena), addr, d.Name, dnswire.TypeNS)
				if err != nil {
					continue
				}
				if resp.Header.Authoritative && resp.Header.RCode == dnswire.RCodeNoError {
					t.Errorf("stale domain %s got an authoritative answer from %s", d.Name, addr)
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no stale domains at this scale")
	}
}

func TestBuildDanglingDomainsAvailable(t *testing.T) {
	// Dangling domains outside government suffixes must be registrable;
	// typo domains that fall inside a restricted government suffix must
	// not be (they are typos of in-government nameservers and pose no
	// hijacking risk, exactly as the paper observes).
	w, active := sharedWorld(t)
	suffixes := SuffixSet(w.Countries)
	found, restricted := 0, 0
	for _, d := range w.Domains {
		if d.DanglingDomain == "" || d.Cond == CondParked {
			continue
		}
		if _, underGov := suffixes.LongestSuffix(d.DanglingDomain); underGov {
			restricted++
			if active.Reg.Available(d.DanglingDomain) {
				t.Errorf("in-government typo domain %s is registrable", d.DanglingDomain)
			}
			continue
		}
		found++
		if !active.Reg.Available(d.DanglingDomain) {
			t.Errorf("dangling domain %s not available for registration", d.DanglingDomain)
		}
	}
	if found == 0 && restricted == 0 {
		t.Skip("no dangling domains at this scale")
	}
}

func TestBuildGeoIPCoversNameservers(t *testing.T) {
	w, active := sharedWorld(t)
	missing := 0
	for _, d := range w.Domains {
		if d.Died != 0 || d.Cond != CondHealthy {
			continue
		}
		for _, host := range d.Final().NS {
			for _, addr := range active.AddrsOf(host) {
				if _, ok := active.Geo.ASN(addr); !ok {
					missing++
				}
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d nameserver addresses missing from GeoIP", missing)
	}
}

func TestBuildDiversityRealized(t *testing.T) {
	w, active := sharedWorld(t)
	for _, d := range w.Domains {
		if d.Died != 0 || d.SingleNS || d.Cond != CondHealthy {
			continue
		}
		final := d.Final()
		if final.Kind != HostPrivate && final.Kind != HostCentral {
			continue
		}
		ips := make(map[string]bool)
		p24 := make(map[uint32]bool)
		asns := make(map[uint32]bool)
		for _, host := range final.NS {
			for _, addr := range active.AddrsOf(host) {
				ips[addr.String()] = true
				rec, err := active.Geo.Lookup(addr)
				if err != nil {
					t.Fatalf("GeoIP miss for %v", addr)
				}
				asns[rec.ASN] = true
				p24[prefix24(addr)] = true
			}
		}
		switch d.Div {
		case DivSameIP:
			if len(ips) != 1 {
				t.Errorf("%s (same-ip): %d IPs", d.Name, len(ips))
			}
		case DivSame24:
			if len(ips) < 2 || len(p24) != 1 {
				t.Errorf("%s (same-24): %d IPs, %d prefixes", d.Name, len(ips), len(p24))
			}
		case DivMulti24:
			if len(p24) < 2 || len(asns) != 1 {
				t.Errorf("%s (multi-24): %d prefixes, %d ASNs", d.Name, len(p24), len(asns))
			}
		case DivMultiASN:
			if len(asns) < 2 {
				t.Errorf("%s (multi-asn): %d ASNs", d.Name, len(asns))
			}
		}
	}
}

func TestQueryListContainsAliveAndStale(t *testing.T) {
	w, active := sharedWorld(t)
	inList := make(map[dnsname.Name]bool, len(active.QueryList))
	for _, n := range active.QueryList {
		inList[n] = true
	}
	for _, d := range w.Domains {
		if d.Died == 0 && !inList[d.Name] {
			t.Errorf("alive domain %s missing from query list", d.Name)
		}
		if d.Died != 0 && d.Died < w.Cfg.EndYear-2 && inList[d.Name] {
			t.Errorf("long-dead domain %s in query list", d.Name)
		}
	}
	for _, g := range w.GhostNames {
		if !inList[g] {
			t.Errorf("ghost child %s missing from query list", g)
		}
	}
}

// TestQueryListStrictlyIncreasing pins the scan order every command
// feeds the scanner: canonical dnsname.Compare order with no name
// twice, so a stream and a slice scan of the list emit the same bytes.
func TestQueryListStrictlyIncreasing(t *testing.T) {
	_, active := sharedWorld(t)
	if len(active.QueryList) == 0 {
		t.Fatal("empty query list")
	}
	for i := 1; i < len(active.QueryList); i++ {
		if a, b := active.QueryList[i-1], active.QueryList[i]; dnsname.Compare(a, b) >= 0 {
			t.Fatalf("QueryList[%d] = %s does not follow QueryList[%d] = %s", i, b, i-1, a)
		}
	}
}

func TestPDNSStabilityFilterRemovesTransients(t *testing.T) {
	w, _ := sharedWorld(t)
	all := pdns.NewView(w.PDNS.Snapshot())
	stable := all.Stable(pdns.StabilityFilterDays)
	if len(stable.Sets) >= len(all.Sets) {
		t.Errorf("stability filter removed nothing: %d -> %d", len(all.Sets), len(stable.Sets))
	}
	for _, rs := range stable.Sets {
		if rs.RData == "ns1.ddos-shield.net." || rs.RData == "ns2.ddos-shield.net." || rs.RData == "ns3.ddos-shield.net." {
			if rs.DurationDays() < pdns.StabilityFilterDays {
				t.Errorf("transient record survived the filter: %+v", rs)
			}
		}
	}
}

func prefix24(addr interface{ As4() [4]byte }) uint32 {
	b := addr.As4()
	return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
}

func TestBuildDeterministic(t *testing.T) {
	mk := func() *Active {
		return Build(Generate(Config{Seed: 13, Scale: 0.004}))
	}
	a, b := mk(), mk()
	if len(a.QueryList) != len(b.QueryList) {
		t.Fatalf("query lists differ in length: %d vs %d", len(a.QueryList), len(b.QueryList))
	}
	for i := range a.QueryList {
		if a.QueryList[i] != b.QueryList[i] {
			t.Fatalf("query lists differ at %d: %s vs %s", i, a.QueryList[i], b.QueryList[i])
		}
	}
	if a.Geo.Len() != b.Geo.Len() {
		t.Errorf("GeoIP sizes differ: %d vs %d", a.Geo.Len(), b.Geo.Len())
	}
	if a.Net.NumServers() != b.Net.NumServers() {
		t.Errorf("server counts differ: %d vs %d", a.Net.NumServers(), b.Net.NumServers())
	}
	// Address plans must match exactly.
	for _, d := range a.World.Domains {
		if d.Died != 0 {
			continue
		}
		for _, host := range d.Final().NS {
			x, y := a.AddrsOf(host), b.AddrsOf(host)
			if len(x) != len(y) {
				t.Fatalf("%s: address counts differ", host)
			}
			for i := range x {
				if x[i] != y[i] {
					t.Fatalf("%s: addresses differ: %v vs %v", host, x[i], y[i])
				}
			}
		}
	}
}

func TestProviderMarkets(t *testing.T) {
	w, _ := sharedWorld(t)
	table := adoptionTable()
	var cloudflare, azure adoption
	for _, a := range table {
		switch a.key {
		case "cloudflare":
			cloudflare = a
		case "azure":
			azure = a
		}
	}
	early := w.providerMarkets(cloudflare, 0)
	late := w.providerMarkets(cloudflare, 1)
	if len(early) != cloudflare.markets2011 || len(late) != cloudflare.markets2020 {
		t.Errorf("cloudflare markets = %d -> %d, want %d -> %d",
			len(early), len(late), cloudflare.markets2011, cloudflare.markets2020)
	}
	// Markets grow monotonically: early markets remain in the late set.
	for idx := range early {
		if !late[idx] {
			t.Errorf("country %d left cloudflare's market", idx)
		}
	}
	// Azure starts with no markets at all.
	if got := w.providerMarkets(azure, 0); len(got) != 0 {
		t.Errorf("azure 2011 markets = %d, want 0", len(got))
	}
	// Deterministic ordering.
	a1 := w.marketOrder("cloudflare")
	a2 := w.marketOrder("cloudflare")
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("market order not deterministic")
		}
	}
}
