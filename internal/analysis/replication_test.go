package analysis

import (
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
)

func testMapper() *Mapper {
	return NewMapper([]Country{
		{Code: "br", Name: "Brazil", SubRegion: "South America", Suffix: "gov.br."},
		{Code: "cn", Name: "China", SubRegion: "Eastern Asia", Suffix: "gov.cn."},
		{Code: "mx", Name: "Mexico", SubRegion: "Central America", Suffix: "gob.mx."},
	})
}

func day(y int, m time.Month, d int) pdns.Day { return pdns.Date(y, m, d) }

func TestMapperCountryOf(t *testing.T) {
	m := testMapper()
	c, ok := m.CountryOf("x.gov.br.")
	if !ok || c.Code != "br" {
		t.Errorf("CountryOf(x.gov.br.) = %+v, %v", c, ok)
	}
	if c, ok := m.CountryOf("gov.br."); !ok || c.Code != "br" {
		t.Errorf("CountryOf(gov.br.) = %+v, %v", c, ok)
	}
	if _, ok := m.CountryOf("example.com."); ok {
		t.Error("CountryOf matched a non-government domain")
	}
}

func TestMapperLongestSuffix(t *testing.T) {
	// A suffix nested below another: the deeper one wins, for a name
	// below it and for the suffix itself.
	m := NewMapper([]Country{
		{Code: "br", Suffix: "gov.br."},
		{Code: "sp", Suffix: "sp.gov.br."},
	})
	for _, tt := range []struct {
		name   dnsname.Name
		code   string // "" = unmapped
		suffix dnsname.Name
	}{
		{"x.sp.gov.br.", "sp", "sp.gov.br."},
		{"sp.gov.br.", "sp", "sp.gov.br."},
		{"a.b.gov.br.", "br", "gov.br."},
		{"gov.br.", "br", "gov.br."},
		{"br.", "", dnsname.Root},
		{dnsname.Root, "", dnsname.Root},
		{"sp.gov.br.example.", "", dnsname.Root},
		{"gov", "", dnsname.Root}, // no dot: the walk up must still end
	} {
		c, ok := m.CountryOf(tt.name)
		idx := m.countryIndexOf(tt.name)
		suffix, suffixOK := m.SuffixOf(tt.name)
		if c.Code != tt.code || ok != (tt.code != "") || suffix != tt.suffix || suffixOK != ok ||
			(idx < 0) == ok || ok && m.countries[idx] != c {
			t.Errorf("%s: CountryOf = %q, %v; countryIndexOf = %d; SuffixOf = %q, %v; want %q under %q",
				tt.name, c.Code, ok, idx, suffix, suffixOK, tt.code, tt.suffix)
		}
	}
}

func TestMapperIsPrivateHost(t *testing.T) {
	m := testMapper()
	if !m.IsPrivateHost("x.gov.br.", "ns1.x.gov.br.") {
		t.Error("in-domain host not private")
	}
	if !m.IsPrivateHost("x.gov.br.", "ns1.gov.br.") {
		t.Error("central host not private")
	}
	if m.IsPrivateHost("x.gov.br.", "ns1.provider.com.") {
		t.Error("provider host private")
	}
}

func TestMapperGroups(t *testing.T) {
	m := testMapper()
	groups, n := m.Groups([]string{"cn"})
	if groups["cn"] != "China" {
		t.Errorf("cn group = %q", groups["cn"])
	}
	if groups["br"] != "South America" {
		t.Errorf("br group = %q", groups["br"])
	}
	if n != 3 { // South America, Central America, China
		t.Errorf("group count = %d, want 3", n)
	}
}

func TestNSDomain(t *testing.T) {
	cases := []struct{ host, want string }{
		{"ns1.example.com.", "example.com."},
		{"a.b.example.com.", "example.com."},
		{"ns1.hoster.com.br.", "hoster.com.br."},
		{"ns-1.awsdns-00.co.uk.", "awsdns-00.co.uk."},
		{"short.com.", "short.com."},
		{"gov.br.", "gov.br."},
		{"x.gov.br.", "x.gov.br."},
		{"ns.x.gov.br.", "x.gov.br."},
		{"br.", "br."},
		{".", "."},
	}
	for _, tc := range cases {
		if got := NSDomain(dnsname.MustParse(tc.host)); got.String() != tc.want {
			t.Errorf("NSDomain(%s) = %s, want %s", tc.host, got, tc.want)
		}
	}
}

func TestNSDailyAndMode(t *testing.T) {
	// A domain with two NS records most of the year, one of which
	// disappears in November.
	sets := []pdns.RecordSet{
		{RRName: "x.gov.br.", RRType: dnswire.TypeNS, RData: "ns1.x.gov.br.",
			FirstSeen: day(2020, time.January, 1), LastSeen: day(2020, time.December, 31)},
		{RRName: "x.gov.br.", RRType: dnswire.TypeNS, RData: "ns2.x.gov.br.",
			FirstSeen: day(2020, time.January, 1), LastSeen: day(2020, time.October, 31)},
	}
	daily := NSDaily(sets, 2020)
	if len(daily) != 366 {
		t.Fatalf("active days = %d, want 366", len(daily))
	}
	mode, ok := NSModeForYear(sets, 2020)
	if !ok || mode != 2 {
		t.Errorf("mode = %d, %v; want 2", mode, ok)
	}
	// Records outside the year are ignored.
	if _, ok := NSModeForYear(sets, 2010); ok {
		t.Error("mode reported for an inactive year")
	}
	// A record active only 10 days with a second active 300 days: the
	// mode is 1.
	sets2 := []pdns.RecordSet{
		{RRName: "y.gov.br.", RRType: dnswire.TypeNS, RData: "a.",
			FirstSeen: day(2019, time.January, 1), LastSeen: day(2019, time.December, 31)},
		{RRName: "y.gov.br.", RRType: dnswire.TypeNS, RData: "b.",
			FirstSeen: day(2019, time.June, 1), LastSeen: day(2019, time.June, 10)},
	}
	if mode, _ := NSModeForYear(sets2, 2019); mode != 1 {
		t.Errorf("mode = %d, want 1", mode)
	}
}

func buildTestPDNS() *pdns.Store {
	s := pdns.NewStore()
	// Stable 2-NS domain alive all decade.
	s.ObserveRange("a.gov.br.", dnswire.TypeNS, "ns1.a.gov.br.", day(2011, 1, 1), day(2020, 12, 31))
	s.ObserveRange("a.gov.br.", dnswire.TypeNS, "ns2.a.gov.br.", day(2011, 1, 1), day(2020, 12, 31))
	// Single-NS private domain, 2011-2015 only.
	s.ObserveRange("b.gov.br.", dnswire.TypeNS, "ns1.b.gov.br.", day(2011, 1, 1), day(2015, 6, 30))
	// Single-NS provider domain appearing in 2016.
	s.ObserveRange("c.gov.cn.", dnswire.TypeNS, "dns9.hichina.com.", day(2016, 3, 1), day(2020, 12, 31))
	// Domain that migrated from a local hoster to Cloudflare in 2018.
	s.ObserveRange("d.gob.mx.", dnswire.TypeNS, "ns1.hostmx1.com.", day(2012, 1, 1), day(2017, 12, 31))
	s.ObserveRange("d.gob.mx.", dnswire.TypeNS, "ns2.hostmx1.com.", day(2012, 1, 1), day(2017, 12, 31))
	s.ObserveRange("d.gob.mx.", dnswire.TypeNS, "art.ns.cloudflare.com.", day(2018, 1, 1), day(2020, 12, 31))
	s.ObserveRange("d.gob.mx.", dnswire.TypeNS, "amy.ns.cloudflare.com.", day(2018, 1, 1), day(2020, 12, 31))
	return s
}

func TestPDNSYearly(t *testing.T) {
	view := pdns.NewView(buildTestPDNS().Snapshot())
	m := testMapper()
	years := PDNSYearly(view, m, 2011, 2020)
	if len(years) != 10 {
		t.Fatalf("years = %d", len(years))
	}
	y2011 := years[0]
	if y2011.Domains != 2 || y2011.Countries != 1 {
		t.Errorf("2011 = %+v", y2011)
	}
	if y2011.SingleNS != 1 || y2011.SingleNSPrivate != 1 {
		t.Errorf("2011 singles = %+v", y2011)
	}
	y2020 := years[9]
	if y2020.Domains != 3 || y2020.Countries != 3 {
		t.Errorf("2020 = %+v", y2020)
	}
	// c.gov.cn is single-NS but hosted at hichina (not private).
	if y2020.SingleNS != 1 || y2020.SingleNSPrivate != 0 {
		t.Errorf("2020 singles = %+v", y2020)
	}
	// ns1/ns2.a.gov.br, dns9.hichina.com, art/amy.ns.cloudflare.com.
	if y2020.Nameservers != 5 {
		t.Errorf("2020 nameservers = %d, want 5", y2020.Nameservers)
	}
	if y2020.PrivateAll != 1 {
		t.Errorf("2020 private = %d, want 1 (a.gov.br)", y2020.PrivateAll)
	}
}

func TestDomainsPerCountry(t *testing.T) {
	view := pdns.NewView(buildTestPDNS().Snapshot())
	counts := DomainsPerCountry(view, testMapper(), 2020)
	if counts["br"] != 1 || counts["cn"] != 1 || counts["mx"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	counts2013 := DomainsPerCountry(view, testMapper(), 2013)
	if counts2013["br"] != 2 || counts2013["cn"] != 0 {
		t.Errorf("2013 counts = %v", counts2013)
	}
}

func TestSingleNSChurn(t *testing.T) {
	s := pdns.NewStore()
	// Base-year single that survives as a single through 2013.
	s.ObserveRange("keep.gov.br.", dnswire.TypeNS, "ns1.keep.gov.br.", day(2011, 1, 1), day(2013, 12, 31))
	// Base-year single that dies after 2011.
	s.ObserveRange("gone.gov.br.", dnswire.TypeNS, "ns1.gone.gov.br.", day(2011, 1, 1), day(2011, 12, 31))
	// New single appearing in 2012.
	s.ObserveRange("new.gov.br.", dnswire.TypeNS, "ns1.new.gov.br.", day(2012, 2, 1), day(2013, 12, 31))

	churn := SingleNSChurn(pdns.NewView(s.Snapshot()), 2011, 2013)
	if len(churn) != 2 {
		t.Fatalf("churn entries = %d", len(churn))
	}
	c2012 := churn[0]
	if c2012.BaseTotal != 2 {
		t.Errorf("BaseTotal = %d", c2012.BaseTotal)
	}
	if c2012.Total != 2 || c2012.New != 1 || c2012.FromBase != 1 {
		t.Errorf("2012 churn = %+v", c2012)
	}
	if c2012.BaseGone != 1 {
		t.Errorf("2012 BaseGone = %d, want 1", c2012.BaseGone)
	}
	if c2012.NewPct() != 50 || c2012.FromBasePct() != 50 || c2012.BaseGonePct() != 50 {
		t.Errorf("2012 percentages: %v %v %v", c2012.NewPct(), c2012.FromBasePct(), c2012.BaseGonePct())
	}
}
