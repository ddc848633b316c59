package analysis

import (
	"testing"
	"time"

	"govdns/internal/dnsname"
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
