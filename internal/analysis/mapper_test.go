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

// countryOf maps a domain to its country code by the mapper's lookup
// ("" = unmapped).
func countryOf(m *Mapper, name dnsname.Name) string {
	if idx := m.suffixIndex(name); idx >= 0 {
		return m.countries[idx].Code
	}
	return ""
}

func TestMapperCountryOf(t *testing.T) {
	m := testMapper()
	for name, want := range map[dnsname.Name]string{
		"x.gov.br.":    "br",
		"gov.br.":      "br",
		"a.b.gob.mx.":  "mx",
		"example.com.": "",
		"gov.com.":     "",
		"xgov.br.":     "",
	} {
		if got := countryOf(m, name); got != want {
			t.Errorf("country of %s = %q, want %q", name, got, want)
		}
	}
}

func TestMapperLongestSuffix(t *testing.T) {
	// A suffix nested below another: the deeper one wins, for a name
	// below it and for the suffix itself, whichever order the
	// countries come in.
	for _, countries := range [][]Country{
		{{Code: "br", Suffix: "gov.br."}, {Code: "sp", Suffix: "sp.gov.br."}},
		{{Code: "sp", Suffix: "sp.gov.br."}, {Code: "br", Suffix: "gov.br."}},
	} {
		m := NewMapper(countries)
		for _, tt := range []struct {
			name dnsname.Name
			code string // "" = unmapped
		}{
			{"x.sp.gov.br.", "sp"},
			{"sp.gov.br.", "sp"},
			{"a.b.gov.br.", "br"},
			{"gov.br.", "br"},
			{"br.", ""},
			{dnsname.Root, ""},
			{"", ""},
			{"sp.gov.br.example.", ""},
			{"gov", ""}, // no trailing dot
		} {
			if got := countryOf(m, tt.name); got != tt.code {
				t.Errorf("%v: country of %q = %q, want %q", countries, tt.name, got, tt.code)
			}
		}
	}
}

// TestMapperSlots: tallies kept per slot merge as a map keyed by code
// would: countries sharing a code share a slot, and a country with no
// code shares the unmapped domains' slot.
func TestMapperSlots(t *testing.T) {
	m := NewMapper([]Country{
		{Code: "br", Suffix: "gov.br."},
		{Code: "", Suffix: "gov.xx."},
		{Code: "br", Suffix: "gov.yy."},
		{Code: "mx", Suffix: "gob.mx."},
	})
	unmapped := m.slotOf(-1)
	for _, tt := range []struct {
		name dnsname.Name
		slot int32
		code string
	}{
		{"a.gov.br.", 0, "br"},
		{"a.gov.yy.", 0, "br"},
		{"a.gob.mx.", 3, "mx"},
		{"a.gov.xx.", unmapped, ""},
		{"example.com.", unmapped, ""},
	} {
		s := m.slotOf(m.suffixIndex(tt.name))
		if s != tt.slot || m.slotCode(s) != tt.code {
			t.Errorf("%s: slot %d (%q), want %d (%q)", tt.name, s, m.slotCode(s), tt.slot, tt.code)
		}
	}
	if m.slots() != 5 || unmapped != 4 {
		t.Errorf("slots = %d, unmapped slot = %d; want 5, 4", m.slots(), unmapped)
	}
}

func TestMapperIsPrivateHost(t *testing.T) {
	m := testMapper()
	br := m.suffixIndex("x.gov.br.")
	if !m.isPrivateHost(br, "ns1.x.gov.br.") {
		t.Error("in-domain host not private")
	}
	if !m.isPrivateHost(br, "ns1.gov.br.") {
		t.Error("central host not private")
	}
	if m.isPrivateHost(br, "ns1.provider.com.") {
		t.Error("provider host private")
	}
	if m.isPrivateHost(-1, "ns1.gov.br.") {
		t.Error("host of an unmapped domain private")
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
