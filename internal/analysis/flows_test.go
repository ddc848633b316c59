package analysis

import (
	"testing"

	"govdns/internal/dnswire"
	"govdns/internal/pdns"
	"govdns/internal/providers"
	"govdns/internal/worldgen"
)

func TestProviderFlowsHandCrafted(t *testing.T) {
	s := pdns.NewStore()
	// Moved from a local hoster to Cloudflare in 2018.
	s.ObserveRange("a.gov.br.", dnswire.TypeNS, "ns1.hostbr.com.", pdns.Date(2015, 1, 1), pdns.Date(2017, 12, 31))
	s.ObserveRange("a.gov.br.", dnswire.TypeNS, "art.ns.cloudflare.com.", pdns.Date(2018, 1, 1), pdns.Date(2020, 12, 31))
	// Moved from private to AWS.
	s.ObserveRange("b.gov.br.", dnswire.TypeNS, "ns1.b.gov.br.", pdns.Date(2015, 1, 1), pdns.Date(2017, 6, 30))
	s.ObserveRange("b.gov.br.", dnswire.TypeNS, "ns-1.awsdns-00.com.", pdns.Date(2017, 7, 1), pdns.Date(2020, 12, 31))
	// Stayed private: no flow.
	s.ObserveRange("c.gov.br.", dnswire.TypeNS, "ns1.c.gov.br.", pdns.Date(2015, 1, 1), pdns.Date(2020, 12, 31))
	// Born after yearA: ignored.
	s.ObserveRange("d.gov.br.", dnswire.TypeNS, "amy.ns.cloudflare.com.", pdns.Date(2019, 1, 1), pdns.Date(2020, 12, 31))

	flows := ProviderFlows(pdns.NewView(s.Snapshot()), testMapper(), providers.Default(), 2016, 2020)
	if len(flows) != 2 {
		t.Fatalf("flows = %+v", flows)
	}
	want := map[[2]string]int{
		{LabelOther, "cloudflare.com"}: 1,
		{LabelPrivate, "AWS DNS"}:      1,
	}
	for _, f := range flows {
		if want[[2]string{f.From, f.To}] != f.Domains {
			t.Errorf("unexpected flow %+v", f)
		}
	}
}

func TestProviderFlowsOnGeneratedWorld(t *testing.T) {
	w := worldgen.Generate(worldgen.Config{Seed: 2, Scale: 0.02})
	var countries []Country
	for _, c := range w.Countries {
		countries = append(countries, Country{Code: c.Code, Name: c.Name, SubRegion: c.SubRegion, Suffix: c.Suffix})
	}
	m := NewMapper(countries)
	view := pdns.NewView(w.PDNS.Snapshot()).Stable(pdns.StabilityFilterDays)
	flows := ProviderFlows(view, m, providers.Default(), 2011, 2020)
	if len(flows) == 0 {
		t.Fatal("no migrations detected over the decade")
	}
	// The decade's dominant story: inflows to the cloud providers
	// dwarf outflows from them.
	for _, cloud := range []string{"AWS DNS", "cloudflare.com"} {
		in, out := 0, 0
		for _, f := range flows {
			if f.To == cloud {
				in += f.Domains
			}
			if f.From == cloud {
				out += f.Domains
			}
		}
		if in <= out {
			t.Errorf("%s: inflows %d not greater than outflows %d", cloud, in, out)
		}
		if in == 0 {
			t.Errorf("%s: no inflows at all", cloud)
		}
	}
}
