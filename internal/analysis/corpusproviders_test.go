package analysis

import (
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
	"govdns/internal/providers"
	"govdns/internal/worldgen"
)

// newProviderAnalysis compiles buildTestPDNS's store and an analysis
// over the same mapper.
func newProviderAnalysis() (*ProviderAnalysis, *Corpus) {
	m := testMapper()
	pa := NewProviderAnalysis(providers.Default(), m, []string{"cn"})
	return pa, CompileCorpus(pdns.NewView(buildTestPDNS().Snapshot()), m, 2011, 2020)
}

func usageByLabel(rows []ProviderUsage) map[string]ProviderUsage {
	out := make(map[string]ProviderUsage, len(rows))
	for _, r := range rows {
		out[r.Label] = r
	}
	return out
}

func TestMajorProviders2020(t *testing.T) {
	pa, c := newProviderAnalysis()
	rows := pa.MajorProvidersCorpus(c, 2020)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 major providers", len(rows))
	}
	byLabel := usageByLabel(rows)
	cf := byLabel["cloudflare.com"]
	// d.gob.mx uses cloudflare exclusively in 2020.
	if cf.Domains != 1 || cf.SingleProvider != 1 {
		t.Errorf("cloudflare usage = %+v", cf)
	}
	if cf.Countries != 1 || cf.SubRegions != 1 {
		t.Errorf("cloudflare reach = %+v", cf)
	}
	// 3 active domains in 2020.
	if cf.DomainsPct < 33 || cf.DomainsPct > 34 {
		t.Errorf("cloudflare DomainsPct = %v", cf.DomainsPct)
	}
	if amazon := byLabel["AWS DNS"]; amazon.Domains != 0 {
		t.Errorf("AWS usage = %+v", amazon)
	}
}

func TestMajorProviders2013NoCloudflare(t *testing.T) {
	pa, c := newProviderAnalysis()
	byLabel := usageByLabel(pa.MajorProvidersCorpus(c, 2013))
	if byLabel["cloudflare.com"].Domains != 0 {
		t.Errorf("cloudflare in 2013 = %+v", byLabel["cloudflare.com"])
	}
}

func TestTopProviders(t *testing.T) {
	pa, c := newProviderAnalysis()
	rows := pa.TopProvidersCorpus(c, 2020, 10)
	if len(rows) == 0 {
		t.Fatal("no top providers")
	}
	// Expect cloudflare.com (mx) and hichina.com (cn) present; private
	// nameserver domains also appear as labels by design (the paper
	// ranks raw nameserver domains), but each serves one country.
	byLabel := usageByLabel(rows)
	if byLabel["cloudflare.com"].Domains != 1 {
		t.Errorf("cloudflare row = %+v", byLabel["cloudflare.com"])
	}
	if byLabel["hichina.com"].Domains != 1 {
		t.Errorf("hichina row = %+v", byLabel["hichina.com"])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Countries > rows[i-1].Countries {
			t.Fatalf("rows not sorted by countries: %+v before %+v", rows[i-1], rows[i])
		}
	}
}

func TestTopProvidersEraShift(t *testing.T) {
	pa, c := newProviderAnalysis()
	rows2015 := usageByLabel(pa.TopProvidersCorpus(c, 2015, 0))
	rows2020 := usageByLabel(pa.TopProvidersCorpus(c, 2020, 0))
	// hostmx1.com serves d.gob.mx until 2017, then cloudflare takes
	// over: the group labels must reflect the era.
	if rows2015["hostmx1.com"].Domains != 1 {
		t.Errorf("2015 hostmx1 = %+v", rows2015["hostmx1.com"])
	}
	if rows2015["cloudflare.com"].Domains != 0 {
		t.Errorf("2015 cloudflare = %+v", rows2015["cloudflare.com"])
	}
	if rows2020["hostmx1.com"].Domains != 0 {
		t.Errorf("2020 hostmx1 = %+v", rows2020["hostmx1.com"])
	}
}

func TestGovProviderShare(t *testing.T) {
	pa, c := newProviderAnalysis()
	shares := pa.GovProviderShareCorpus(c, 2020, "cn")
	if shares["hichina.com"] != 100 {
		t.Errorf("hichina share of gov.cn = %v", shares["hichina.com"])
	}
	sharesBR := pa.GovProviderShareCorpus(c, 2020, "br")
	if len(sharesBR) != 0 {
		t.Errorf("br shares = %v (a.gov.br is private)", sharesBR)
	}
}

func TestProviderUsageD1P(t *testing.T) {
	// A domain mixing a provider with a private NS is not d_1P.
	s := pdns.NewStore()
	s.ObserveRange("mix.gov.br.", 2, "art.ns.cloudflare.com.", pdns.Date(2020, 1, 1), pdns.Date(2020, 12, 31))
	s.ObserveRange("mix.gov.br.", 2, "ns1.mix.gov.br.", pdns.Date(2020, 1, 1), pdns.Date(2020, 12, 31))
	m := testMapper()
	pa := NewProviderAnalysis(providers.Default(), m, nil)
	rows := usageByLabel(pa.MajorProvidersCorpus(CompileCorpus(pdns.NewView(s.Snapshot()), m, 2011, 2020), 2020))
	cf := rows["cloudflare.com"]
	if cf.Domains != 1 || cf.SingleProvider != 0 {
		t.Errorf("mixed domain usage = %+v", cf)
	}
}

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

	flows := CompileCorpus(pdns.NewView(s.Snapshot()), testMapper(), 2016, 2020).ProviderFlows(providers.Default(), 2016, 2020)
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
	view := pdns.NewView(w.PDNS.Snapshot()).Stable(pdns.StabilityFilterDays)
	flows := CompileCorpus(view, NewMapper(countries), 2011, 2020).ProviderFlows(providers.Default(), 2011, 2020)
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

func TestSuspiciousTransitionsHandCrafted(t *testing.T) {
	s := pdns.NewStore()
	start := pdns.Date(2016, time.March, 1)
	// Victim: stable private NS plus a 14-day attacker window.
	s.ObserveRange("victim.gov.br.", dnswire.TypeNS, "ns1.victim.gov.br.",
		pdns.Date(2012, 1, 1), pdns.Date(2020, 12, 31))
	s.ObserveRange("victim.gov.br.", dnswire.TypeNS, "ns1.evil-infra.com.", start, start+14)

	// Benign short-lived cases that must NOT be flagged:
	// 1. internal rename (in-government host).
	s.ObserveRange("mover.gov.br.", dnswire.TypeNS, "ns-new.mover.gov.br.", start, start+5)
	// 2. a Cloudflare trial.
	s.ObserveRange("trial.gov.br.", dnswire.TypeNS, "amy.ns.cloudflare.com.", start, start+10)
	// 3. a popular DDoS-protection service used by several domains.
	for _, d := range []dnsname.Name{"a.gov.br.", "b.gov.br.", "c.gov.br.", "d.gov.br."} {
		s.ObserveRange(d, dnswire.TypeNS, "ns1.ddos-shield.net.", start, start+3)
	}
	// 4. a long-lived third-party record (a real hoster relationship).
	s.ObserveRange("steady.gov.br.", dnswire.TypeNS, "ns1.smallhost.com.",
		pdns.Date(2014, 1, 1), pdns.Date(2020, 12, 31))

	got := SuspiciousTransitionsCorpus(CompileCorpus(pdns.NewView(s.Snapshot()), testMapper(), 2011, 2020),
		providers.Default(), HijackForensicsConfig{})
	if len(got) != 1 {
		t.Fatalf("transitions = %+v, want exactly the victim", got)
	}
	tr := got[0]
	if tr.Domain != "victim.gov.br." || tr.NSDomain != "evil-infra.com." {
		t.Errorf("transition = %+v", tr)
	}
	if tr.DurationDays != 15 {
		t.Errorf("DurationDays = %d, want 15", tr.DurationDays)
	}
}

func TestSuspiciousTransitionsRecallOnInjectedWorld(t *testing.T) {
	w := worldgen.Generate(worldgen.Config{Seed: 5, Scale: 0.01, HijackEvents: 8})
	if len(w.Hijacks) < 5 {
		t.Fatalf("only %d hijacks injected", len(w.Hijacks))
	}
	var countries []Country
	for _, c := range w.Countries {
		countries = append(countries, Country{
			Code: c.Code, Name: c.Name, SubRegion: c.SubRegion, Suffix: c.Suffix,
		})
	}
	mapper := NewMapper(countries)

	// Forensics must run on the RAW view: the stability filter would
	// erase the evidence.
	raw := pdns.NewView(w.PDNS.Snapshot())
	found := SuspiciousTransitionsCorpus(CompileCorpus(raw, mapper, 2011, 2020), providers.Default(), HijackForensicsConfig{})

	flagged := make(map[string]bool)
	for _, tr := range found {
		flagged[string(tr.Domain)+"|"+string(tr.NSDomain)] = true
	}
	missed := 0
	for _, ev := range w.Hijacks {
		if !flagged[string(ev.Domain)+"|"+string(ev.AttackerDomain)] {
			missed++
			t.Logf("missed: %+v", ev)
		}
	}
	if missed > 0 {
		t.Errorf("detector missed %d of %d injected hijacks", missed, len(w.Hijacks))
	}

	// Precision: candidates are dominated by the injected events plus
	// migration cache tails; attacker domains must be a recognizable
	// fraction, and every injected attacker domain must surface.
	if len(found) > len(w.Hijacks)*40 {
		t.Errorf("detector drowned in noise: %d candidates for %d true events",
			len(found), len(w.Hijacks))
	}
}

func TestSuspiciousTransitionsFilterAblation(t *testing.T) {
	// The same world through the 7-day stability filter loses short
	// windows entirely — documenting why forensics needs the raw view.
	w := worldgen.Generate(worldgen.Config{Seed: 5, Scale: 0.01, HijackEvents: 8})
	var countries []Country
	for _, c := range w.Countries {
		countries = append(countries, Country{Code: c.Code, Name: c.Name, SubRegion: c.SubRegion, Suffix: c.Suffix})
	}
	mapper := NewMapper(countries)
	raw := pdns.NewView(w.PDNS.Snapshot())
	filtered := raw.Stable(pdns.StabilityFilterDays)
	rawHits := SuspiciousTransitionsCorpus(CompileCorpus(raw, mapper, 2011, 2020), providers.Default(), HijackForensicsConfig{})
	filteredHits := SuspiciousTransitionsCorpus(CompileCorpus(filtered, mapper, 2011, 2020), providers.Default(), HijackForensicsConfig{})
	if len(filteredHits) >= len(rawHits) {
		t.Errorf("stability filter did not reduce forensic visibility: %d -> %d",
			len(rawHits), len(filteredHits))
	}
}
