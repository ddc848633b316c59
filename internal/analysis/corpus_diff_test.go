package analysis

// The corpus-vs-reference differential harness: a seeded random store
// generator exercises every corner the corpus must reproduce —
// multi-NS and single-NS domains, provider hosts (exact-suffix and
// regex families), private in-government hosts, unparseable rdata,
// transient windows the stability filter drops, records straddling
// year and study-span boundaries, unmapped owners, and non-NS types —
// and every corpus-backed analysis must deep-equal its retained
// view-based reference implementation, on both the stable and the raw
// view. Runs under `make check` (and therefore under -race, which also
// exercises the sharded compile).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
	"govdns/internal/providers"
)

// genHost picks an NS rdata from the corners of the labeling space.
func genHost(rng *rand.Rand, owner dnsname.Name, suffix string, i int) string {
	switch rng.Intn(12) {
	case 0: // private: under the owner itself
		return "ns1." + string(owner)
	case 1: // private: central government host
		return fmt.Sprintf("ns%d.dns.%s", 1+rng.Intn(3), suffix)
	case 2: // AWS regex family
		return fmt.Sprintf("ns-%d.awsdns-%d.com.", rng.Intn(2048), rng.Intn(64))
	case 3: // Azure regex family
		return fmt.Sprintf("ns%d-0%d.azure-dns.com.", 1+rng.Intn(4), rng.Intn(10))
	case 4: // exact-suffix providers
		hosts := []string{
			"ns1.hichina.com.", "dns2.hichina.com.", "ns3.xincache.com.",
			"v1.dns-diy.net.", "tom.cloudflare.com.", "ns05.domaincontrol.com.",
			"ns1.bluehost.com.", "pdns1.ultradns.net.",
		}
		return hosts[rng.Intn(len(hosts))]
	case 5: // unparseable rdata (empty label)
		return "bad..host.com."
	case 6: // rare, attacker-shaped host (low nsdomain spread)
		return fmt.Sprintf("ns.evil%d.net.", i)
	default: // generic third-party hoster, shared across domains
		return fmt.Sprintf("ns%d.hoster%d.example.net.", 1+rng.Intn(2), rng.Intn(9))
	}
}

// genStore builds the seeded random passive-DNS store for one
// differential round.
func genStore(seed int64) *pdns.Store {
	rng := rand.New(rand.NewSource(seed))
	s := pdns.NewStore()
	suffixes := []string{"gov.br.", "gov.cn.", "gob.mx."}
	nDomains := 120 + rng.Intn(80)
	for i := 0; i < nDomains; i++ {
		suffix := suffixes[rng.Intn(len(suffixes))]
		var name dnsname.Name
		if rng.Intn(10) == 0 {
			// Unmapped owner: matched by the wildcard expansion but
			// outside every government suffix.
			name = dnsname.Name(fmt.Sprintf("example%d.com.", i))
		} else {
			name = dnsname.Name(fmt.Sprintf("agency%d.%s", i, suffix))
		}
		for r, n := 0, 1+rng.Intn(4); r < n; r++ {
			host := genHost(rng, name, suffix, i)
			from := pdns.Date(2010+rng.Intn(12), time.Month(1+rng.Intn(12)), 1+rng.Intn(28))
			var dur int
			if rng.Intn(4) == 0 {
				dur = 1 + rng.Intn(6) // transient: dropped by the 7-day filter
			} else {
				dur = 7 + rng.Intn(900) // stable, possibly spanning years
			}
			s.ObserveRange(name, dnswire.TypeNS, host, from, from+pdns.Day(dur-1))
		}
		if rng.Intn(3) == 0 {
			from := pdns.Date(2011+rng.Intn(10), time.Month(1+rng.Intn(12)), 1+rng.Intn(28))
			s.ObserveRange(name, dnswire.TypeA, "198.51.100.7", from, from+30)
		}
	}
	return s
}

func TestCorpusDifferential(t *testing.T) {
	const startYear, endYear = 2011, 2020
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			store := genStore(seed)
			m := testMapper()
			catalog := providers.Default()
			raw := pdns.NewView(store.Snapshot())
			stable := raw.Stable(pdns.StabilityFilterDays)
			views := []struct {
				name string
				view *pdns.View
			}{{"stable", stable}, {"raw", raw}}
			for _, v := range views {
				v := v
				t.Run(v.name, func(t *testing.T) {
					c := CompileCorpus(v.view, m, startYear, endYear)
					pa := NewProviderAnalysis(catalog, m, []string{"cn"})

					// Per-(domain, year) mode: the sweep against NSDaily.
					idx := indexByDomain(v.view)
					for _, name := range idx.names {
						i := c.ownerID(name)
						for year := startYear; year <= endYear; year++ {
							want, ok := NSModeForYear(idx.sets[name], year)
							if !ok {
								want = 0
							}
							if got := int(c.modeAt(i, year-startYear)); got != want {
								t.Fatalf("mode(%s, %d) = %d, want %d", name, year, got, want)
							}
						}
					}

					// Figs. 2/3/7.
					if got, want := c.Yearly(), PDNSYearly(v.view, m, startYear, endYear); !reflect.DeepEqual(got, want) {
						t.Errorf("Yearly diverges:\n got %+v\nwant %+v", got, want)
					}
					if got, want := c.NameserversPerYear(), NameserversPerYear(v.view, startYear, endYear); !reflect.DeepEqual(got, want) {
						t.Errorf("NameserversPerYear diverges:\n got %v\nwant %v", got, want)
					}

					// Figs. 4 and 6 (every year, not just the usual ones).
					for year := startYear; year <= endYear; year++ {
						if got, want := c.DomainsPerCountry(year), DomainsPerCountry(v.view, m, year); !reflect.DeepEqual(got, want) {
							t.Errorf("DomainsPerCountry(%d) diverges:\n got %v\nwant %v", year, got, want)
						}
					}
					if got, want := c.SingleNSChurn(), SingleNSChurn(v.view, startYear, endYear); !reflect.DeepEqual(got, want) {
						t.Errorf("SingleNSChurn diverges:\n got %+v\nwant %+v", got, want)
					}

					// Tables II/III and the per-country share.
					for _, year := range []int{2013, endYear} {
						if got, want := pa.MajorProvidersCorpus(c, year), pa.MajorProviders(v.view, year); !reflect.DeepEqual(got, want) {
							t.Errorf("MajorProviders(%d) diverges:\n got %+v\nwant %+v", year, got, want)
						}
						if got, want := pa.TopProvidersCorpus(c, year, 11), pa.TopProviders(v.view, year, 11); !reflect.DeepEqual(got, want) {
							t.Errorf("TopProviders(%d) diverges:\n got %+v\nwant %+v", year, got, want)
						}
						for _, code := range []string{"cn", "br"} {
							if got, want := pa.GovProviderShareCorpus(c, year, code), pa.GovProviderShare(v.view, year, code); !reflect.DeepEqual(got, want) {
								t.Errorf("GovProviderShare(%d, %s) diverges:\n got %v\nwant %v", year, code, got, want)
							}
						}
					}

					// Migration flows.
					if got, want := c.ProviderFlows(catalog, 2016, endYear), ProviderFlows(v.view, m, catalog, 2016, endYear); !reflect.DeepEqual(got, want) {
						t.Errorf("ProviderFlows diverges:\n got %+v\nwant %+v", got, want)
					}

					// Hijack forensics (the study runs this on raw, but the
					// equivalence must hold for any view).
					cfg := HijackForensicsConfig{}
					if got, want := SuspiciousTransitionsCorpus(c, catalog, cfg), SuspiciousTransitions(v.view, m, catalog, cfg); !reflect.DeepEqual(got, want) {
						t.Errorf("SuspiciousTransitions diverges:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		})
	}
}
