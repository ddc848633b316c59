package analysis

// The corpus golden harness: a seeded random store generator exercises
// every corner the corpus must reproduce — multi-NS and single-NS
// domains, provider hosts (exact-suffix and regex families), private
// in-government hosts, unparseable rdata, transient windows the
// stability filter drops, records straddling year and study-span
// boundaries, unmapped owners, and non-NS types — and every passive
// output the corpus computes, on both the stable and the raw view, must
// match testdata/corpus.golden.jsonl byte for byte. The fixture was
// written when the view-based reference implementations still stood
// beside the corpus, and both produced exactly these bytes; an
// intended change of output rewrites it with
//
//	go test ./internal/analysis -run TestCorpusDifferential -update
//
// and the diff is reviewed like code. The per-(domain, year) mode is
// also checked against the per-day reference in mode_ref_test.go. Runs
// under `make check` (and therefore under -race, which also exercises
// the sharded compile).

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
	"govdns/internal/providers"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const corpusGolden = "testdata/corpus.golden.jsonl"

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

// goldenSeeds are the generated stores the fixture covers.
var goldenSeeds = []int64{1, 7, 42, 1337}

const goldenStart, goldenEnd = 2011, 2020

// goldenLine is one passive output of one generated store's view.
type goldenLine struct {
	Seed   int64  `json:"seed"`
	View   string `json:"view"`
	Output string `json:"output"`
	Value  any    `json:"value"`
}

// goldenViews returns a generated store's stable and raw views, in
// fixture order.
func goldenViews(seed int64) []struct {
	name string
	view *pdns.View
} {
	raw := pdns.NewView(genStore(seed).Snapshot())
	return []struct {
		name string
		view *pdns.View
	}{{"stable", raw.Stable(pdns.StabilityFilterDays)}, {"raw", raw}}
}

// corpusOutputs computes every fixture output of one view's corpus:
// Figs. 2/3/7, Fig. 3's nameserver series, Fig. 4 for every year,
// Fig. 6, Tables II and III and the per-country provider share for 2013
// and 2020, the migration flows and the hijack forensics (the study
// runs those on the raw view, but the outputs are pinned on both).
func corpusOutputs(c *Corpus) []goldenLine {
	catalog := providers.Default()
	pa := NewProviderAnalysis(catalog, c.m, []string{"cn"})
	out := []goldenLine{
		{Output: "Yearly", Value: c.Yearly()},
		{Output: "NameserversPerYear", Value: c.NameserversPerYear()},
	}
	for year := goldenStart; year <= goldenEnd; year++ {
		out = append(out, goldenLine{Output: fmt.Sprintf("DomainsPerCountry/%d", year), Value: c.DomainsPerCountry(year)})
	}
	out = append(out, goldenLine{Output: "SingleNSChurn", Value: c.SingleNSChurn()})
	for _, year := range []int{2013, goldenEnd} {
		out = append(out,
			goldenLine{Output: fmt.Sprintf("MajorProviders/%d", year), Value: pa.MajorProvidersCorpus(c, year)},
			goldenLine{Output: fmt.Sprintf("TopProviders/%d", year), Value: pa.TopProvidersCorpus(c, year, 11)})
		for _, code := range []string{"cn", "br"} {
			out = append(out, goldenLine{Output: fmt.Sprintf("GovProviderShare/%d/%s", year, code), Value: pa.GovProviderShareCorpus(c, year, code)})
		}
	}
	return append(out,
		goldenLine{Output: fmt.Sprintf("ProviderFlows/2016-%d", goldenEnd), Value: c.ProviderFlows(catalog, 2016, goldenEnd)},
		goldenLine{Output: "SuspiciousTransitions", Value: SuspiciousTransitionsCorpus(c, catalog, HijackForensicsConfig{})})
}

// encodeGolden renders one view's outputs as fixture lines.
func encodeGolden(t *testing.T, seed int64, view string, lines []goldenLine) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		l.Seed, l.View = seed, view
		if err := enc.Encode(l); err != nil {
			t.Fatalf("encode %s: %v", l.Output, err)
		}
	}
	return buf.Bytes()
}

// TestCorpusDifferential checks the corpus against the frozen fixture,
// one subtest per (seed, view), and each owner's per-year mode against
// the per-day reference.
func TestCorpusDifferential(t *testing.T) {
	want, err := os.ReadFile(corpusGolden)
	if err != nil && !*updateGolden {
		t.Fatalf("read fixture: %v", err)
	}
	wantLines := bytes.SplitAfter(want, []byte("\n"))
	var all bytes.Buffer
	line := 0
	for _, seed := range goldenSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, v := range goldenViews(seed) {
				t.Run(v.name, func(t *testing.T) {
					c := CompileCorpus(v.view, testMapper(), goldenStart, goldenEnd)
					got := encodeGolden(t, seed, v.name, corpusOutputs(c))
					all.Write(got)
					for _, g := range bytes.SplitAfter(got, []byte("\n")) {
						if len(g) == 0 {
							continue
						}
						var w []byte
						if line < len(wantLines) {
							w = wantLines[line]
						}
						if !*updateGolden && !bytes.Equal(g, w) {
							t.Errorf("%s:%d differs:\n got %s\nwant %s", corpusGolden, line+1, g, w)
						}
						line++
					}

					// Per-(domain, year) mode: the sweep against the
					// per-day reference.
					checkModes(t, v.view, c, goldenStart, goldenEnd)
				})
			}
		})
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusGolden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(all.Bytes(), want) {
		t.Errorf("%s: %d bytes computed, %d in the fixture", corpusGolden, all.Len(), len(want))
	}
}
