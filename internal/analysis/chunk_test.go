package analysis

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/measure"
	"govdns/internal/pdns"
	"govdns/internal/providers"
	"govdns/internal/registrar"
)

// genResults returns n synthetic scan results spread over nested,
// sibling and unmapped suffixes at several levels, with parent and
// child views drawn from in-government, third-party and single-label
// hosts, servers that time out, answer non-authoritatively or answer
// with a different NS set, and addresses across a few /24s and ASes
// (fixtureGeoDB's).
func genResults(seed int64, n int) []*measure.DomainResult {
	rng := rand.New(rand.NewSource(seed))
	suffixes := []string{"gov.br.", "sp.gov.br.", "gov.cn.", "gob.mx.", "example.org."}
	out := make([]*measure.DomainResult, n)
	for i := range out {
		suffix := suffixes[rng.Intn(len(suffixes))]
		domain := dnsname.Name(fmt.Sprintf("d%d.%s", i, suffix))
		if rng.Intn(4) == 0 {
			domain = dnsname.Name(fmt.Sprintf("x.d%d.%s", i, suffix))
		}
		host := func() dnsname.Name {
			switch rng.Intn(8) {
			case 0:
				return dnsname.Name("ns1." + string(domain))
			case 1:
				return dnsname.Name("ns.dns." + suffix)
			case 2:
				return "ns1." // the trailing-dot typo: a single label
			default:
				return dnsname.Name(fmt.Sprintf("ns%d.hoster%d.net.", rng.Intn(2), rng.Intn(40)))
			}
		}
		pick := func(k int) []dnsname.Name {
			var names []dnsname.Name
			for j := 0; j < k; j++ {
				if h := host(); !slices.Contains(names, h) {
					names = append(names, h)
				}
			}
			slices.SortFunc(names, dnsname.Compare)
			return names
		}
		r := &measure.DomainResult{Domain: domain, ParentResponded: rng.Intn(10) > 0}
		if !r.ParentResponded {
			out[i] = r
			continue
		}
		if rng.Intn(8) > 0 {
			r.ParentNS = pick(1 + rng.Intn(3))
		}
		hosts := slices.Clone(r.ParentNS)
		if rng.Intn(5) == 0 {
			hosts = append(hosts, host())
		}
		for _, h := range hosts {
			if slices.ContainsFunc(r.Addrs, func(a measure.HostAddrs) bool { return a.Host == h }) {
				continue
			}
			var addrs []netip.Addr
			for k := rng.Intn(3); k > 0; k-- {
				addrs = append(addrs, netip.AddrFrom4([4]byte{4, byte(rng.Intn(5)), byte(rng.Intn(3)), byte(1 + rng.Intn(3))}))
			}
			slices.SortFunc(addrs, netip.Addr.Compare)
			addrs = slices.Compact(addrs)
			r.Addrs = append(r.Addrs, measure.HostAddrs{Host: h, Addrs: addrs})
			for _, a := range addrs {
				sr := measure.ServerResponse{Host: h, Addr: a, OK: rng.Intn(4) > 0}
				if sr.OK {
					sr.Authoritative = rng.Intn(8) > 0
					sr.RCode = dnswire.RCodeNoError
					sr.NS = r.ParentNS
					if rng.Intn(4) == 0 {
						sr.NS = pick(1 + rng.Intn(3))
					}
				}
				r.Servers = append(r.Servers, sr)
			}
		}
		slices.SortFunc(r.Addrs, func(a, b measure.HostAddrs) int { return dnsname.Compare(a.Host, b.Host) })
		out[i] = r
	}
	return out
}

// chunkedOutputs computes every figure that perChunk splits, plus the
// Table II/III tallies, over the same inputs.
func chunkedOutputs(t *testing.T, results []*measure.DomainResult, c *Corpus) []any {
	t.Helper()
	m := NewMapper([]Country{
		{Code: "br", Name: "Brazil", SubRegion: "South America", Suffix: "gov.br."},
		{Code: "sp", Name: "Sao Paulo", SubRegion: "South America", Suffix: "sp.gov.br."},
		{Code: "cn", Name: "China", SubRegion: "Eastern Asia", Suffix: "gov.cn."},
		{Code: "mx", Name: "Mexico", SubRegion: "Central America", Suffix: "gob.mx."},
	})
	geo := fixtureGeoDB(t)
	reg := registrar.New(dnsname.NewSuffixSet("gov.br", "gov.cn", "gob.mx"))
	for i := 0; i < 40; i += 3 {
		reg.MarkRegistered(dnsname.Name(fmt.Sprintf("hoster%d.net.", i)))
	}
	pa := NewProviderAnalysis(providers.Default(), c.m, []string{"cn"})
	return []any{
		ReplicationActive(results, m),
		Diversity(results, geo, m, []string{"br", "cn", "zz"}),
		DiversityByLevel(results, geo),
		LevelDistribution(results),
		Delegations(results, m),
		HijackRisks(results, m, reg),
		Consistency(results, m),
		InconsistencyHijacks(results, m, reg),
		pa.MajorProvidersCorpus(c, 2013), pa.MajorProvidersCorpus(c, goldenEnd),
		pa.TopProvidersCorpus(c, 2013, 11), pa.TopProvidersCorpus(c, goldenEnd, 0),
	}
}

// TestFiguresIndependentOfGOMAXPROCS: the chunk bounds move with
// GOMAXPROCS (2 halves the input, 7 cuts it into seven chunks of
// unequal length), and no figure may move with them.
func TestFiguresIndependentOfGOMAXPROCS(t *testing.T) {
	results := genResults(9, 7*minChunk+5)
	c := CompileCorpus(pdns.NewView(genStore(11).Snapshot()), testMapper(), goldenStart, goldenEnd)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	runtime.GOMAXPROCS(1)
	want := chunkedOutputs(t, results, c)
	hr, ih := want[5].(*HijackRisk), want[7].(*InconsistencyHijack)
	if len(hr.AvailableNSDomains) == 0 || hr.MultiCountryNSDomains == 0 || ih.AffectedDomains == 0 ||
		want[6].(*ConsistencyStats).SingleLabelNS == 0 {
		t.Fatalf("generated results miss a corner: hijack %+v, inconsistency %+v", hr, ih)
	}
	for _, procs := range []int{2, 7} {
		runtime.GOMAXPROCS(procs)
		if n := chunkCount(len(results), minChunk); n != procs {
			t.Fatalf("GOMAXPROCS %d: %d results in %d chunks", procs, len(results), n)
		}
		for i, got := range chunkedOutputs(t, results, c) {
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("GOMAXPROCS %d: output %d (%T) differs from GOMAXPROCS 1's:\n got %+v\nwant %+v",
					procs, i, got, got, want[i])
			}
		}
	}
}

// TestChunkBounds: chunks cover [0, n) in order, none shorter than the
// minimum unless n is, and no more of them than workers.
func TestChunkBounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, minChunk - 1, 2*minChunk - 1, 2 * minChunk, 7*minChunk + 5, 100 * minChunk} {
			parts := perChunk(n, func(b *[2]int, lo, hi int) { *b = [2]int{lo, hi} })
			next := 0
			for k, b := range parts {
				if b[0] != next || b[1] < b[0] || (len(parts) > 1 && b[1]-b[0] < minChunk) {
					t.Errorf("procs %d, n %d: chunk %d is %v after %d", procs, n, k, b, next)
				}
				next = b[1]
			}
			if next != n || len(parts) > procs {
				t.Errorf("procs %d, n %d: %d chunks end at %d", procs, n, len(parts), next)
			}
		}
	}
}
