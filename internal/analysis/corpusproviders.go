package analysis

// The provider analyses over the corpus (Tables II/III, the gov.cn
// share, the § IV-B migration flows) and the § V-A hijack forensics.
// testdata/corpus.golden.jsonl pins every output
// (TestCorpusDifferential). Provider identification (catalog.Identify,
// GroupLabel) and the nameserver registrable domain are year-invariant
// per rdata, so they are memoized once per (corpus, catalog) pair.

import (
	"math/bits"
	"slices"
	"sort"
	"strings"

	"govdns/internal/dnsname"
	"govdns/internal/pdns"
	"govdns/internal/providers"
	"govdns/internal/stats"
)

// ProviderUsage is one provider's footprint in one year (a Table II or
// Table III row).
type ProviderUsage struct {
	// Label identifies the provider (display name or nameserver-domain
	// group).
	Label string
	// Domains uses the provider for at least one nameserver.
	Domains int
	// DomainsPct is Domains over all domains active that year.
	DomainsPct float64
	// SingleProvider counts d_1P: domains relying on this provider for
	// every nameserver.
	SingleProvider int
	// SingleProviderPct is SingleProvider over all domains that year.
	SingleProviderPct float64
	// SubRegions is the number of Table II groups with at least one
	// using domain; SubRegionsPct is its share of all groups.
	SubRegions    int
	SubRegionsPct float64
	// Countries is the number of countries with at least one using
	// domain.
	Countries int
}

// providerYear indexes one year of provider usage by label ID (an
// index into rdataLabels.names).
type providerYear struct {
	names        []string
	totalDomains int
	totalGroups  int
	// domains and d1p count each label's using and d_1P domains;
	// groups and countries hold each label's Table II groups (group
	// IDs) and countries (mapper slots) as bitsets of gw and cw words.
	domains, d1p      []int32
	groups, countries []uint64
	gw, cw            int
}

// ProviderAnalysis computes provider usage from a PDNS corpus.
type ProviderAnalysis struct {
	catalog *providers.Catalog
	mapper  *Mapper
	nGroups int
	// groupOf is each country's Table II group as an index into the
	// groups' distinct non-empty labels, -1 for an empty label;
	// nGroupIDs is the number of those labels.
	groupOf   []int32
	nGroupIDs int
}

// NewProviderAnalysis builds the analysis with the paper's grouping (top
// country codes become singleton groups).
func NewProviderAnalysis(catalog *providers.Catalog, m *Mapper, topCodes []string) *ProviderAnalysis {
	grouper, n := m.Groups(topCodes)
	pa := &ProviderAnalysis{catalog: catalog, mapper: m, nGroups: n, groupOf: make([]int32, len(m.countries))}
	ids := make(map[string]int32)
	for i, c := range m.countries {
		label := grouper[c.Code]
		if label == "" {
			pa.groupOf[i] = -1
			continue
		}
		id, ok := ids[label]
		if !ok {
			id = int32(len(ids))
			ids[label] = id
		}
		pa.groupOf[i] = id
	}
	pa.nGroupIDs = len(ids)
	return pa
}

// popcount returns the number of bits set in words.
func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// usage returns the row for label, whose ID is l (-1: no domain used
// it).
func (py *providerYear) usage(label string, l int32) ProviderUsage {
	u := ProviderUsage{Label: label}
	if l >= 0 {
		u.Domains = int(py.domains[l])
		u.SingleProvider = int(py.d1p[l])
		u.SubRegions = popcount(py.groups[int(l)*py.gw : int(l+1)*py.gw])
		u.Countries = popcount(py.countries[int(l)*py.cw : int(l+1)*py.cw])
	}
	u.DomainsPct = stats.Pct(u.Domains, py.totalDomains)
	u.SingleProviderPct = stats.Pct(u.SingleProvider, py.totalDomains)
	u.SubRegionsPct = stats.Pct(u.SubRegions, py.totalGroups)
	return u
}

// majorRows turns one year's usage index into the Table II rows (one
// per major provider, sorted by label).
func (pa *ProviderAnalysis) majorRows(py *providerYear, lb *rdataLabels) []ProviderUsage {
	var out []ProviderUsage
	for _, p := range pa.catalog.Major() {
		l, ok := lb.byName[p.Display]
		if !ok {
			l = -1
		}
		out = append(out, py.usage(p.Display, l))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// topRows turns one year's usage index into the Table III rows (every
// label with a country ranked by countries served, then by domains,
// then by label, top n).
func topRows(py *providerYear, n int) []ProviderUsage {
	countries := func(l int32) int { return popcount(py.countries[int(l)*py.cw : int(l+1)*py.cw]) }
	var ids []int32
	for l := range py.domains {
		if countries(int32(l)) > 0 {
			ids = append(ids, int32(l))
		}
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if ca, cb := countries(a), countries(b); ca != cb {
			return cb - ca
		}
		if py.domains[a] != py.domains[b] {
			return int(py.domains[b] - py.domains[a])
		}
		return strings.Compare(py.names[a], py.names[b])
	})
	if n > 0 && len(ids) > n {
		ids = ids[:n]
	}
	var out []ProviderUsage
	for _, l := range ids {
		out = append(out, py.usage(py.names[l], l))
	}
	return out
}

// rdataLabels memoizes the catalog verdicts for every interned rdata:
// each distinct NS hostname is classified exactly once per corpus.
type rdataLabels struct {
	// label mirrors catalog.GroupLabel: the rdata's Table III row label
	// as an index into names (-1 for an rdata that does not parse or
	// has an empty label); identified is whether that label names a
	// catalog provider (catalog.Identify succeeded) rather than the
	// host's registered domain. byName inverts names.
	label      []int32
	identified []bool
	names      []string
	byName     map[string]int32
	// nsDomain is NSDomain(host), the hijack detector's grouping key.
	nsDomain []dnsname.Name
}

// group returns the rdata's Table III label, "" for none.
func (lb *rdataLabels) group(id int32) string {
	if l := lb.label[id]; l >= 0 {
		return lb.names[l]
	}
	return ""
}

// display mirrors catalog.Identify: the provider's display name, which
// is its group label, or "" for a host no provider owns.
func (lb *rdataLabels) display(id int32) string {
	if lb.identified[id] {
		return lb.group(id)
	}
	return ""
}

// labelsFor returns the memoized per-rdata labels for one catalog,
// computing them (sharded) on first use. The study uses a single
// catalog; passing a different one recomputes and replaces the memo.
func (c *Corpus) labelsFor(catalog *providers.Catalog) *rdataLabels {
	c.labelMu.Lock()
	defer c.labelMu.Unlock()
	if c.labels != nil && c.labelCat == catalog {
		return c.labels
	}
	group := make([]string, len(c.rdatas))
	lb := &rdataLabels{
		label:      make([]int32, len(c.rdatas)),
		identified: make([]bool, len(c.rdatas)),
		byName:     make(map[string]int32),
		nsDomain:   make([]dnsname.Name, len(c.rdatas)),
	}
	parallelChunks(len(c.rdatas), func(lo, hi int) {
		for id := lo; id < hi; id++ {
			if !c.hostOK[id] {
				continue
			}
			host := c.hosts[id]
			group[id], lb.identified[id] = catalog.GroupLabel(host)
			lb.nsDomain[id] = NSDomain(host)
		}
	})
	// Intern the labels in rdata order.
	for id, g := range group {
		if g == "" {
			lb.label[id] = -1
			continue
		}
		l, ok := lb.byName[g]
		if !ok {
			l = int32(len(lb.names))
			lb.byName[g] = l
			lb.names = append(lb.names, g)
		}
		lb.label[id] = l
	}
	c.labelCat, c.labels = catalog, lb
	return lb
}

// mustMatch guards the corpus provider paths against a mapper mismatch:
// the corpus memoized country and privateness columns under its own
// mapper, so serving a ProviderAnalysis built over a different one
// would silently mix mappings.
func (pa *ProviderAnalysis) mustMatch(c *Corpus) {
	if c.m != pa.mapper {
		panic("analysis: corpus was compiled with a different Mapper than this ProviderAnalysis")
	}
}

// yearUsageCorpus indexes one year's usage per label over the domains
// active that year: with identifiedOnly, a label counts only for hosts
// a catalog provider owns (Table II); otherwise every label counts
// (Table III). A domain's label set holds the labels of its active NS
// records that parse; a host without a label that counts adds -1,
// which is never aggregated but makes the domain's single-provider
// test fail.
func (pa *ProviderAnalysis) yearUsageCorpus(c *Corpus, year int, lb *rdataLabels, identifiedOnly bool) *providerYear {
	pa.mustMatch(c)
	y := c.yearIndex(year)
	nLabels := len(lb.names)
	py := &providerYear{
		names:       lb.names,
		totalGroups: pa.nGroups,
		domains:     make([]int32, nLabels),
		d1p:         make([]int32, nLabels),
		gw:          (pa.nGroupIDs + 63) / 64,
		cw:          (len(pa.mapper.countries) + 63) / 64,
	}
	py.groups = make([]uint64, nLabels*py.gw)
	py.countries = make([]uint64, nLabels*py.cw)
	unmapped := pa.mapper.slotOf(-1)
	var labels []int32 // the domain's distinct labels; a handful at most
	for _, oi := range c.nsOwners {
		i := int(oi)
		if c.modeAt(i, y) == 0 {
			continue
		}
		py.totalDomains++
		labels = labels[:0]
		for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
			if !c.overlapsYear(r, y) {
				continue
			}
			id := c.nsRData[r]
			if !c.hostOK[id] {
				continue
			}
			l := lb.label[id]
			if identifiedOnly && !lb.identified[id] {
				l = -1
			}
			if !slices.Contains(labels, l) {
				labels = append(labels, l)
			}
		}
		slot, group := int32(-1), int32(-1)
		if ci := c.country[i]; ci >= 0 {
			if slot = pa.mapper.slot[ci]; slot == unmapped {
				slot = -1
			}
			group = pa.groupOf[ci]
		}
		single := len(labels) == 1
		for _, l := range labels {
			if l < 0 {
				continue
			}
			py.domains[l]++
			if single {
				py.d1p[l]++
			}
			if group >= 0 {
				py.groups[int(l)*py.gw+int(group/64)] |= 1 << (group % 64)
			}
			if slot >= 0 {
				py.countries[int(l)*py.cw+int(slot/64)] |= 1 << (slot % 64)
			}
		}
	}
	return py
}

// MajorProvidersCorpus computes Table II: usage of the catalog's major
// providers in the given year.
func (pa *ProviderAnalysis) MajorProvidersCorpus(c *Corpus, year int) []ProviderUsage {
	lb := c.labelsFor(pa.catalog)
	return pa.majorRows(pa.yearUsageCorpus(c, year, lb, true), lb)
}

// TopProvidersCorpus computes Table III: every nameserver-domain group
// ranked by the number of countries served, top n (n <= 0 keeps all).
func (pa *ProviderAnalysis) TopProvidersCorpus(c *Corpus, year, n int) []ProviderUsage {
	lb := c.labelsFor(pa.catalog)
	return topRows(pa.yearUsageCorpus(c, year, lb, false), n)
}

// GovProviderShareCorpus returns, for one country, the share of that
// country's active domains using each provider group (the paper's
// gov.cn hichina 38% / xincache 19% / dns-diy 10.8% observation).
// Only catalog providers count; shares are over the country's domains
// in the given year.
func (pa *ProviderAnalysis) GovProviderShareCorpus(c *Corpus, year int, code string) map[string]float64 {
	pa.mustMatch(c)
	lb := c.labelsFor(pa.catalog)
	y := c.yearIndex(year)
	counts := make(map[string]int)
	total := 0
	var labels []string // the domain's distinct provider labels
	for _, oi := range c.nsOwners {
		i := int(oi)
		ci := c.country[i]
		if ci < 0 || pa.mapper.countries[ci].Code != code {
			continue
		}
		if c.modeAt(i, y) == 0 {
			continue
		}
		total++
		labels = labels[:0]
		for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
			if !c.overlapsYear(r, y) {
				continue
			}
			id := c.nsRData[r]
			if c.hostOK[id] && lb.identified[id] && !slices.Contains(labels, lb.group(id)) {
				labels = append(labels, lb.group(id))
			}
		}
		for _, l := range labels {
			counts[l]++
		}
	}
	out := make(map[string]float64, len(counts))
	for l, n := range counts {
		out[l] = stats.Pct(n, total)
	}
	return out
}

// ProviderFlow counts domains that moved between two hosting labels
// between two years — the migration behind the § IV-B centralization
// story (who the cloud providers' customers came from).
type ProviderFlow struct {
	// From and To are hosting labels: a provider display name,
	// "private" (in-government), or "other" (unrecognized third party).
	From, To string
	// Domains is how many domains made this move.
	Domains int
}

// Hosting labels for domains outside the provider catalog.
const (
	LabelPrivate = "private"
	LabelOther   = "other"
)

// hostingLabelAt classifies owner i's hosting in year row y by its
// active NS records: the first catalog provider in record order if any
// host matches one, else private if every host is in-government, else
// other; ok is false when the domain had no active NS record. Records
// that fail to parse are skipped entirely: they neither identify a
// provider nor disqualify privateness (Yearly's PrivateAll counts them
// as not private).
func (c *Corpus) hostingLabelAt(i, y int, lb *rdataLabels) (string, bool) {
	if c.modeAt(i, y) == 0 {
		return "", false
	}
	private := true
	found := ""
	for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
		if !c.overlapsYear(r, y) {
			continue
		}
		id := c.nsRData[r]
		if !c.hostOK[id] {
			continue
		}
		if found == "" {
			found = lb.display(id)
		}
		if !c.nsPrivate[r] {
			private = false
		}
	}
	switch {
	case found != "":
		return found, true
	case private:
		return LabelPrivate, true
	default:
		return LabelOther, true
	}
}

// ProviderFlows compares hosting labels between two study years and
// returns the § IV-B migration matrix, largest flows first. Domains
// active in only one of the years are ignored (births and deaths are
// not migrations).
func (c *Corpus) ProviderFlows(catalog *providers.Catalog, yearA, yearB int) []ProviderFlow {
	lb := c.labelsFor(catalog)
	ya, yb := c.yearIndex(yearA), c.yearIndex(yearB)
	counts := make(map[[2]string]int)
	for _, oi := range c.nsOwners {
		i := int(oi)
		from, okA := c.hostingLabelAt(i, ya, lb)
		to, okB := c.hostingLabelAt(i, yb, lb)
		if !okA || !okB || from == to {
			continue
		}
		counts[[2]string{from, to}]++
	}
	out := make([]ProviderFlow, 0, len(counts))
	for k, n := range counts {
		out = append(out, ProviderFlow{From: k[0], To: k[1], Domains: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domains != out[j].Domains {
			return out[i].Domains > out[j].Domains
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// The paper's § V-A leaves as future work the question of whether
// hijacking attacks can be detected in historical PDNS data, noting that
// legitimate infrastructure changes make verification hard. This
// analysis implements a conservative forensic heuristic over the RAW
// (unfiltered) passive-DNS view: a takeover candidate is a short-lived
// NS record set whose nameserver domain is
//
//   - outside the victim's government suffix (not an internal move),
//   - not a known provider from the catalog (not a managed-DNS trial),
//   - and used by almost no other domain in the dataset (real hosters
//     serve many customers; attacker infrastructure serves few).
//
// Legitimate short-lived records — DDoS-protection flips, provider
// trials — fail the popularity or catalog test, which is what keeps the
// false-positive rate workable.

// SuspiciousTransition is one takeover candidate.
type SuspiciousTransition struct {
	// Domain is the possible victim.
	Domain dnsname.Name
	// NSDomain is the suspicious nameserver domain.
	NSDomain dnsname.Name
	// From and To bound the window the records were seen.
	From, To pdns.Day
	// DurationDays is the window length.
	DurationDays int
}

// HijackForensicsConfig tunes the detector.
type HijackForensicsConfig struct {
	// MaxDurationDays is the longest window still considered transient
	// (default 45).
	MaxDurationDays int
	// MaxNSDomainSpread is the largest number of distinct domains a
	// nameserver domain may serve and still look like attacker
	// infrastructure (default 3).
	MaxNSDomainSpread int
}

func (c HijackForensicsConfig) withDefaults() HijackForensicsConfig {
	if c.MaxDurationDays == 0 {
		c.MaxDurationDays = 45
	}
	if c.MaxNSDomainSpread == 0 {
		c.MaxNSDomainSpread = 3
	}
	return c
}

// SuspiciousTransitionsCorpus hunts a corpus compiled from the RAW view
// (the stability filter would erase the evidence) for takeover
// candidates: per (domain, nameserver domain), the merged window of its
// qualifying records, sorted by domain then nameserver domain. The
// nameserver-domain spread is counted per owner group —
// the corpus stores each owner's records contiguously in ascending
// owner order, so one last-owner slot per nameserver domain counts
// distinct owners without a set. Record windows in the corpus are
// stored unclipped, so the merged [From, To] windows are exact.
func SuspiciousTransitionsCorpus(c *Corpus, catalog *providers.Catalog, cfg HijackForensicsConfig) []SuspiciousTransition {
	if c.m == nil {
		panic("analysis: hijack forensics needs a corpus compiled with a Mapper")
	}
	cfg = cfg.withDefaults()
	lb := c.labelsFor(catalog)

	// Intern the nameserver registrable domains.
	ndID := make(map[dnsname.Name]int32)
	var ndNames []dnsname.Name
	ndOf := make([]int32, len(c.rdatas))
	for id := range c.rdatas {
		if !c.hostOK[id] {
			ndOf[id] = -1
			continue
		}
		nd := lb.nsDomain[id]
		x, ok := ndID[nd]
		if !ok {
			x = int32(len(ndNames))
			ndID[nd] = x
			ndNames = append(ndNames, nd)
		}
		ndOf[id] = x
	}

	// Pass 1: spread of each nameserver domain across owner domains.
	spread := make([]int32, len(ndNames))
	lastOwner := make([]int32, len(ndNames))
	for i := range lastOwner {
		lastOwner[i] = -1
	}
	for _, oi := range c.nsOwners {
		i := int(oi)
		for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
			nd := ndOf[c.nsRData[r]]
			if nd >= 0 && lastOwner[nd] != oi {
				lastOwner[nd] = oi
				spread[nd]++
			}
		}
	}

	// Pass 2: transient, out-of-pattern, unpopular NS records.
	type wkey struct{ owner, nd int32 }
	windows := make(map[wkey]*SuspiciousTransition)
	for _, oi := range c.nsOwners {
		i := int(oi)
		for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
			if int(c.nsLast[r]-c.nsFirst[r])+1 > cfg.MaxDurationDays {
				continue
			}
			id := c.nsRData[r]
			if !c.hostOK[id] {
				continue
			}
			if c.nsPrivate[r] {
				continue // internal infrastructure move
			}
			if lb.identified[id] {
				continue // managed-DNS trial
			}
			nd := ndOf[id]
			if int(spread[nd]) > cfg.MaxNSDomainSpread {
				continue // real hosters serve many domains
			}
			k := wkey{owner: oi, nd: nd}
			if existing, ok := windows[k]; ok {
				if c.nsFirst[r] < existing.From {
					existing.From = c.nsFirst[r]
				}
				if c.nsLast[r] > existing.To {
					existing.To = c.nsLast[r]
				}
				existing.DurationDays = int(existing.To-existing.From) + 1
				continue
			}
			windows[k] = &SuspiciousTransition{
				Domain:       c.names[i],
				NSDomain:     ndNames[nd],
				From:         c.nsFirst[r],
				To:           c.nsLast[r],
				DurationDays: int(c.nsLast[r]-c.nsFirst[r]) + 1,
			}
		}
	}

	out := make([]SuspiciousTransition, 0, len(windows))
	for _, t := range windows {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domain != out[j].Domain {
			return dnsname.Compare(out[i].Domain, out[j].Domain) < 0
		}
		return out[i].NSDomain < out[j].NSDomain
	})
	return out
}
