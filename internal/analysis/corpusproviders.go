package analysis

// The provider analyses over the corpus (Tables II/III, the gov.cn
// share, the § IV-B migration flows) and the § V-A hijack forensics.
// testdata/corpus.golden.jsonl pins every output
// (TestCorpusDifferential). Provider identification (catalog.Identify,
// GroupLabel) and the nameserver registrable domain are year-invariant
// per rdata, so they are memoized once per (corpus, catalog) pair.

import (
	"slices"
	"sort"

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

// nonProviderLabel marks hosts outside the label set of interest
// inside a domain's per-year label set: it makes such hosts defeat the
// single-provider test without ever being aggregated as a provider.
// The NUL prefix keeps it from colliding with any real label.
const nonProviderLabel = "\x00other"

// providerYear indexes one year of provider usage.
type providerYear struct {
	totalDomains int
	totalGroups  int
	// perLabel aggregates domains/d1P/groups/countries by label.
	domains   map[string]int
	d1p       map[string]int
	groups    map[string]map[string]bool
	countries map[string]map[string]bool
}

// ProviderAnalysis computes provider usage from a PDNS corpus.
type ProviderAnalysis struct {
	catalog *providers.Catalog
	mapper  *Mapper
	grouper map[string]string
	nGroups int
}

// NewProviderAnalysis builds the analysis with the paper's grouping (top
// country codes become singleton groups).
func NewProviderAnalysis(catalog *providers.Catalog, m *Mapper, topCodes []string) *ProviderAnalysis {
	grouper, n := m.Groups(topCodes)
	return &ProviderAnalysis{catalog: catalog, mapper: m, grouper: grouper, nGroups: n}
}

func (py *providerYear) usage(label string) ProviderUsage {
	return ProviderUsage{
		Label:             label,
		Domains:           py.domains[label],
		DomainsPct:        stats.Pct(py.domains[label], py.totalDomains),
		SingleProvider:    py.d1p[label],
		SingleProviderPct: stats.Pct(py.d1p[label], py.totalDomains),
		SubRegions:        len(py.groups[label]),
		SubRegionsPct:     stats.Pct(len(py.groups[label]), py.totalGroups),
		Countries:         len(py.countries[label]),
	}
}

// majorRows turns one year's usage index into the Table II rows (one
// per major provider, sorted by label).
func (pa *ProviderAnalysis) majorRows(py *providerYear) []ProviderUsage {
	var out []ProviderUsage
	for _, p := range pa.catalog.Major() {
		out = append(out, py.usage(p.Display))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// topRows turns one year's usage index into the Table III rows (every
// group ranked by countries served, then by domains, top n).
func topRows(py *providerYear, n int) []ProviderUsage {
	var out []ProviderUsage
	for _, label := range sortedKeys(py.countries) {
		out = append(out, py.usage(label))
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Countries != out[j].Countries {
			return out[i].Countries > out[j].Countries
		}
		return out[i].Domains > out[j].Domains
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// rdataLabels memoizes the catalog verdicts for every interned rdata:
// each distinct NS hostname is classified exactly once per corpus.
type rdataLabels struct {
	// group/identified mirror catalog.GroupLabel: the Table III row
	// label, and whether it names a catalog provider (catalog.Identify
	// succeeded) rather than the host's registered domain.
	group      []string
	identified []bool
	// nsDomain is NSDomain(host), the hijack detector's grouping key.
	nsDomain []dnsname.Name
}

// display mirrors catalog.Identify: the provider's display name, which
// is its group label, or "" for a host no provider owns.
func (lb *rdataLabels) display(id int32) string {
	if lb.identified[id] {
		return lb.group[id]
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
	lb := &rdataLabels{
		group:      make([]string, len(c.rdatas)),
		identified: make([]bool, len(c.rdatas)),
		nsDomain:   make([]dnsname.Name, len(c.rdatas)),
	}
	parallelChunks(len(c.rdatas), func(lo, hi int) {
		for id := lo; id < hi; id++ {
			if !c.hostOK[id] {
				continue
			}
			host := c.hosts[id]
			lb.group[id], lb.identified[id] = catalog.GroupLabel(host)
			lb.nsDomain[id] = NSDomain(host)
		}
	})
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
// active that year. label maps an rdata ID to a provider label ("" =
// not a provider). A domain's label set holds the labels of its active
// NS records that parse; a non-provider host adds nonProviderLabel,
// which is never aggregated but makes the domain's single-provider
// test fail.
func (pa *ProviderAnalysis) yearUsageCorpus(c *Corpus, year int, label func(id int32) string) *providerYear {
	pa.mustMatch(c)
	y := c.yearIndex(year)
	py := &providerYear{
		totalGroups: pa.nGroups,
		domains:     make(map[string]int),
		d1p:         make(map[string]int),
		groups:      make(map[string]map[string]bool),
		countries:   make(map[string]map[string]bool),
	}
	var labels []string // the domain's distinct labels; a handful at most
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
			l := label(id)
			if l == "" {
				l = nonProviderLabel
			}
			if !slices.Contains(labels, l) {
				labels = append(labels, l)
			}
		}
		code, group := "", ""
		if ci := c.country[i]; ci >= 0 {
			code = pa.mapper.countries[ci].Code
			group = pa.grouper[code]
		}
		single := len(labels) == 1
		for _, l := range labels {
			if l == nonProviderLabel {
				continue
			}
			py.domains[l]++
			if single {
				py.d1p[l]++
			}
			if group != "" {
				if py.groups[l] == nil {
					py.groups[l] = make(map[string]bool)
				}
				py.groups[l][group] = true
			}
			if code != "" {
				if py.countries[l] == nil {
					py.countries[l] = make(map[string]bool)
				}
				py.countries[l][code] = true
			}
		}
	}
	return py
}

// MajorProvidersCorpus computes Table II: usage of the catalog's major
// providers in the given year.
func (pa *ProviderAnalysis) MajorProvidersCorpus(c *Corpus, year int) []ProviderUsage {
	lb := c.labelsFor(pa.catalog)
	py := pa.yearUsageCorpus(c, year, lb.display)
	return pa.majorRows(py)
}

// TopProvidersCorpus computes Table III: every nameserver-domain group
// ranked by the number of countries served, top n (n <= 0 keeps all).
func (pa *ProviderAnalysis) TopProvidersCorpus(c *Corpus, year, n int) []ProviderUsage {
	lb := c.labelsFor(pa.catalog)
	py := pa.yearUsageCorpus(c, year, func(id int32) string { return lb.group[id] })
	return topRows(py, n)
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
			if c.hostOK[id] && lb.identified[id] && !slices.Contains(labels, lb.group[id]) {
				labels = append(labels, lb.group[id])
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
