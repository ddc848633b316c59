package analysis

// Corpus-backed fast paths for the provider analyses (Tables II/III,
// the gov.cn share, the Fig. § IV-B migration flows) and the § V-A
// hijack forensics. Each mirrors its view-based reference
// implementation record for record; TestCorpusDifferential pins the
// equivalence. Provider identification (catalog.Identify, GroupLabel)
// and the nameserver registrable domain are year-invariant per rdata,
// so they are memoized once per (corpus, catalog) pair.

import (
	"slices"
	"sort"

	"govdns/internal/dnsname"
	"govdns/internal/providers"
	"govdns/internal/stats"
)

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

// yearUsageCorpus is yearUsage over the corpus: same per-domain label
// sets (records that fail to parse contribute nothing; non-provider
// hosts collapse to nonProviderLabel), same aggregation, no re-parsing
// and no NSDaily recomputation.
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

// MajorProvidersCorpus is MajorProviders (Table II) over the corpus.
func (pa *ProviderAnalysis) MajorProvidersCorpus(c *Corpus, year int) []ProviderUsage {
	lb := c.labelsFor(pa.catalog)
	py := pa.yearUsageCorpus(c, year, lb.display)
	return pa.majorRows(py)
}

// TopProvidersCorpus is TopProviders (Table III) over the corpus.
func (pa *ProviderAnalysis) TopProvidersCorpus(c *Corpus, year, n int) []ProviderUsage {
	lb := c.labelsFor(pa.catalog)
	py := pa.yearUsageCorpus(c, year, func(id int32) string { return lb.group[id] })
	return topRows(py, n)
}

// GovProviderShareCorpus is GovProviderShare over the corpus.
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

// hostingLabelAt mirrors hostingLabel over the corpus: records that
// fail to parse are skipped entirely (they neither identify a provider
// nor disqualify privateness — the flows analysis differs from
// PDNSYearly here, and the corpus path preserves that), found is the
// first identified provider in record order, and mode > 0 stands in
// for "any active NS record".
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

// ProviderFlows is the package-level ProviderFlows over the corpus:
// the § IV-B hosting-migration matrix between two study years.
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

// SuspiciousTransitionsCorpus is SuspiciousTransitions over a corpus
// compiled from the RAW view (the stability filter would erase the
// evidence). The nameserver-domain spread is counted per owner group —
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
