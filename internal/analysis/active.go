package analysis

import (
	"net/netip"
	"sort"

	"govdns/internal/geoip"
	"govdns/internal/measure"
	"govdns/internal/nettopo"
	"govdns/internal/stats"
)

// ActiveReplication summarizes the scan-based replication measurements
// (§ IV-A, Figs. 8 and 9).
type ActiveReplication struct {
	// Queried, ParentResponded and WithData reproduce the § III-B
	// funnel: probed names, names with any parent-zone response, and
	// names with a non-empty NS answer.
	Queried, ParentResponded, WithData int
	// NSCountCDF is Fig. 9: the CDF of nameserver counts per domain.
	NSCountCDF []stats.CDFPoint
	// AtLeastTwoPct is the share of domains with >= 2 nameservers.
	AtLeastTwoPct float64
	// CountriesNoSingle counts countries none of whose domains are
	// single-NS.
	CountriesNoSingle int
	// CountriesOver10PctSingle lists countries where >= 10% of
	// responsive domains are single-NS.
	CountriesOver10PctSingle []string
	// SingleStalePct is the share of d_1NS with no authoritative
	// response (60.1% in the paper).
	SingleStalePct float64
	// SingleStaleByCountry is Fig. 8: that share per country (only
	// countries with at least one d_1NS).
	SingleStaleByCountry map[string]float64
}

// ReplicationActive computes ActiveReplication from scan results.
func ReplicationActive(results []*measure.DomainResult, m *Mapper) *ActiveReplication {
	ar := &ActiveReplication{SingleStaleByCountry: make(map[string]float64)}
	var nsCounts []int
	singlesByCountry := make(map[string][2]int) // code -> [singles, staleSingles]
	countrySingles := make(map[string]int)
	countryDomains := make(map[string]int)

	singles, staleSingles := 0, 0
	atLeastTwo := 0
	for _, r := range results {
		ar.Queried++
		if !r.ParentResponded {
			continue
		}
		ar.ParentResponded++
		if !r.HasData() {
			continue
		}
		ar.WithData++

		n := r.NSCount()
		nsCounts = append(nsCounts, n)
		code := ""
		if c, ok := m.CountryOf(r.Domain); ok {
			code = c.Code
			countryDomains[code]++
		}
		if n >= 2 {
			atLeastTwo++
			continue
		}
		singles++
		if code != "" {
			countrySingles[code]++
		}
		stale := !r.Responsive()
		if stale {
			staleSingles++
		}
		if code != "" {
			entry := singlesByCountry[code]
			entry[0]++
			if stale {
				entry[1]++
			}
			singlesByCountry[code] = entry
		}
	}

	ar.NSCountCDF = stats.IntCDF(nsCounts)
	ar.AtLeastTwoPct = stats.Pct(atLeastTwo, len(nsCounts))
	ar.SingleStalePct = stats.Pct(staleSingles, singles)

	for code, entry := range singlesByCountry {
		ar.SingleStaleByCountry[code] = stats.Pct(entry[1], entry[0])
	}
	for _, c := range m.Countries() {
		total := countryDomains[c.Code]
		if total == 0 {
			continue
		}
		s := countrySingles[c.Code]
		if s == 0 {
			ar.CountriesNoSingle++
		} else if stats.Rate(s, total) >= 0.10 {
			ar.CountriesOver10PctSingle = append(ar.CountriesOver10PctSingle, c.Code)
		}
	}
	sort.Strings(ar.CountriesOver10PctSingle)
	return ar
}

// DiversityRow is one row of Table I.
type DiversityRow struct {
	// Scope is "Total" or a country name.
	Scope string
	// Domains is the number of responsive multi-NS domains considered.
	Domains int
	// MultiIPPct, Multi24Pct, MultiASNPct are the shares of those
	// domains whose nameservers span more than one IPv4 address, /24
	// prefix, and ASN.
	MultiIPPct, Multi24Pct, MultiASNPct float64
}

// diversityCounts tallies one scope.
type diversityCounts struct {
	domains, multiIP, multi24, multiASN int
}

// add tallies one domain.
func (d *diversityCounts) add(multiIP, multi24, multiASN bool) {
	d.domains++
	if multiIP {
		d.multiIP++
	}
	if multi24 {
		d.multi24++
	}
	if multiASN {
		d.multiASN++
	}
}

func (d *diversityCounts) row(scope string) DiversityRow {
	return DiversityRow{
		Scope:       scope,
		Domains:     d.domains,
		MultiIPPct:  stats.Pct(d.multiIP, d.domains),
		Multi24Pct:  stats.Pct(d.multi24, d.domains),
		MultiASNPct: stats.Pct(d.multiASN, d.domains),
	}
}

// measureDiversity classifies one result's address set (the distinct
// addresses of r.AllAddrs, not built here): "more than one distinct
// value" only needs a first value and the sight of a different one.
func measureDiversity(r *measure.DomainResult, geo *geoip.DB) (multiIP, multi24, multiASN, ok bool) {
	var firstAddr netip.Addr
	var firstASN uint32
	haveASN := false
	for _, h := range r.Addrs {
		for _, addr := range h.Addrs {
			if !ok {
				firstAddr, ok = addr, true
			} else if addr != firstAddr {
				multiIP = true
				if nettopo.Prefix24(addr) != nettopo.Prefix24(firstAddr) {
					multi24 = true
				}
			}
			asn, found := geo.ASN(addr)
			switch {
			case !found:
			case !haveASN:
				firstASN, haveASN = asn, true
			case asn != firstASN:
				multiASN = true
			}
		}
	}
	return multiIP, multi24, multiASN, ok
}

// Diversity computes Table I: the Total row plus one row per requested
// country code (the paper's top 10), considering responsive multi-NS
// domains.
func Diversity(results []*measure.DomainResult, geo *geoip.DB, m *Mapper, topCodes []string) []DiversityRow {
	total := &diversityCounts{}
	perCountry := make(map[string]*diversityCounts, len(topCodes))
	wanted := make(map[string]bool, len(topCodes))
	for _, code := range topCodes {
		perCountry[code] = &diversityCounts{}
		wanted[code] = true
	}

	for _, r := range results {
		if !r.HasData() || !r.Responsive() || r.NSCount() < 2 {
			continue
		}
		multiIP, multi24, multiASN, ok := measureDiversity(r, geo)
		if !ok {
			continue
		}
		total.add(multiIP, multi24, multiASN)
		if c, found := m.CountryOf(r.Domain); found && wanted[c.Code] {
			perCountry[c.Code].add(multiIP, multi24, multiASN)
		}
	}

	rows := []DiversityRow{total.row("Total")}
	for _, code := range topCodes {
		name := code
		for _, c := range m.Countries() {
			if c.Code == code {
				name = c.Name
				break
			}
		}
		rows = append(rows, perCountry[code].row(name))
	}
	return rows
}

// DiversityByLevel returns the share of responsive multi-NS domains with
// nameservers in multiple /24 prefixes, by DNS hierarchy level — the
// paper's 87.1%-at-level-2 vs <80%-deeper comparison.
func DiversityByLevel(results []*measure.DomainResult, geo *geoip.DB) map[int]DiversityRow {
	byLevel := make(map[int]*diversityCounts)
	for _, r := range results {
		if !r.HasData() || !r.Responsive() || r.NSCount() < 2 {
			continue
		}
		multiIP, multi24, multiASN, ok := measureDiversity(r, geo)
		if !ok {
			continue
		}
		level := r.Domain.Level()
		t, exists := byLevel[level]
		if !exists {
			t = &diversityCounts{}
			byLevel[level] = t
		}
		t.add(multiIP, multi24, multiASN)
	}
	out := make(map[int]DiversityRow, len(byLevel))
	for level, t := range byLevel {
		out[level] = t.row("")
	}
	return out
}

// LevelDistribution returns the share of scanned domains at each DNS
// hierarchy level (§ III-B: <1% level 2, 85.4% level 3, 10.9% level 4).
func LevelDistribution(results []*measure.DomainResult) map[int]float64 {
	counts := make(map[int]int)
	total := 0
	for _, r := range results {
		if !r.HasData() {
			continue
		}
		counts[r.Domain.Level()]++
		total++
	}
	out := make(map[int]float64, len(counts))
	for level, n := range counts {
		out[level] = stats.Pct(n, total)
	}
	return out
}
