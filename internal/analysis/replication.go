package analysis

import (
	"sort"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
	"govdns/internal/stats"
)

// NSDaily computes the paper's Fig. 5 representation: for one domain and
// one year, the number of nameservers active on each day that had any
// active NS record, from the domain's PDNS record sets.
func NSDaily(sets []pdns.RecordSet, year int) []int {
	first, last := pdns.YearRange(year)
	days := int(last-first) + 1
	counts := make([]int, days)
	for i := range sets {
		rs := &sets[i]
		if rs.RRType != dnswire.TypeNS || !rs.Overlaps(first, last) {
			continue
		}
		from, to := rs.FirstSeen, rs.LastSeen
		if from < first {
			from = first
		}
		if to > last {
			to = last
		}
		for d := from; d <= to; d++ {
			counts[d-first]++
		}
	}
	var active []int
	for _, c := range counts {
		if c > 0 {
			active = append(active, c)
		}
	}
	return active
}

// NSModeForYear returns the mode of NSDaily — the paper's per-year
// representative nameserver count for a domain. ok is false when the
// domain had no active NS records that year.
func NSModeForYear(sets []pdns.RecordSet, year int) (int, bool) {
	return stats.Mode(NSDaily(sets, year))
}

// YearStats aggregates one study year of PDNS data (Figs. 2, 3, 7).
type YearStats struct {
	Year int
	// Domains is the number of distinct names with active NS records.
	Domains int
	// Countries is the number of countries those names map to.
	Countries int
	// Nameservers is the number of distinct NS hostnames seen.
	Nameservers int
	// SingleNS is the number of d_1NS domains (NS-count mode == 1).
	SingleNS int
	// SingleNSPrivate counts d_1NS whose nameserver is in-government.
	SingleNSPrivate int
	// PrivateAll counts all domains whose nameservers that year are all
	// in-government.
	PrivateAll int
}

// PrivateSinglePct returns the share of d_1NS using private deployments
// (Fig. 7's upper series).
func (y YearStats) PrivateSinglePct() float64 { return stats.Pct(y.SingleNSPrivate, y.SingleNS) }

// PrivateAllPct returns the share of all domains on private deployments
// (Fig. 7's lower series).
func (y YearStats) PrivateAllPct() float64 { return stats.Pct(y.PrivateAll, y.Domains) }

// domainYear holds one domain's records for reuse across years.
type domainIndex struct {
	names []dnsname.Name
	sets  map[dnsname.Name][]pdns.RecordSet
}

// indexByDomain groups a view's NS record sets by owner.
func indexByDomain(view *pdns.View) *domainIndex {
	idx := &domainIndex{sets: make(map[dnsname.Name][]pdns.RecordSet)}
	for _, rs := range view.Sets {
		if rs.RRType != dnswire.TypeNS {
			continue
		}
		if _, seen := idx.sets[rs.RRName]; !seen {
			idx.names = append(idx.names, rs.RRName)
		}
		idx.sets[rs.RRName] = append(idx.sets[rs.RRName], rs)
	}
	sort.Slice(idx.names, func(i, j int) bool { return dnsname.Compare(idx.names[i], idx.names[j]) < 0 })
	return idx
}

// PDNSYearly computes YearStats for every study year from a (stability
// filtered) PDNS view.
func PDNSYearly(view *pdns.View, m *Mapper, startYear, endYear int) []YearStats {
	idx := indexByDomain(view)
	out := make([]YearStats, 0, endYear-startYear+1)
	for year := startYear; year <= endYear; year++ {
		first, last := pdns.YearRange(year)
		ys := YearStats{Year: year}
		countries := make(map[string]bool)
		hosts := make(map[string]bool)
		for _, name := range idx.names {
			sets := idx.sets[name]
			mode, ok := NSModeForYear(sets, year)
			if !ok {
				continue
			}
			ys.Domains++
			if c, ok := m.CountryOf(name); ok {
				countries[c.Code] = true
			}
			private := true
			anyHost := false
			for i := range sets {
				rs := &sets[i]
				if !rs.Overlaps(first, last) {
					continue
				}
				hosts[rs.RData] = true
				anyHost = true
				host, err := dnsname.Parse(rs.RData)
				if err != nil || !m.IsPrivateHost(name, host) {
					private = false
				}
			}
			if anyHost && private {
				ys.PrivateAll++
			}
			if mode == 1 {
				ys.SingleNS++
				if anyHost && private {
					ys.SingleNSPrivate++
				}
			}
		}
		ys.Countries = len(countries)
		ys.Nameservers = len(hosts)
		out = append(out, ys)
	}
	return out
}

// NameserversPerYear returns the number of distinct NS rdata strings
// active in each year of [startYear, endYear] — Fig. 3's nameserver
// series over the whole view, with no per-domain mode gating.
func NameserversPerYear(view *pdns.View, startYear, endYear int) []int {
	out := make([]int, 0, endYear-startYear+1)
	for year := startYear; year <= endYear; year++ {
		first, last := pdns.YearRange(year)
		hosts := make(map[string]bool)
		for i := range view.Sets {
			rs := &view.Sets[i]
			if rs.RRType == dnswire.TypeNS && rs.Overlaps(first, last) {
				hosts[rs.RData] = true
			}
		}
		out = append(out, len(hosts))
	}
	return out
}

// DomainsPerCountry returns each country's domain count for one year
// (Fig. 4), keyed by country code.
func DomainsPerCountry(view *pdns.View, m *Mapper, year int) map[string]int {
	idx := indexByDomain(view)
	out := make(map[string]int)
	for _, name := range idx.names {
		if _, ok := NSModeForYear(idx.sets[name], year); !ok {
			continue
		}
		if c, ok := m.CountryOf(name); ok {
			out[c.Code]++
		}
	}
	return out
}

// ChurnStats tracks the paper's Fig. 6 series for one year.
type ChurnStats struct {
	Year int
	// Total is the number of d_1NS that year.
	Total int
	// New is how many were not d_1NS the previous year.
	New int
	// FromBase is how many were already d_1NS in the base year (2011).
	FromBase int
	// BaseGone is how many of the base year's d_1NS are no longer
	// active (any NS count) this year.
	BaseGone int
	// BaseTotal is the base-year d_1NS population size.
	BaseTotal int
}

// NewPct returns the share of this year's d_1NS that are new.
func (c ChurnStats) NewPct() float64 { return stats.Pct(c.New, c.Total) }

// FromBasePct returns the share of the base year's d_1NS still
// single-NS this year.
func (c ChurnStats) FromBasePct() float64 { return stats.Pct(c.FromBase, c.BaseTotal) }

// BaseGonePct returns the share of the base year's d_1NS no longer
// active.
func (c ChurnStats) BaseGonePct() float64 { return stats.Pct(c.BaseGone, c.BaseTotal) }

// SingleNSChurn computes the Fig. 6 overlap/churn series over
// [startYear, endYear], using startYear as the base year.
func SingleNSChurn(view *pdns.View, startYear, endYear int) []ChurnStats {
	idx := indexByDomain(view)
	singlesByYear := make(map[int]map[dnsname.Name]bool)
	activeByYear := make(map[int]map[dnsname.Name]bool)
	for year := startYear; year <= endYear; year++ {
		singles := make(map[dnsname.Name]bool)
		active := make(map[dnsname.Name]bool)
		for _, name := range idx.names {
			mode, ok := NSModeForYear(idx.sets[name], year)
			if !ok {
				continue
			}
			active[name] = true
			if mode == 1 {
				singles[name] = true
			}
		}
		singlesByYear[year] = singles
		activeByYear[year] = active
	}

	base := singlesByYear[startYear]
	var out []ChurnStats
	for year := startYear + 1; year <= endYear; year++ {
		cs := ChurnStats{Year: year, BaseTotal: len(base)}
		singles := singlesByYear[year]
		prev := singlesByYear[year-1]
		cs.Total = len(singles)
		for name := range singles {
			if !prev[name] {
				cs.New++
			}
			if base[name] {
				cs.FromBase++
			}
		}
		for name := range base {
			if !activeByYear[year][name] {
				cs.BaseGone++
			}
		}
		out = append(out, cs)
	}
	return out
}
