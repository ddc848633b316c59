// Package analysis implements every measurement analysis in the paper's
// § IV: nameserver replication and its ten-year trends, deployment
// privacy, topological diversity (Table I), third-party provider usage
// (Tables II/III), defective delegations and hijacking risk
// (Figs. 10-12), and parent/child consistency (Figs. 13-14).
//
// The analyses consume abstract inputs — a passive-DNS view, active scan
// results, a GeoIP database, a provider catalog, and a registrar — so
// they run identically against the synthetic world and against real
// data with the same shapes.
package analysis

import (
	"slices"
	"strings"

	"govdns/internal/dnsname"
)

// Country identifies one studied government namespace.
type Country struct {
	// Code is the ISO 3166-1 alpha-2 code.
	Code string
	// Name is the short English name.
	Name string
	// SubRegion is the UN M49 sub-region used for grouping.
	SubRegion string
	// Suffix is the government suffix (d_gov).
	Suffix dnsname.Name
}

// Mapper resolves domain names to their country.
type Mapper struct {
	countries []Country
	// byTLD lists, per top-level domain, the indices of the countries
	// whose suffix lies under it, longest suffix first (the later
	// country first between equal suffixes, as a map keyed by suffix
	// would keep it): a handful of suffix checks after one probe.
	byTLD map[dnsname.Name][]int32
	// slot is each country's counter slot in the per-country tallies,
	// with one more entry, unmapped, for unmapped domains: the index of
	// the first country with the same code, or unmapped for an empty
	// code. Tallies kept per slot therefore merge exactly as a map
	// keyed by code (with "" for unmapped domains) would.
	slot []int32
}

// NewMapper builds a mapper over the study's countries.
func NewMapper(countries []Country) *Mapper {
	m := &Mapper{
		countries: append([]Country(nil), countries...),
		byTLD:     make(map[dnsname.Name][]int32),
		slot:      make([]int32, len(countries)+1),
	}
	unmapped := int32(len(countries))
	first := make(map[string]int32, len(countries))
	for i, c := range m.countries {
		tld := topLevel(c.Suffix)
		m.byTLD[tld] = append(m.byTLD[tld], int32(i))
		s, seen := first[c.Code]
		switch {
		case c.Code == "":
			s = unmapped
		case !seen:
			s = int32(i)
			first[c.Code] = s
		}
		m.slot[i] = s
	}
	m.slot[unmapped] = unmapped
	for _, idx := range m.byTLD {
		slices.SortFunc(idx, func(a, b int32) int {
			if la, lb := len(m.countries[a].Suffix), len(m.countries[b].Suffix); la != lb {
				return lb - la
			}
			return int(b - a)
		})
	}
	return m
}

// topLevel returns name's top-level ancestor ("br." for "x.gov.br."):
// the name itself when it has one label (or no trailing dot and no
// other dot), the root for the root, and "" for the zero Name.
func topLevel(name dnsname.Name) dnsname.Name {
	if name == "" || name.IsRoot() {
		return name
	}
	return name[strings.LastIndexByte(string(name[:len(name)-1]), '.')+1:]
}

// suffixIndex returns the index in m.countries of the longest
// government suffix at or above name (the name itself, then each
// ancestor short of the root), or -1: one probe on the name's
// top-level domain, then a suffix check per government suffix under
// it. Suffixes under one top-level domain are ancestors of name only
// if they are suffixes of its string, so the first that is (the
// longest) is the one a walk up from name would meet first.
func (m *Mapper) suffixIndex(name dnsname.Name) int {
	for _, i := range m.byTLD[topLevel(name)] {
		if name.IsSubdomainOf(m.countries[i].Suffix) {
			return int(i)
		}
	}
	return -1
}

// slots is the length of a per-country tally: one slot per country
// and one for unmapped domains.
func (m *Mapper) slots() int { return len(m.slot) }

// slotOf returns the tally slot of country index idx (-1 = unmapped).
func (m *Mapper) slotOf(idx int) int32 {
	if idx < 0 {
		return int32(len(m.countries))
	}
	return m.slot[idx]
}

// slotCode returns the country code a tally slot stands for, "" for
// the unmapped slot.
func (m *Mapper) slotCode(s int32) string {
	if int(s) == len(m.countries) {
		return ""
	}
	return m.countries[s].Code
}

// isPrivateHost reports whether an NS hostname represents a private
// (in-government) deployment for a domain in country index idx (-1 =
// unmapped): the hostname falls under the same d_gov (§ IV-A's
// lower-bound definition).
func (m *Mapper) isPrivateHost(idx int, host dnsname.Name) bool {
	return idx >= 0 && host.IsSubdomainOf(m.countries[idx].Suffix)
}

// Groups assigns each country to its Table II/III group: the UN
// sub-region, except the given top country codes, which become singleton
// groups. Returns code → group label and the number of distinct groups.
func (m *Mapper) Groups(topCodes []string) (map[string]string, int) {
	top := make(map[string]bool, len(topCodes))
	for _, code := range topCodes {
		top[code] = true
	}
	out := make(map[string]string, len(m.countries))
	distinct := make(map[string]bool)
	for _, c := range m.countries {
		label := c.SubRegion
		if top[c.Code] {
			label = c.Name
		}
		out[c.Code] = label
		distinct[label] = true
	}
	return out, len(distinct)
}

// NSDomain returns the registrable domain of a nameserver hostname, used
// for hijack-risk checks: the last two labels, or three when the second
// label is a common second-level registry label.
func NSDomain(host dnsname.Name) dnsname.Name {
	n := 2
	if two, ok := host.AncestorAtLevel(2); ok && two != host {
		switch two[:strings.IndexByte(string(two), '.')] {
		case "co", "com", "net", "org", "ac", "go", "gob", "gouv", "gov":
			n = 3
		}
	}
	if domain, ok := host.AncestorAtLevel(n); ok {
		return domain
	}
	return host
}
