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
	"sort"
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
	bySuffix  map[dnsname.Name]int
}

// NewMapper builds a mapper over the study's countries.
func NewMapper(countries []Country) *Mapper {
	m := &Mapper{
		countries: append([]Country(nil), countries...),
		bySuffix:  make(map[dnsname.Name]int, len(countries)),
	}
	for i, c := range m.countries {
		m.bySuffix[c.Suffix] = i
	}
	return m
}

// Countries returns the mapper's country list.
func (m *Mapper) Countries() []Country { return m.countries }

// suffixIndex returns the index in m.countries of the longest
// government suffix at or above name (the name itself, then each
// ancestor short of the root), or -1: one probe per level.
func (m *Mapper) suffixIndex(name dnsname.Name) int {
	for cur := name; ; {
		if idx, ok := m.bySuffix[cur]; ok {
			return idx
		}
		if cur = cur.Parent(); cur.IsRoot() {
			return -1
		}
	}
}

// CountryOf maps a domain to its country by the longest matching
// government suffix (the suffix itself also matches).
func (m *Mapper) CountryOf(name dnsname.Name) (Country, bool) {
	if idx := m.suffixIndex(name); idx >= 0 {
		return m.countries[idx], true
	}
	return Country{}, false
}

// countryIndexOf resolves a domain to its index in m.countries (-1 =
// unmapped) — CountryOf in the index form the corpus memoizes.
func (m *Mapper) countryIndexOf(name dnsname.Name) int32 {
	return int32(m.suffixIndex(name))
}

// SuffixOf returns the d_gov a domain belongs to.
func (m *Mapper) SuffixOf(name dnsname.Name) (dnsname.Name, bool) {
	if idx := m.suffixIndex(name); idx >= 0 {
		return m.countries[idx].Suffix, true
	}
	return dnsname.Root, false
}

// IsPrivateHost reports whether an NS hostname represents a private
// (in-government) deployment for a domain: the hostname falls under the
// same d_gov (§ IV-A's lower-bound definition).
func (m *Mapper) IsPrivateHost(domain, host dnsname.Name) bool {
	suffix, ok := m.SuffixOf(domain)
	if !ok {
		return false
	}
	return host.IsSubdomainOf(suffix)
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

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
