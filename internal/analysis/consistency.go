package analysis

import (
	"slices"

	"govdns/internal/dnsname"
	"govdns/internal/measure"
	"govdns/internal/registrar"
	"govdns/internal/stats"
)

// ConsistencyClass is the Sommese et al. parent/child classification the
// paper follows in § IV-D.
type ConsistencyClass int

// Consistency classes.
const (
	// ClassEqual: P == C.
	ClassEqual ConsistencyClass = iota + 1
	// ClassParentSuperset: P ⊃ C.
	ClassParentSuperset
	// ClassChildSuperset: C ⊃ P.
	ClassChildSuperset
	// ClassIntersect: the sets overlap but neither contains the other.
	ClassIntersect
	// ClassDisjointIPOverlap: P ∩ C = ∅ but their servers share
	// addresses.
	ClassDisjointIPOverlap
	// ClassDisjoint: no overlap at all.
	ClassDisjoint
	// ClassUnresponsive: no child view could be obtained.
	ClassUnresponsive
)

// String returns the class mnemonic.
func (c ConsistencyClass) String() string {
	switch c {
	case ClassEqual:
		return "P=C"
	case ClassParentSuperset:
		return "P>C"
	case ClassChildSuperset:
		return "C>P"
	case ClassIntersect:
		return "intersect"
	case ClassDisjointIPOverlap:
		return "disjoint-ip-overlap"
	case ClassDisjoint:
		return "disjoint"
	case ClassUnresponsive:
		return "unresponsive"
	default:
		return "unknown"
	}
}

// classify determines the consistency class of one scan result, given
// its child view (r.ChildNS(): sorted, distinct), which callers need
// themselves. The NS sets hold a handful of names, so membership is a
// scan, not a map.
func classify(r *measure.DomainResult, child []dnsname.Name) ConsistencyClass {
	if !r.Responsive() || len(child) == 0 {
		return ClassUnresponsive
	}
	nParent := 0 // distinct names in P
	for i, host := range r.ParentNS {
		if !slices.Contains(r.ParentNS[:i], host) {
			nParent++
		}
	}
	inter := 0
	for _, host := range child {
		if slices.Contains(r.ParentNS, host) {
			inter++
		}
	}
	switch {
	case inter == nParent && inter == len(child):
		return ClassEqual
	case inter == len(child) && nParent > len(child):
		return ClassParentSuperset
	case inter == nParent && len(child) > nParent:
		return ClassChildSuperset
	case inter > 0:
		return ClassIntersect
	}
	// Disjoint: do the two views' hosts share an address?
	for _, host := range child {
		for _, a := range r.AddrsOf(host) {
			for _, parent := range r.ParentNS {
				if slices.Contains(r.AddrsOf(parent), a) {
					return ClassDisjointIPOverlap
				}
			}
		}
	}
	return ClassDisjoint
}

// hasSingleLabel reports whether any of the names is a single label.
func hasSingleLabel(names []dnsname.Name) bool {
	return slices.ContainsFunc(names, func(n dnsname.Name) bool { return n.Level() == 1 })
}

// ConsistencyStats summarizes Figs. 13 and 14.
type ConsistencyStats struct {
	// Responsive is the number of classified (responsive) domains.
	Responsive int
	// Counts tallies each class over responsive domains.
	Counts map[ConsistencyClass]int
	// EqualPct is the P=C share of responsive domains (76.8% in the
	// paper).
	EqualPct float64
	// ByLevel maps DNS hierarchy level to its P=C share (93.5% at level
	// 2 vs <=77% deeper).
	ByLevel map[int]float64
	// InconsistentWithDefectPct is the share of P≠C domains that also
	// have a partially defective delegation (40.9%).
	InconsistentWithDefectPct float64
	// DisagreementPerCountry maps country code to its P≠C share of
	// responsive domains (Fig. 14).
	DisagreementPerCountry map[string]float64
	// SingleLabelNS counts inconsistent domains exposing a non-FQDN
	// (single-label) nameserver — the trailing-dot typo artifact.
	SingleLabelNS int
}

// Consistency computes ConsistencyStats from scan results.
func Consistency(results []*measure.DomainResult, m *Mapper) *ConsistencyStats {
	cs := &ConsistencyStats{
		Counts:                 make(map[ConsistencyClass]int),
		ByLevel:                make(map[int]float64),
		DisagreementPerCountry: make(map[string]float64),
	}
	levelTotals := make(map[int]int)
	levelEqual := make(map[int]int)
	countryTotals := make(map[string]int)
	countryDisagree := make(map[string]int)
	inconsistent, inconsistentDefect := 0, 0

	var child []dnsname.Name // C of the current result, in one reused buffer
	for _, r := range results {
		if !r.HasData() {
			continue
		}
		child = r.AppendChildNS(child[:0])
		class := classify(r, child)
		if class == ClassUnresponsive {
			continue
		}
		cs.Responsive++
		cs.Counts[class]++

		level := r.Domain.Level()
		levelTotals[level]++
		code := ""
		if c, ok := m.CountryOf(r.Domain); ok {
			code = c.Code
		}
		countryTotals[code]++

		if class == ClassEqual {
			levelEqual[level]++
			continue
		}
		countryDisagree[code]++
		inconsistent++
		if r.PartiallyDefective() {
			inconsistentDefect++
		}
		if hasSingleLabel(r.ParentNS) || hasSingleLabel(child) {
			cs.SingleLabelNS++
		}
	}

	cs.EqualPct = stats.Pct(cs.Counts[ClassEqual], cs.Responsive)
	for level, total := range levelTotals {
		cs.ByLevel[level] = stats.Pct(levelEqual[level], total)
	}
	cs.InconsistentWithDefectPct = stats.Pct(inconsistentDefect, inconsistent)
	for code, total := range countryTotals {
		cs.DisagreementPerCountry[code] = stats.Pct(countryDisagree[code], total)
	}
	return cs
}

// InconsistencyHijack is § IV-D's second hijack probe: dangling records
// reachable only through inconsistency — the parent (or child) points at
// a nameserver domain that is registrable even though the delegation is
// not defective (e.g. a parking service answers).
type InconsistencyHijack struct {
	// AvailableNSDomains are the registrable nameserver domains, sorted.
	AvailableNSDomains []dnsname.Name
	// AffectedDomains and Countries count the blast radius (26 domains
	// in 7 countries in the paper).
	AffectedDomains int
	Countries       int
	// MinPrice is the cheapest quote (300 USD in the paper).
	MinPrice registrar.Cents
	// Prices are all quotes, ascending.
	Prices []registrar.Cents
}

// InconsistencyHijacks checks the non-defective inconsistent domains for
// registrable nameserver domains among hosts not present in both views.
func InconsistencyHijacks(results []*measure.DomainResult, m *Mapper, reg *registrar.Registry) *InconsistencyHijack {
	ih := &InconsistencyHijack{}
	nsDomains := make(map[dnsname.Name]bool)
	countries := make(map[string]bool)

	var child []dnsname.Name // C of the current result, in one reused buffer
	for _, r := range results {
		if !r.HasData() || r.HasDefect() {
			continue
		}
		child = r.AppendChildNS(child[:0])
		class := classify(r, child)
		if class == ClassEqual || class == ClassUnresponsive {
			continue
		}
		affected := false
		// Hosts of one view that the other view lacks.
		check := func(hosts, other []dnsname.Name) {
			for _, host := range hosts {
				if slices.Contains(other, host) {
					continue // present in both views
				}
				if m.IsPrivateHost(r.Domain, host) {
					continue
				}
				nsDomain := NSDomain(host)
				if !reg.Available(nsDomain) {
					continue
				}
				nsDomains[nsDomain] = true
				affected = true
			}
		}
		check(r.ParentNS, child)
		check(child, r.ParentNS)
		if affected {
			ih.AffectedDomains++
			if country, ok := m.CountryOf(r.Domain); ok {
				countries[country.Code] = true
			}
		}
	}

	for nsDomain := range nsDomains {
		ih.AvailableNSDomains = append(ih.AvailableNSDomains, nsDomain)
	}
	slices.SortFunc(ih.AvailableNSDomains, dnsname.Compare)
	ih.Countries = len(countries)
	ih.Prices = reg.Quote(ih.AvailableNSDomains)
	if len(ih.Prices) > 0 {
		ih.MinPrice = ih.Prices[0]
	}
	return ih
}
