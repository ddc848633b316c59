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
// its child view (childView or r.ChildNS(): distinct, in any order),
// which callers need themselves. C is empty exactly when the result is
// not Responsive. The NS sets hold a handful of names, so membership is
// a scan, not a map.
func classify(r *measure.DomainResult, child []dnsname.Name) ConsistencyClass {
	if len(child) == 0 {
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

// consistencyTally is one chunk's share of Consistency.
type consistencyTally struct {
	responsive, inconsistent, inconsistentDefect, singleLabelNS int
	counts                                                      [ClassUnresponsive + 1]int
	// Per level: responsive and P=C domains; per country slot:
	// responsive and P≠C domains.
	levelTotals, levelEqual        []int
	countryTotals, countryDisagree []int
}

// Consistency computes ConsistencyStats from scan results.
func Consistency(results []*measure.DomainResult, m *Mapper) *ConsistencyStats {
	parts := perChunk(len(results), func(t *consistencyTally, lo, hi int) {
		t.countryTotals = make([]int, m.slots())
		t.countryDisagree = make([]int, m.slots())
		var child []dnsname.Name // C of the current result, in one reused buffer
		for _, r := range results[lo:hi] {
			if !r.HasData() {
				continue
			}
			child = childView(r, child[:0])
			class := classify(r, child)
			if class == ClassUnresponsive {
				continue
			}
			t.responsive++
			t.counts[class]++

			level := r.Domain.Level()
			t.levelTotals = growCount(t.levelTotals, level)
			slot := m.slotOf(m.suffixIndex(r.Domain))
			t.countryTotals[slot]++

			if class == ClassEqual {
				t.levelEqual = growCount(t.levelEqual, level)
				continue
			}
			t.countryDisagree[slot]++
			t.inconsistent++
			if r.PartiallyDefective() {
				t.inconsistentDefect++
			}
			if hasSingleLabel(r.ParentNS) || hasSingleLabel(child) {
				t.singleLabelNS++
			}
		}
	})
	t := &parts[0]
	for _, p := range parts[1:] {
		t.responsive += p.responsive
		t.inconsistent += p.inconsistent
		t.inconsistentDefect += p.inconsistentDefect
		t.singleLabelNS += p.singleLabelNS
		for class, n := range p.counts {
			t.counts[class] += n
		}
		t.levelTotals = addCounts(t.levelTotals, p.levelTotals)
		t.levelEqual = addCounts(t.levelEqual, p.levelEqual)
		addCounts(t.countryTotals, p.countryTotals)
		addCounts(t.countryDisagree, p.countryDisagree)
	}

	cs := &ConsistencyStats{
		Responsive:                t.responsive,
		Counts:                    make(map[ConsistencyClass]int),
		EqualPct:                  stats.Pct(t.counts[ClassEqual], t.responsive),
		ByLevel:                   make(map[int]float64),
		InconsistentWithDefectPct: stats.Pct(t.inconsistentDefect, t.inconsistent),
		DisagreementPerCountry:    make(map[string]float64),
		SingleLabelNS:             t.singleLabelNS,
	}
	for class, n := range t.counts {
		if n > 0 {
			cs.Counts[ConsistencyClass(class)] = n
		}
	}
	for level, total := range t.levelTotals {
		if total > 0 {
			equal := 0
			if level < len(t.levelEqual) {
				equal = t.levelEqual[level]
			}
			cs.ByLevel[level] = stats.Pct(equal, total)
		}
	}
	for s, total := range t.countryTotals {
		if total > 0 {
			cs.DisagreementPerCountry[m.slotCode(int32(s))] = stats.Pct(t.countryDisagree[s], total)
		}
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

// inconsistencyTally is one chunk's share of InconsistencyHijacks.
type inconsistencyTally struct {
	affected int
	// nsDomains is the set of registrable nameserver domains found;
	// countries marks the country slots of affected domains.
	nsDomains map[dnsname.Name]struct{}
	countries []bool
}

// InconsistencyHijacks checks the non-defective inconsistent domains for
// registrable nameserver domains among hosts not present in both views.
func InconsistencyHijacks(results []*measure.DomainResult, m *Mapper, reg *registrar.Registry) *InconsistencyHijack {
	parts := perChunk(len(results), func(t *inconsistencyTally, lo, hi int) {
		t.nsDomains = make(map[dnsname.Name]struct{})
		t.countries = make([]bool, m.slots())
		var child []dnsname.Name // C of the current result, in one reused buffer
		for _, r := range results[lo:hi] {
			if !r.HasData() {
				continue
			}
			// Most results are consistent: classify before the
			// defect test, which skips the rest.
			child = childView(r, child[:0])
			class := classify(r, child)
			if class == ClassEqual || class == ClassUnresponsive || r.HasDefect() {
				continue
			}
			idx := m.suffixIndex(r.Domain)
			affected := false
			// Hosts of one view that the other view lacks.
			check := func(hosts, other []dnsname.Name) {
				for _, host := range hosts {
					if slices.Contains(other, host) {
						continue // present in both views
					}
					if m.isPrivateHost(idx, host) {
						continue
					}
					nsDomain := NSDomain(host)
					if !reg.Available(nsDomain) {
						continue
					}
					t.nsDomains[nsDomain] = struct{}{}
					affected = true
				}
			}
			check(r.ParentNS, child)
			check(child, r.ParentNS)
			if affected {
				t.affected++
				if idx >= 0 {
					t.countries[m.slot[idx]] = true
				}
			}
		}
	})
	ih := &InconsistencyHijack{}
	countries := make([]bool, m.slots())
	for _, p := range parts {
		ih.AffectedDomains += p.affected
		for nsDomain := range p.nsDomains {
			ih.AvailableNSDomains = append(ih.AvailableNSDomains, nsDomain)
		}
		for s, seen := range p.countries {
			countries[s] = countries[s] || seen
		}
	}
	slices.SortFunc(ih.AvailableNSDomains, dnsname.Compare)
	ih.AvailableNSDomains = slices.Compact(ih.AvailableNSDomains)
	for _, seen := range countries {
		if seen {
			ih.Countries++
		}
	}
	ih.Prices = reg.Quote(ih.AvailableNSDomains)
	if len(ih.Prices) > 0 {
		ih.MinPrice = ih.Prices[0]
	}
	return ih
}
