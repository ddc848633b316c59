package analysis

import (
	"slices"

	"govdns/internal/dnsname"
	"govdns/internal/measure"
	"govdns/internal/registrar"
	"govdns/internal/stats"
)

// DelegationStats summarizes § IV-C: defective (lame) delegations.
type DelegationStats struct {
	// WithData is the number of domains with a non-empty parent NS set.
	WithData int
	// AnyDefect counts domains with at least one non-answering
	// nameserver (29.5% in the paper).
	AnyDefect int
	// Partial counts domains where some but not all nameservers answer
	// (25.4%).
	Partial int
	// Full counts domains where no nameserver answers.
	Full int
	// PerCountry maps country code to its per-country tally.
	PerCountry map[string]DelegationCountry
}

// DelegationCountry is one country's defective-delegation tally
// (Figs. 10a/10b).
type DelegationCountry struct {
	Domains, AnyDefect, Partial, Full int
}

// AnyDefectPct returns the country's defective share.
func (d DelegationCountry) AnyDefectPct() float64 { return stats.Pct(d.AnyDefect, d.Domains) }

// AnyDefectPct returns the global defective share.
func (d *DelegationStats) AnyDefectPct() float64 { return stats.Pct(d.AnyDefect, d.WithData) }

// PartialPct returns the global partial share.
func (d *DelegationStats) PartialPct() float64 { return stats.Pct(d.Partial, d.WithData) }

// FullPct returns the global fully-defective share.
func (d *DelegationStats) FullPct() float64 { return stats.Pct(d.Full, d.WithData) }

// add tallies one domain with data.
func (d *DelegationCountry) add(full, partial bool) {
	d.Domains++
	switch {
	case full:
		d.AnyDefect++
		d.Full++
	case partial:
		d.AnyDefect++
		d.Partial++
	}
}

// merge adds o's tallies to d's.
func (d *DelegationCountry) merge(o DelegationCountry) {
	d.Domains += o.Domains
	d.AnyDefect += o.AnyDefect
	d.Partial += o.Partial
	d.Full += o.Full
}

// delegationTally is one chunk's share of Delegations.
type delegationTally struct {
	total   DelegationCountry
	country []DelegationCountry // per country slot
}

// Delegations computes DelegationStats from scan results.
func Delegations(results []*measure.DomainResult, m *Mapper) *DelegationStats {
	parts := perChunk(len(results), func(t *delegationTally, lo, hi int) {
		t.country = make([]DelegationCountry, m.slots())
		for _, r := range results[lo:hi] {
			if !r.HasData() {
				continue
			}
			// Fully defective: no server answers; partially: some
			// parent-listed host does not answer, but another does.
			full := !r.Responsive()
			partial := !full && r.HasDefect()
			t.total.add(full, partial)
			t.country[m.slotOf(m.suffixIndex(r.Domain))].add(full, partial)
		}
	})
	t := &parts[0]
	for _, p := range parts[1:] {
		t.total.merge(p.total)
		for s := range t.country {
			t.country[s].merge(p.country[s])
		}
	}
	ds := &DelegationStats{
		WithData:   t.total.Domains,
		AnyDefect:  t.total.AnyDefect,
		Partial:    t.total.Partial,
		Full:       t.total.Full,
		PerCountry: make(map[string]DelegationCountry),
	}
	for s, entry := range t.country {
		if entry.Domains > 0 {
			ds.PerCountry[m.slotCode(int32(s))] = entry
		}
	}
	return ds
}

// HijackRisk summarizes § IV-C's registrable dangling nameserver
// analysis (Figs. 11 and 12).
type HijackRisk struct {
	// AvailableNSDomains are the registrable nameserver domains found
	// in defective delegations, sorted.
	AvailableNSDomains []dnsname.Name
	// AffectedDomains counts government domains whose delegation points
	// into an available nameserver domain.
	AffectedDomains int
	// Countries counts countries with at least one affected domain.
	Countries int
	// FullyUnresponsiveAffected counts affected domains with no
	// authoritative response at all (the stale-record cluster: 625 in
	// the paper).
	FullyUnresponsiveAffected int
	// MultiCountryNSDomains counts available nameserver domains used by
	// domains of more than one country (2 in the paper).
	MultiCountryNSDomains int
	// Prices are the registration quotes for the available domains,
	// sorted ascending (Fig. 12).
	Prices []registrar.Cents
	// MedianPrice is the median quote.
	MedianPrice registrar.Cents
	// PerCountry maps country code to (affected domains, available
	// nameserver domains) for Fig. 11.
	PerCountry map[string]HijackCountry
}

// HijackCountry is one country's Fig. 11 entry.
type HijackCountry struct {
	AffectedDomains    int
	AvailableNSDomains int
}

// hijackPair is one available nameserver domain seen behind a
// defective delegation of a domain in one country slot.
type hijackPair struct {
	nsDomain dnsname.Name
	slot     int32
}

// hijackTally is one chunk's share of HijackRisks.
type hijackTally struct {
	affected, fullyUnresponsive int
	affectedBy                  []int // per country slot
	// available caches reg.Available per nameserver domain; pairs is
	// the set of (available nameserver domain, slot) pairs seen.
	available map[dnsname.Name]bool
	pairs     map[hijackPair]struct{}
}

// HijackRisks finds registrable nameserver domains behind defective
// delegations: for every defective nameserver host outside government
// suffixes, check whether its registrable domain is available.
func HijackRisks(results []*measure.DomainResult, m *Mapper, reg *registrar.Registry) *HijackRisk {
	parts := perChunk(len(results), func(t *hijackTally, lo, hi int) {
		t.affectedBy = make([]int, m.slots())
		t.available = make(map[dnsname.Name]bool)
		t.pairs = make(map[hijackPair]struct{})
		for _, r := range results[lo:hi] {
			if !r.HasDefect() {
				continue
			}
			idx := m.suffixIndex(r.Domain)
			slot := m.slotOf(idx)
			affected := false
			for _, host := range r.ParentNS {
				// The defective hosts: those no address answered for.
				if r.HostAnswered(host) {
					continue
				}
				if m.isPrivateHost(idx, host) {
					continue // in-government hosts pose no registration risk
				}
				nsDomain := NSDomain(host)
				known, checked := t.available[nsDomain]
				if !checked {
					known = reg.Available(nsDomain)
					t.available[nsDomain] = known
				}
				if !known {
					continue
				}
				affected = true
				t.pairs[hijackPair{nsDomain, slot}] = struct{}{}
			}
			if !affected {
				continue
			}
			t.affected++
			t.affectedBy[slot]++
			if !r.Responsive() {
				t.fullyUnresponsive++
			}
		}
	})
	var pairs []hijackPair
	t := &parts[0]
	for i := range parts {
		p := &parts[i]
		if i > 0 {
			t.affected += p.affected
			t.fullyUnresponsive += p.fullyUnresponsive
			addCounts(t.affectedBy, p.affectedBy)
		}
		for pair := range p.pairs {
			pairs = append(pairs, pair)
		}
	}
	slices.SortFunc(pairs, func(a, b hijackPair) int {
		if c := dnsname.Compare(a.nsDomain, b.nsDomain); c != 0 {
			return c
		}
		return int(a.slot - b.slot)
	})
	pairs = slices.Compact(pairs)

	hr := &HijackRisk{
		AffectedDomains:           t.affected,
		FullyUnresponsiveAffected: t.fullyUnresponsive,
		PerCountry:                make(map[string]HijackCountry),
	}
	// The pairs run in nameserver-domain order: each run is one
	// available domain, with one pair per country slot using it.
	nsDomainsBy := make([]int, m.slots())
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].nsDomain == pairs[i].nsDomain {
			j++
		}
		hr.AvailableNSDomains = append(hr.AvailableNSDomains, pairs[i].nsDomain)
		if j-i > 1 {
			hr.MultiCountryNSDomains++
		}
		for _, p := range pairs[i:j] {
			nsDomainsBy[p.slot]++
		}
		i = j
	}
	for s, affected := range t.affectedBy {
		if affected == 0 {
			continue
		}
		if nsDomainsBy[s] > 0 {
			hr.Countries++
		}
		hr.PerCountry[m.slotCode(int32(s))] = HijackCountry{
			AffectedDomains:    affected,
			AvailableNSDomains: nsDomainsBy[s],
		}
	}
	hr.Prices = reg.Quote(hr.AvailableNSDomains)
	hr.MedianPrice = registrar.Median(hr.Prices)
	return hr
}
