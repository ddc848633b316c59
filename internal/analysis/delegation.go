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

// Delegations computes DelegationStats from scan results.
func Delegations(results []*measure.DomainResult, m *Mapper) *DelegationStats {
	ds := &DelegationStats{PerCountry: make(map[string]DelegationCountry)}
	for _, r := range results {
		if !r.HasData() {
			continue
		}
		ds.WithData++
		code := ""
		if c, ok := m.CountryOf(r.Domain); ok {
			code = c.Code
		}
		entry := ds.PerCountry[code]
		entry.Domains++

		switch {
		case r.FullyDefective():
			ds.AnyDefect++
			ds.Full++
			entry.AnyDefect++
			entry.Full++
		case r.PartiallyDefective():
			ds.AnyDefect++
			ds.Partial++
			entry.AnyDefect++
			entry.Partial++
		}
		ds.PerCountry[code] = entry
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

// HijackRisks finds registrable nameserver domains behind defective
// delegations: for every defective nameserver host outside government
// suffixes, check whether its registrable domain is available.
func HijackRisks(results []*measure.DomainResult, m *Mapper, reg *registrar.Registry) *HijackRisk {
	hr := &HijackRisk{PerCountry: make(map[string]HijackCountry)}
	nsDomainCountries := make(map[dnsname.Name]map[string]bool)
	nsDomainsByCountry := make(map[string]map[dnsname.Name]bool)
	available := make(map[dnsname.Name]bool)

	for _, r := range results {
		if !r.HasDefect() {
			continue
		}
		code := ""
		if c, ok := m.CountryOf(r.Domain); ok {
			code = c.Code
		}
		affected := false
		for _, host := range r.ParentNS {
			// The defective hosts: those no address answered for.
			if r.HostAnswered(host) {
				continue
			}
			if m.IsPrivateHost(r.Domain, host) {
				continue // in-government hosts pose no registration risk
			}
			nsDomain := NSDomain(host)
			known, checked := available[nsDomain]
			if !checked {
				known = reg.Available(nsDomain)
				available[nsDomain] = known
			}
			if !known {
				continue
			}
			affected = true
			if nsDomainCountries[nsDomain] == nil {
				nsDomainCountries[nsDomain] = make(map[string]bool)
			}
			nsDomainCountries[nsDomain][code] = true
			if nsDomainsByCountry[code] == nil {
				nsDomainsByCountry[code] = make(map[dnsname.Name]bool)
			}
			nsDomainsByCountry[code][nsDomain] = true
		}
		if !affected {
			continue
		}
		hr.AffectedDomains++
		entry := hr.PerCountry[code]
		entry.AffectedDomains++
		hr.PerCountry[code] = entry
		if !r.Responsive() {
			hr.FullyUnresponsiveAffected++
		}
	}

	for nsDomain, isAvailable := range available {
		if isAvailable && nsDomainCountries[nsDomain] != nil {
			hr.AvailableNSDomains = append(hr.AvailableNSDomains, nsDomain)
			if len(nsDomainCountries[nsDomain]) > 1 {
				hr.MultiCountryNSDomains++
			}
		}
	}
	slices.SortFunc(hr.AvailableNSDomains, dnsname.Compare)
	for code, domains := range nsDomainsByCountry {
		entry := hr.PerCountry[code]
		entry.AvailableNSDomains = len(domains)
		hr.PerCountry[code] = entry
	}
	hr.Countries = len(nsDomainsByCountry)
	hr.Prices = reg.Quote(hr.AvailableNSDomains)
	hr.MedianPrice = registrar.Median(hr.Prices)
	return hr
}
