package analysis

import (
	"net/netip"
	"slices"
	"sort"

	"govdns/internal/dnsname"
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

// childView appends the child view C to dst — the distinct names of
// the answered servers' NS lists — in first-seen order, and returns the
// extended slice. The figures only count C and probe it for
// membership, so it is not sorted as
// measure.DomainResult.AppendChildNS sorts it. An answered server has
// a non-empty NS list, so C is empty exactly when the result is not
// Responsive.
func childView(r *measure.DomainResult, dst []dnsname.Name) []dnsname.Name {
	for i := range r.Servers {
		sr := &r.Servers[i]
		if !sr.Answered() {
			continue
		}
		for _, host := range sr.NS {
			if !slices.Contains(dst, host) {
				dst = append(dst, host)
			}
		}
	}
	return dst
}

// unionLen returns |P ∪ C| given C: the number of distinct delegated
// nameservers, the paper's replication metric. The sets hold a handful
// of names: scanning beats hashing.
func unionLen(parent, child []dnsname.Name) int {
	n := len(child)
	for i, host := range parent {
		if !slices.Contains(parent[:i], host) && !slices.Contains(child, host) {
			n++
		}
	}
	return n
}

// growCount increments counts[i], growing counts as needed, and
// returns the slice.
func growCount(counts []int, i int) []int {
	if i >= len(counts) {
		counts = append(counts, make([]int, i+1-len(counts))...)
	}
	counts[i]++
	return counts
}

// addCounts adds src to dst element by element, growing dst to src's
// length if it is shorter, and returns dst.
func addCounts(dst, src []int) []int {
	if len(src) > len(dst) {
		dst = append(dst, make([]int, len(src)-len(dst))...)
	}
	for i, k := range src {
		dst[i] += k
	}
	return dst
}

// replicationTally is one chunk's share of ReplicationActive.
type replicationTally struct {
	queried, parentResponded, withData int
	atLeastTwo, singles, staleSingles  int
	// hist[n] counts domains with n nameservers.
	hist []int
	// Per country slot: domains, singles and stale singles.
	domains, singlesBy, staleBy []int
}

// ReplicationActive computes ActiveReplication from scan results.
func ReplicationActive(results []*measure.DomainResult, m *Mapper) *ActiveReplication {
	parts := perChunk(len(results), func(t *replicationTally, lo, hi int) {
		t.domains = make([]int, m.slots())
		t.singlesBy = make([]int, m.slots())
		t.staleBy = make([]int, m.slots())
		var child []dnsname.Name
		for _, r := range results[lo:hi] {
			t.queried++
			if !r.ParentResponded {
				continue
			}
			t.parentResponded++
			if !r.HasData() {
				continue
			}
			t.withData++

			child = childView(r, child[:0])
			n := unionLen(r.ParentNS, child)
			t.hist = growCount(t.hist, n)
			idx := m.suffixIndex(r.Domain)
			slot := m.slotOf(idx)
			if idx >= 0 {
				t.domains[slot]++
			}
			if n >= 2 {
				t.atLeastTwo++
				continue
			}
			t.singles++
			stale := len(child) == 0
			if stale {
				t.staleSingles++
			}
			if m.slotCode(slot) != "" {
				t.singlesBy[slot]++
				if stale {
					t.staleBy[slot]++
				}
			}
		}
	})
	t := &parts[0]
	for _, p := range parts[1:] {
		t.queried += p.queried
		t.parentResponded += p.parentResponded
		t.withData += p.withData
		t.atLeastTwo += p.atLeastTwo
		t.singles += p.singles
		t.staleSingles += p.staleSingles
		t.hist = addCounts(t.hist, p.hist)
		addCounts(t.domains, p.domains)
		addCounts(t.singlesBy, p.singlesBy)
		addCounts(t.staleBy, p.staleBy)
	}

	ar := &ActiveReplication{
		Queried:              t.queried,
		ParentResponded:      t.parentResponded,
		WithData:             t.withData,
		NSCountCDF:           stats.HistCDF(t.hist),
		AtLeastTwoPct:        stats.Pct(t.atLeastTwo, t.withData),
		SingleStalePct:       stats.Pct(t.staleSingles, t.singles),
		SingleStaleByCountry: make(map[string]float64),
	}
	for s, n := range t.singlesBy {
		if n > 0 {
			ar.SingleStaleByCountry[m.slotCode(int32(s))] = stats.Pct(t.staleBy[s], n)
		}
	}
	for i := range m.countries {
		s := m.slot[i]
		total := t.domains[s]
		if total == 0 {
			continue
		}
		singles := t.singlesBy[s]
		if singles == 0 {
			ar.CountriesNoSingle++
		} else if stats.Rate(singles, total) >= 0.10 {
			ar.CountriesOver10PctSingle = append(ar.CountriesOver10PctSingle, m.countries[i].Code)
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

// merge adds o's tallies to d's.
func (d *diversityCounts) merge(o diversityCounts) {
	d.domains += o.domains
	d.multiIP += o.multiIP
	d.multi24 += o.multi24
	d.multiASN += o.multiASN
}

// mergeDiversity adds src's tallies to dst's element by element,
// growing dst to src's length if it is shorter, and returns dst.
func mergeDiversity(dst, src []diversityCounts) []diversityCounts {
	if len(src) > len(dst) {
		dst = append(dst, make([]diversityCounts, len(src)-len(dst))...)
	}
	for i := range src {
		dst[i].merge(src[i])
	}
	return dst
}

// measureDiversity classifies one responsive multi-NS result's address
// set (the distinct addresses of r.AllAddrs, not built here); ok is
// false for any other result, and for one with no address. "More than
// one distinct value" only needs a first value and the sight of a
// different one. child is a buffer for the result's child view.
func measureDiversity(r *measure.DomainResult, geo *geoip.DB, child *[]dnsname.Name) (multiIP, multi24, multiASN, ok bool) {
	if !r.HasData() {
		return false, false, false, false
	}
	*child = childView(r, (*child)[:0])
	if len(*child) == 0 || unionLen(r.ParentNS, *child) < 2 {
		return false, false, false, false
	}
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
			if multiASN {
				if multi24 {
					return true, true, true, true // nothing left to learn
				}
				continue
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

// diversityTally is one chunk's share of Diversity.
type diversityTally struct {
	total   diversityCounts
	country []diversityCounts // per country slot
}

// Diversity computes Table I: the Total row plus one row per requested
// country code (the paper's top 10), considering responsive multi-NS
// domains.
func Diversity(results []*measure.DomainResult, geo *geoip.DB, m *Mapper, topCodes []string) []DiversityRow {
	parts := perChunk(len(results), func(t *diversityTally, lo, hi int) {
		t.country = make([]diversityCounts, m.slots())
		var child []dnsname.Name
		for _, r := range results[lo:hi] {
			multiIP, multi24, multiASN, ok := measureDiversity(r, geo, &child)
			if !ok {
				continue
			}
			t.total.add(multiIP, multi24, multiASN)
			if idx := m.suffixIndex(r.Domain); idx >= 0 {
				t.country[m.slot[idx]].add(multiIP, multi24, multiASN)
			}
		}
	})
	t := &parts[0]
	for _, p := range parts[1:] {
		t.total.merge(p.total)
		mergeDiversity(t.country, p.country)
	}

	rows := []DiversityRow{t.total.row("Total")}
	for _, code := range topCodes {
		name, counts := code, diversityCounts{}
		for i, c := range m.countries {
			if c.Code == code {
				name, counts = c.Name, t.country[m.slot[i]]
				break
			}
		}
		rows = append(rows, counts.row(name))
	}
	return rows
}

// DiversityByLevel returns the share of responsive multi-NS domains with
// nameservers in multiple /24 prefixes, by DNS hierarchy level — the
// paper's 87.1%-at-level-2 vs <80%-deeper comparison.
func DiversityByLevel(results []*measure.DomainResult, geo *geoip.DB) map[int]DiversityRow {
	parts := perChunk(len(results), func(byLevel *[]diversityCounts, lo, hi int) {
		var child []dnsname.Name
		for _, r := range results[lo:hi] {
			multiIP, multi24, multiASN, ok := measureDiversity(r, geo, &child)
			if !ok {
				continue
			}
			level := r.Domain.Level()
			if level >= len(*byLevel) {
				*byLevel = append(*byLevel, make([]diversityCounts, level+1-len(*byLevel))...)
			}
			(*byLevel)[level].add(multiIP, multi24, multiASN)
		}
	})
	byLevel := parts[0]
	for _, p := range parts[1:] {
		byLevel = mergeDiversity(byLevel, p)
	}
	out := make(map[int]DiversityRow)
	for level, t := range byLevel {
		if t.domains > 0 {
			out[level] = t.row("")
		}
	}
	return out
}

// LevelDistribution returns the share of scanned domains at each DNS
// hierarchy level (§ III-B: <1% level 2, 85.4% level 3, 10.9% level 4).
func LevelDistribution(results []*measure.DomainResult) map[int]float64 {
	parts := perChunk(len(results), func(counts *[]int, lo, hi int) {
		for _, r := range results[lo:hi] {
			if r.HasData() {
				*counts = growCount(*counts, r.Domain.Level())
			}
		}
	})
	counts := parts[0]
	for _, p := range parts[1:] {
		counts = addCounts(counts, p)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	out := make(map[int]float64)
	for level, n := range counts {
		if n > 0 {
			out[level] = stats.Pct(n, total)
		}
	}
	return out
}
