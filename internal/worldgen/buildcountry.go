package worldgen

import (
	"net/netip"
	"slices"
	"sort"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/zone"
)

// buildCountry materializes one country's government DNS: the central
// nameserver farm, the d_gov parent zone with every delegation (healthy
// and broken alike), and a child zone per living domain.
func (a *Active) buildCountry(idx int) {
	country := a.World.Countries[idx]
	govASN := uint32(asCountry + 2*idx)
	telecomASN := govASN + 1
	suffix := country.Suffix

	a.buildPairFarm(suffix, govASN, telecomASN, false)

	// The parent zone. When the suffix is itself a TLD (the US "gov"),
	// the TLD zone built earlier doubles as the parent zone.
	parent, isTLD := a.tldZones[suffix]
	primary := suffix.MustPrepend("ns1")
	if !isTLD {
		parent = newZone(suffix, primary)
		parent.MustAdd(nsRR(suffix, primary))
		parent.MustAdd(nsRR(suffix, suffix.MustPrepend("ns2")))
	}
	for _, host := range a.pairFarmHosts(suffix) {
		for _, addr := range a.addrs[host] {
			parent.MustAdd(aRR(host, addr))
		}
	}

	a.parentZones[suffix] = parent

	for _, d := range a.World.DomainsOfCountry(idx) {
		if d.Name == suffix || !d.DelegatedAtScan() {
			continue
		}
		a.buildDomain(d, parent, govASN, telecomASN)
	}

	if !isTLD {
		a.serveZone(parent, primary, suffix.MustPrepend("ns2"))
		a.delegateInTLD(suffix, []dnsname.Name{primary, suffix.MustPrepend("ns2")})
	}
}

// buildDomain realizes one domain's delegation, servers, and (when
// alive) child zone according to its scan-time condition.
func (a *Active) buildDomain(d *Domain, parent *zone.Builder, govASN, telecomASN uint32) {
	p, c, serveOld := a.nsSetsFor(d)
	a.realizePrivateHosts(d, union(p, c), govASN, telecomASN)

	// Parent-side delegation with glue for in-bailiwick hosts.
	for _, host := range p {
		parent.MustAdd(nsRR(d.Name, host))
		if host.IsSubdomainOf(parent.Origin()) && !isPairFarmHost(host, parent.Origin()) {
			for _, addr := range a.addrs[host] {
				parent.MustAdd(aRR(host, addr))
			}
		}
	}

	if d.Cond == CondParked && d.DanglingDomain != "" {
		a.delegateInTLD(d.DanglingDomain,
			[]dnsname.Name{dnsname.MustParse(parkingHost), dnsname.MustParse(parkingHost2)})
	}

	if d.Cond == CondStaleDelegation {
		// Dead domain: private NS addresses exist (glue) but nothing
		// answers there.
		for _, host := range p {
			if host.IsSubdomainOf(d.Name) {
				for _, addr := range a.addrs[host] {
					a.Net.Blackhole(addr)
				}
			}
		}
		return
	}

	// Child zone.
	child := newZone(d.Name, c[0])
	for _, host := range c {
		child.MustAdd(nsRR(d.Name, host))
		if host.IsSubdomainOf(d.Name) {
			for _, addr := range a.addrs[host] {
				child.MustAdd(aRR(host, addr))
			}
		}
	}
	www, err := d.Name.Prepend("www")
	if err == nil {
		if addr, allocErr := a.Topo.AllocIP(govASN); allocErr == nil {
			child.MustAdd(aRR(www, addr))
		}
	}

	// Children whose operators know the parent is out of date publish a
	// CSYNC record (RFC 7477) asking the parent to synchronize the
	// delegation; about two thirds allow immediate processing.
	switch d.Cond {
	case CondInconsistentExtraChild, CondInconsistentExtraParent, CondInconsistentDisjoint, CondPartialLameOwn:
		flags := uint16(0)
		if nameHash(d.Name)%3 != 0 {
			flags = dnswire.CSYNCImmediate
		}
		child.MustAdd(dnswire.RR{Name: d.Name, Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.CSYNCData{
				Serial: 2021041500,
				Flags:  flags,
				Types:  []dnswire.Type{dnswire.TypeNS, dnswire.TypeA},
			}})
	}

	serving := append([]dnsname.Name(nil), c...)
	if serveOld {
		serving = union(serving, p)
	}
	for _, host := range serving {
		if len(a.addrs[host]) == 0 {
			continue // dangling/typo hosts have no address
		}
		a.serveZone(child, host)
	}

	// Partial lameness on dedicated infrastructure: the extra host's
	// address goes dark.
	if d.Cond == CondPartialLameOwn {
		extra := d.Name.MustPrepend("ns-old")
		for _, addr := range a.addrs[extra] {
			a.Net.Blackhole(addr)
		}
	}
}

// nsSetsFor derives the parent-side (P) and child-side (C) NS sets from
// the domain's condition. serveOld reports whether the P-side servers
// must also serve the child zone (the extra-parent and disjoint
// inconsistencies, where servers only the parent still names answer).
func (a *Active) nsSetsFor(d *Domain) (p, c []dnsname.Name, serveOld bool) {
	final := append([]dnsname.Name(nil), d.Final().NS...)
	switch d.Cond {
	case CondStaleDelegation, CondDangling:
		p, c = final, final
		if d.DanglingDomain != "" {
			// The nameservers live under an expired domain.
			p = danglingHosts(d.DanglingDomain, len(final))
			c = p
		}
	case CondPartialLameOwn:
		// The child operator already dropped the dead server; the
		// parent still lists it (P ⊃ C, and a partial defect) — the
		// co-occurrence behind the paper's 40.9% figure.
		extra := d.Name.MustPrepend("ns-old")
		if d.DanglingDomain != "" {
			extra = d.DanglingDomain.MustPrepend("ns1")
		}
		p = append(append([]dnsname.Name(nil), final...), extra)
		c = final
	case CondTypo:
		p = append(append([]dnsname.Name(nil), final...), d.DanglingDomain)
		c = final
	case CondInconsistentExtraParent:
		p = append(append([]dnsname.Name(nil), final...), d.Name.MustPrepend("ns-legacy"))
		c = final
		serveOld = true // the forgotten extra server still answers
	case CondInconsistentExtraChild:
		p = final
		c = append(append([]dnsname.Name(nil), final...), d.Name.MustPrepend("ns-new"))
	case CondInconsistentDisjoint:
		old := a.previousNS(d)
		p, c = old, final
		serveOld = true
	case CondParked:
		p = danglingHosts(d.DanglingDomain, 2)
		c = final
	default: // healthy, partial-shared (broken pair already in final)
		p, c = final, final
	}
	return p, c, serveOld
}

// previousNS returns the NS set the parent still remembers for a
// migrated domain: the penultimate span's set when it differs, or a
// fabricated legacy pair.
func (a *Active) previousNS(d *Domain) []dnsname.Name {
	if len(d.Spans) >= 2 {
		old := d.Spans[len(d.Spans)-2].A.NS
		if !sameNames(old, d.Final().NS) {
			return append([]dnsname.Name(nil), old...)
		}
	}
	return []dnsname.Name{d.Name.MustPrepend("ns-olda"), d.Name.MustPrepend("ns-oldb")}
}

// danglingHosts fabricates hostnames under an expired domain.
func danglingHosts(domain dnsname.Name, n int) []dnsname.Name {
	if n < 1 {
		n = 1
	}
	if n > 2 {
		n = 2
	}
	hosts := []dnsname.Name{domain.MustPrepend("ns1")}
	if n == 2 {
		hosts = append(hosts, domain.MustPrepend("ns2"))
	}
	return hosts
}

// realizePrivateHosts allocates addresses for the domain's dedicated
// hostnames, honouring the diversity class.
func (a *Active) realizePrivateHosts(d *Domain, hosts []dnsname.Name, govASN, telecomASN uint32) {
	var own []dnsname.Name
	for _, host := range hosts {
		if host.IsSubdomainOf(d.Name) {
			own = append(own, host)
		}
	}
	if len(own) == 0 {
		return
	}
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })

	switch d.Div {
	case DivSameIP:
		// Everything shares one address. Live extra names (ns-legacy,
		// ns-new) alias the shared address; a dead extra (ns-old) stays
		// unresolvable — a single address cannot be half dead, and
		// aliasing it would blackhole the shared server for everyone.
		var live []dnsname.Name
		for _, host := range own {
			if labels := host.Labels(); len(labels) > 0 && labels[0] == "ns-old" {
				continue
			}
			live = append(live, host)
		}
		if len(live) == 0 {
			return
		}
		var shared []netip.Addr
		for _, host := range hosts {
			if !host.IsSubdomainOf(d.Name) && len(a.addrs[host]) > 0 {
				shared = a.addrs[host]
				break
			}
		}
		if len(shared) == 0 {
			shared = a.ensureAddr(live[0], govASN, true)
		}
		for _, host := range live {
			a.aliasAddr(host, shared[0])
		}
	case DivSame24:
		a.ensureAddr(own[0], govASN, true)
		for _, host := range own[1:] {
			a.ensureAddr(host, govASN, false)
		}
	case DivMultiASN:
		a.ensureAddr(own[0], govASN, true)
		for i, host := range own[1:] {
			asn := telecomASN
			if i > 0 {
				asn = govASN
			}
			a.ensureAddr(host, asn, true)
		}
	default: // DivMulti24 and single-NS domains
		for _, host := range own {
			a.ensureAddr(host, govASN, true)
		}
	}
}

// isPairFarmHost reports whether host is one of the shared pair-farm
// names directly under origin (their glue is added once per country).
func isPairFarmHost(host, origin dnsname.Name) bool {
	if host.Parent() != origin {
		return false
	}
	labels := host.Labels()
	l := labels[0]
	return len(l) >= 3 && l[:2] == "ns" && (l[2] >= '1' && l[2] <= '8' || l[2] == 'b')
}

// union merges name slices preserving order, dropping duplicates.
func union(a, b []dnsname.Name) []dnsname.Name {
	seen := make(map[dnsname.Name]bool, len(a)+len(b))
	var out []dnsname.Name
	for _, s := range [][]dnsname.Name{a, b} {
		for _, n := range s {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

func sameNames(a, b []dnsname.Name) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[dnsname.Name]bool, len(a))
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if !set[n] {
			return false
		}
	}
	return true
}

// buildRegistrarState marks every living infrastructure domain as
// registered; dangling, typo and parked domains stay available.
func (a *Active) buildRegistrarState() {
	for _, d := range a.World.Domains {
		for _, span := range d.Spans {
			if span.A.Kind == HostGlobal {
				for _, host := range span.A.NS {
					a.Reg.MarkRegistered(nsDomainOf(host))
				}
			}
		}
	}
	for _, hosters := range a.World.Hosters {
		for _, h := range hosters {
			a.Reg.MarkRegistered(h.domain)
		}
	}
	a.Reg.MarkRegistered(dnsname.MustParse("parking-lot-services.com"))
	a.Reg.MarkRegistered(dnsname.MustParse("root-servers.net"))
	a.Reg.MarkRegistered(dnsname.MustParse("ddos-shield.net"))
}

// buildQueryList assembles the scanner's input — every domain with
// passive activity reaching the final study years, plus the ghost
// children — in canonical dnsname.Compare order. It is the one scan
// order: every command feeds this slice to the scanner.
func (a *Active) buildQueryList() {
	w := a.World
	list := make([]dnsname.Name, 0, len(w.Domains)+len(w.GhostNames))
	for _, d := range w.Domains {
		if d.Died == 0 || d.Died >= w.Cfg.EndYear-2 {
			list = append(list, d.Name)
		}
	}
	list = append(list, w.GhostNames...)
	slices.SortFunc(list, dnsname.Compare)
	a.QueryList = list
}
