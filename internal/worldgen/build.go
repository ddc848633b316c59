package worldgen

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"govdns/internal/authserver"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/geoip"
	"govdns/internal/nettopo"
	"govdns/internal/registrar"
	"govdns/internal/simnet"
	"govdns/internal/zone"
)

// Active is the simulated Internet at scan time: the full DNS tree from
// the root down to every government child zone, servers attached to a
// simulated network, the topology-derived GeoIP database, and the
// registrar state for hijack-risk checks.
type Active struct {
	World *World
	Net   *simnet.Network
	Topo  *nettopo.Topology
	Geo   *geoip.DB
	Roots []netip.Addr
	Reg   *registrar.Registry

	// QueryList is the set of names the scanner probes: every name with
	// PDNS activity in the final study year (alive domains, stale
	// delegations, freshly dead domains, ghost children).
	QueryList []dnsname.Name

	addrs   map[dnsname.Name][]netip.Addr
	servers map[netip.Addr]*authserver.Server
	// Zones are built first and frozen once, at the end of Build:
	// tldZones indexes the TLD zones by TLD name for delegation edits,
	// parentZones each country's parent zone by its origin, and served
	// lists every zone-to-server attachment in the order it was made.
	tldZones    map[dnsname.Name]*zone.Builder
	parentZones map[dnsname.Name]*zone.Builder
	served      []attachment
	// parents indexes each country's frozen parent zone by its origin,
	// for ParentZone (cmd/worldgen exports them as zone files).
	parents map[dnsname.Name]*zone.Zone
}

// attachment is one zone a server is to host once Build freezes it.
type attachment struct {
	zone   *zone.Builder
	server *authserver.Server
}

// ParentZone returns the government parent zone rooted at origin (a
// country suffix), if one exists.
func (a *Active) ParentZone(origin dnsname.Name) (*zone.Zone, bool) {
	z, ok := a.parents[origin]
	return z, ok
}

// AS number layout for the synthetic topology.
const (
	asInfra      = 100
	asCountry    = 1000 // gov AS = asCountry + 2*idx, telecom = +1
	asProviders  = 5000
	asHosters    = 20000
	asParking    = 4000
	parkingHost  = "ns1.parking-lot-services.com."
	parkingHost2 = "ns2.parking-lot-services.com."
)

// Build constructs the active world from a generated history.
func Build(w *World) *Active {
	a := &Active{
		World:       w,
		Net:         simnet.New(),
		Topo:        nettopo.NewTopology(),
		Reg:         registrar.New(SuffixSet(w.Countries)),
		addrs:       make(map[dnsname.Name][]netip.Addr),
		servers:     make(map[netip.Addr]*authserver.Server),
		tldZones:    make(map[dnsname.Name]*zone.Builder),
		parentZones: make(map[dnsname.Name]*zone.Builder),
		parents:     make(map[dnsname.Name]*zone.Zone),
	}
	a.Reg.SetPriceSalt(uint64(w.Cfg.Seed))

	a.Topo.AddAS(asInfra, "Root & TLD Infrastructure")
	a.Topo.AddAS(asParking, "Parking Lot Services Inc")
	for i, country := range w.Countries {
		a.Topo.AddAS(uint32(asCountry+2*i), country.Name+" Government Network")
		a.Topo.AddAS(uint32(asCountry+2*i+1), country.Name+" National Telecom")
	}

	a.buildRootAndTLDs()
	a.buildProviders()
	a.buildHosters()
	a.buildParking()
	for i := range w.Countries {
		a.buildCountry(i)
	}
	a.attachZones()
	a.buildRegistrarState()
	a.buildQueryList()

	a.Geo = geoip.FromTopology(a.Topo)
	return a
}

// ensureAddr allocates (once) and returns the addresses of a hostname.
func (a *Active) ensureAddr(host dnsname.Name, asn uint32, new24 bool) []netip.Addr {
	if addrs, ok := a.addrs[host]; ok {
		return addrs
	}
	var addr netip.Addr
	var err error
	if new24 {
		addr, err = a.Topo.AllocIPNew24(asn)
	} else {
		addr, err = a.Topo.AllocIP(asn)
	}
	if err != nil {
		panic(fmt.Sprintf("worldgen: allocating address for %s: %v", host, err))
	}
	a.addrs[host] = []netip.Addr{addr}
	return a.addrs[host]
}

// aliasAddr points host at an existing address (same-IP nameserver
// pairs).
func (a *Active) aliasAddr(host dnsname.Name, addr netip.Addr) {
	a.addrs[host] = []netip.Addr{addr}
}

// AddrsOf returns the ground-truth addresses of a hostname (empty when
// the host was never materialized — dangling and typo hosts).
func (a *Active) AddrsOf(host dnsname.Name) []netip.Addr {
	return a.addrs[host]
}

// serverAt returns (creating on demand) the server bound at addr.
func (a *Active) serverAt(addr netip.Addr, hostname dnsname.Name) *authserver.Server {
	if s, ok := a.servers[addr]; ok {
		return s
	}
	s := authserver.New(hostname)
	a.servers[addr] = s
	a.Net.Attach(addr, s)
	return s
}

// serveZone makes every address of every given hostname a server of z,
// attached when Build freezes z.
func (a *Active) serveZone(z *zone.Builder, hosts ...dnsname.Name) {
	for _, host := range hosts {
		for _, addr := range a.addrs[host] {
			a.served = append(a.served, attachment{zone: z, server: a.serverAt(addr, host)})
		}
	}
}

// attachZones freezes every zone once, now that no more records come,
// and attaches it to its servers in the order serveZone named them.
func (a *Active) attachZones() {
	frozen := make(map[*zone.Builder]*zone.Zone)
	freeze := func(b *zone.Builder) *zone.Zone {
		z, ok := frozen[b]
		if !ok {
			z = b.Freeze()
			frozen[b] = z
		}
		return z
	}
	for _, at := range a.served {
		at.server.AddZone(freeze(at.zone))
	}
	for origin, b := range a.parentZones {
		a.parents[origin] = freeze(b)
	}
	a.served, a.tldZones, a.parentZones = nil, nil, nil
}

// newZone starts a zone with an SOA whose MNAME is the primary server
// (used by the provider-identification SOA fallback).
func newZone(origin, mname dnsname.Name) *zone.Builder {
	z := zone.NewBuilder(origin)
	rname := origin.MustPrepend("hostmaster")
	z.MustAdd(dnswire.RR{Name: origin, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOAData{
		MName: mname, RName: rname,
		Serial: 2021041500, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}})
	return z
}

func nsRR(owner, host dnsname.Name) dnswire.RR {
	return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NSData{Host: host}}
}

func aRR(owner dnsname.Name, addr netip.Addr) dnswire.RR {
	return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.AData{Addr: addr}}
}

// gTLDs hosting provider and hoster domains.
var _gtlds = []string{"com", "net", "org", "info", "biz"}

// buildRootAndTLDs creates the root zone, the gTLD zones, and one ccTLD
// zone per country.
func (a *Active) buildRootAndTLDs() {
	rootHostA := dnsname.MustParse("a.root-servers.net")
	rootHostB := dnsname.MustParse("b.root-servers.net")
	a.ensureAddr(rootHostA, asInfra, true)
	a.ensureAddr(rootHostB, asInfra, true)
	a.Roots = append(a.Roots, a.addrs[rootHostA][0], a.addrs[rootHostB][0])

	root := zone.NewBuilder(dnsname.Root)
	root.MustAdd(dnswire.RR{Name: dnsname.Root, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOAData{
		MName: rootHostA, RName: "nstld.verisign-grs.com.", Serial: 2021041500,
		Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}})
	root.MustAdd(nsRR(dnsname.Root, rootHostA))
	root.MustAdd(nsRR(dnsname.Root, rootHostB))
	root.MustAdd(aRR(rootHostA, a.addrs[rootHostA][0]))
	root.MustAdd(aRR(rootHostB, a.addrs[rootHostB][0]))

	tlds := map[dnsname.Name]bool{}
	for _, g := range _gtlds {
		tlds[dnsname.MustParse(g)] = true
	}
	for _, country := range a.World.Countries {
		// The TLD of a country's suffix: its last label (gov.cn -> cn;
		// the US uses the gov TLD itself).
		labels := country.Suffix.Labels()
		tlds[dnsname.MustParse(labels[len(labels)-1])] = true
	}
	// The uk TLD hosts awsdns-NN.co.uk; the paper's study naturally
	// includes it via the UK's gov.uk too.
	tlds[dnsname.MustParse("uk")] = true

	sorted := make([]dnsname.Name, 0, len(tlds))
	for tld := range tlds {
		sorted = append(sorted, tld)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for _, tld := range sorted {
		host := tld.MustPrepend("nic").MustPrepend("a")
		a.ensureAddr(host, asInfra, true)
		z := newZone(tld, host)
		z.MustAdd(nsRR(tld, host))
		z.MustAdd(aRR(host, a.addrs[host][0]))
		a.tldZones[tld] = z
		root.MustAdd(nsRR(tld, host))
		root.MustAdd(aRR(host, a.addrs[host][0]))
		a.serveZone(z, host)
	}
	a.serveZone(root, rootHostA, rootHostB)
}

// delegateInTLD adds a delegation (with glue) for domain into its TLD
// zone, creating nothing if the TLD is unknown.
func (a *Active) delegateInTLD(domain dnsname.Name, hosts []dnsname.Name) {
	labels := domain.Labels()
	tld := dnsname.MustParse(labels[len(labels)-1])
	z, ok := a.tldZones[tld]
	if !ok {
		return
	}
	for _, host := range hosts {
		z.MustAdd(nsRR(domain, host))
		if host.IsSubdomainOf(domain) {
			for _, addr := range a.addrs[host] {
				z.MustAdd(aRR(host, addr))
			}
		}
	}
}

// buildProviders materializes every global provider nameserver hostname
// used by any domain history, with a zone per provider nameserver
// domain.
func (a *Active) buildProviders() {
	table := adoptionTable()
	asnByKey := make(map[string]uint32, len(table))
	for i, p := range table {
		asn := uint32(asProviders + i)
		a.Topo.AddAS(asn, "Provider "+p.key)
		asnByKey[p.key] = asn
	}

	// Collect hostnames per provider from all spans (old spans matter:
	// disjoint-inconsistency domains point parents at old providers).
	hostsByKey := make(map[string]map[dnsname.Name]bool)
	for _, d := range a.World.Domains {
		for _, span := range d.Spans {
			if span.A.Kind != HostGlobal {
				continue
			}
			set, ok := hostsByKey[span.A.Provider]
			if !ok {
				set = make(map[dnsname.Name]bool)
				hostsByKey[span.A.Provider] = set
			}
			for _, host := range span.A.NS {
				if !host.IsSubdomainOf(d.Name) { // skip the mixed private NS
					set[host] = true
				}
			}
		}
	}

	for key, hostSet := range hostsByKey {
		asn := asnByKey[key]
		hosts := make([]dnsname.Name, 0, len(hostSet))
		for h := range hostSet {
			hosts = append(hosts, h)
		}
		sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })

		// Group hosts into zones by registered nameserver domain.
		byZone := make(map[dnsname.Name][]dnsname.Name)
		for _, h := range hosts {
			byZone[nsDomainOf(h)] = append(byZone[nsDomainOf(h)], h)
		}
		zoneNames := make([]dnsname.Name, 0, len(byZone))
		for origin := range byZone {
			zoneNames = append(zoneNames, origin)
		}
		sort.Slice(zoneNames, func(i, j int) bool { return zoneNames[i] < zoneNames[j] })

		for _, origin := range zoneNames {
			zHosts := byZone[origin]
			for _, h := range zHosts {
				a.ensureAddr(h, asn, true)
			}
			z := newZone(origin, zHosts[0])
			apexNS := zHosts
			if len(apexNS) > 2 {
				apexNS = apexNS[:2]
			}
			for _, h := range apexNS {
				z.MustAdd(nsRR(origin, h))
			}
			for _, h := range zHosts {
				z.MustAdd(aRR(h, a.addrs[h][0]))
			}
			a.serveZone(z, zHosts...)
			a.delegateInTLD(origin, apexNS)
		}
	}
}

// nsDomainOf returns the registrable domain of a provider NS hostname:
// the last two labels, or three for co.uk-style hosts.
func nsDomainOf(host dnsname.Name) dnsname.Name {
	labels := host.Labels()
	n := 2
	if len(labels) >= 3 {
		second := labels[len(labels)-2]
		if second == "co" || second == "com" || second == "net" || second == "org" || second == "ac" {
			n = 3
		}
	}
	if len(labels) < n {
		return host
	}
	return dnsname.MustParse(strings.Join(labels[len(labels)-n:], "."))
}

// buildHosters creates each country's local hoster infrastructure: typed
// nameserver pairs within the hoster's AS, plus the broken pairs whose
// second server is dead.
func (a *Active) buildHosters() {
	counter := 0
	for i := range a.World.Countries {
		for _, h := range a.World.Hosters[i] {
			asn := uint32(asHosters + counter)
			counter++
			a.Topo.AddAS(asn, "Hoster "+strings.TrimSuffix(h.domain.String(), "."))
			a.buildPairFarm(h.domain, asn, uint32(asCountry+2*i+1), true)
		}
	}
}

// buildPairFarm allocates the typed nameserver pairs under an apex:
// ns1/ns2 multi-/24, ns3/ns4 same-IP, ns5/ns6 same-/24, ns7/ns8
// multi-AS (second host in altASN), nsb1..nsb8 broken variants. With
// makeZone it also creates and serves the apex zone (hosters); country
// suffixes pass false because their parent zone carries the records.
func (a *Active) buildPairFarm(apex dnsname.Name, asn, altASN uint32, makeZone bool) {
	// ns1/ns2: distinct /24s.
	a.ensureAddr(apex.MustPrepend("ns1"), asn, true)
	a.ensureAddr(apex.MustPrepend("ns2"), asn, true)
	// ns3/ns4: one shared address.
	shared := a.ensureAddr(apex.MustPrepend("ns3"), asn, true)
	a.aliasAddr(apex.MustPrepend("ns4"), shared[0])
	// ns5/ns6: same /24.
	a.ensureAddr(apex.MustPrepend("ns5"), asn, true)
	a.ensureAddr(apex.MustPrepend("ns6"), asn, false)
	// ns7/ns8: two ASes.
	a.ensureAddr(apex.MustPrepend("ns7"), asn, true)
	a.ensureAddr(apex.MustPrepend("ns8"), altASN, true)
	// Broken pairs: first server fine, second dead. Address allocation
	// mirrors each class so partially-lame domains keep their Table I
	// profile. The same-IP pair's dead name (nsb4) gets NO address at
	// all — one address cannot be half dead, and in the wild these
	// broken same-IP pairs pair a working server with an unresolvable
	// hostname, which keeps |IP_ns| = 1.
	for _, pair := range []struct {
		base    int
		deadASN uint32
		new24   bool
		noAddr  bool
	}{
		{base: 1, deadASN: asn, new24: true},  // multi-/24
		{base: 3, deadASN: asn, noAddr: true}, // same-IP
		{base: 5, deadASN: asn, new24: false}, // same /24
		{base: 7, deadASN: altASN, new24: true},
	} {
		a.ensureAddr(apex.MustPrepend(fmt.Sprintf("nsb%d", pair.base)), asn, true)
		if pair.noAddr {
			continue
		}
		dead := a.ensureAddr(apex.MustPrepend(fmt.Sprintf("nsb%d", pair.base+1)), pair.deadASN, pair.new24)
		a.Net.Blackhole(dead[0])
	}

	if !makeZone {
		return
	}
	// Hoster apex zone served by ns1/ns2 so its hostnames resolve.
	z := newZone(apex, apex.MustPrepend("ns1"))
	hosts := a.pairFarmHosts(apex)
	z.MustAdd(nsRR(apex, apex.MustPrepend("ns1")))
	z.MustAdd(nsRR(apex, apex.MustPrepend("ns2")))
	for _, h := range hosts {
		for _, addr := range a.addrs[h] {
			z.MustAdd(aRR(h, addr))
		}
	}
	a.serveZone(z, apex.MustPrepend("ns1"), apex.MustPrepend("ns2"))
	a.delegateInTLD(apex, []dnsname.Name{apex.MustPrepend("ns1"), apex.MustPrepend("ns2")})
}

// pairFarmHosts lists every hostname a pair farm creates under apex.
func (a *Active) pairFarmHosts(apex dnsname.Name) []dnsname.Name {
	var hosts []dnsname.Name
	for i := 1; i <= 8; i++ {
		hosts = append(hosts, apex.MustPrepend(fmt.Sprintf("ns%d", i)))
		hosts = append(hosts, apex.MustPrepend(fmt.Sprintf("nsb%d", i)))
	}
	return hosts
}

// buildParking creates the parking operator that answers for expired
// domains referenced by CondParked delegations.
func (a *Active) buildParking() {
	host1 := dnsname.MustParse(parkingHost)
	host2 := dnsname.MustParse(parkingHost2)
	a.ensureAddr(host1, asParking, true)
	a.ensureAddr(host2, asParking, true)

	// The parking target is the parking server itself: every hostname
	// under a parked domain resolves back to a parking server, which
	// answers any DNS query — so parked delegations are NOT lame, only
	// inconsistent (§ IV-D's stealthier hijacking variant).
	target := a.addrs[host1][0]
	for _, host := range []dnsname.Name{host1, host2} {
		for _, addr := range a.addrs[host] {
			s := a.serverAt(addr, host)
			s.SetBehavior(authserver.BehaviorParking)
			s.SetParkingTarget(target)
		}
	}

	// The parking operator's own domain must resolve so delegations to
	// parked hosts can be followed. Parking servers answer everything,
	// including their own names, so only the TLD delegation is needed.
	a.delegateInTLD(dnsname.MustParse("parking-lot-services.com"), []dnsname.Name{host1, host2})
	if z, ok := a.tldZones[dnsname.MustParse("com")]; ok {
		for _, host := range []dnsname.Name{host1, host2} {
			z.MustAdd(aRR(host, a.addrs[host][0]))
		}
	}
}
