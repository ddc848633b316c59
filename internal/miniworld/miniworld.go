// Package miniworld builds a small, fully hand-crafted DNS universe used
// by tests and by govmon's demo: a root, two TLDs, a government zone with
// children exhibiting each condition the study measures (healthy,
// partially lame, fully lame, single-NS, third-party hosted,
// parent/child inconsistent, and dangling delegations), and a
// third-party provider.
//
// The generated world (internal/worldgen) is statistical; this package is
// deterministic down to each record, which makes it the right substrate
// for behavioural tests.
package miniworld

import (
	"fmt"
	"net/netip"
	"sort"

	"govdns/internal/authserver"
	"govdns/internal/chaos"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/simnet"
	"govdns/internal/zone"
)

// Addresses of the fixture's servers. Exported so tests can assert
// against exact values.
var (
	RootAddr        = netip.MustParseAddr("1.0.0.1")
	TLDBrAddr       = netip.MustParseAddr("2.0.0.1")
	TLDComAddr      = netip.MustParseAddr("2.0.1.1")
	GovNS1Addr      = netip.MustParseAddr("3.0.0.1")
	GovNS2Addr      = netip.MustParseAddr("3.0.1.1")
	CityNS1Addr     = netip.MustParseAddr("4.0.0.1")
	CityNS2Addr     = netip.MustParseAddr("4.0.1.1")
	LameOKAddr      = netip.MustParseAddr("4.1.0.1")
	LameDeadAddr    = netip.MustParseAddr("4.1.1.1")
	DeadAddr        = netip.MustParseAddr("4.2.0.1")
	SingleAddr      = netip.MustParseAddr("4.3.0.1")
	ProviderNS1Addr = netip.MustParseAddr("5.0.0.1")
	ProviderNS2Addr = netip.MustParseAddr("5.0.1.1")
	IncNS1Addr      = netip.MustParseAddr("4.4.0.1")
	IncNS3Addr      = netip.MustParseAddr("4.4.1.1")
)

// World is the assembled fixture.
type World struct {
	Net   *simnet.Network
	Roots []netip.Addr
	// Servers indexes every authoritative server by hostname.
	Servers map[dnsname.Name]*authserver.Server

	// hostAddrs records every address a hostname was attached at, in
	// attachment order, so fault schedules can be keyed by server name.
	hostAddrs map[dnsname.Name][]netip.Addr
}

// rr builds an IN-class record.
func rr(name dnsname.Name, ttl uint32, data dnswire.RData) dnswire.RR {
	return dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: ttl, Data: data}
}

func soa(origin, mname dnsname.Name) dnswire.RR {
	return rr(origin, 3600, dnswire.SOAData{
		MName: mname, RName: origin.MustPrepend("hostmaster"),
		Serial: 2021040100, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	})
}

func ns(owner, host dnsname.Name) dnswire.RR { return rr(owner, 3600, dnswire.NSData{Host: host}) }

func a(owner dnsname.Name, addr netip.Addr) dnswire.RR {
	return rr(owner, 3600, dnswire.AData{Addr: addr})
}

// Build assembles the fixture network.
func Build() *World {
	w := &World{
		Net:       simnet.New(),
		Roots:     []netip.Addr{RootAddr},
		Servers:   make(map[dnsname.Name]*authserver.Server),
		hostAddrs: make(map[dnsname.Name][]netip.Addr),
	}

	// --- Root zone ---
	root := zone.NewBuilder(dnsname.Root)
	root.MustAdd(soa(dnsname.Root, "a.root-servers.net."))
	root.MustAdd(ns(dnsname.Root, "a.root-servers.net."))
	root.MustAdd(a("a.root-servers.net.", RootAddr))
	root.MustAdd(ns("br.", "a.dns.br."))
	root.MustAdd(a("a.dns.br.", TLDBrAddr))
	root.MustAdd(ns("com.", "a.gtld-servers.com."))
	root.MustAdd(a("a.gtld-servers.com.", TLDComAddr))
	w.serve("a.root-servers.net.", RootAddr, root.Freeze())

	// --- br. TLD ---
	br := zone.NewBuilder("br.")
	br.MustAdd(soa("br.", "a.dns.br."))
	br.MustAdd(ns("br.", "a.dns.br."))
	br.MustAdd(a("a.dns.br.", TLDBrAddr))
	br.MustAdd(ns("gov.br.", "ns1.gov.br."))
	br.MustAdd(ns("gov.br.", "ns2.gov.br."))
	br.MustAdd(a("ns1.gov.br.", GovNS1Addr))
	br.MustAdd(a("ns2.gov.br.", GovNS2Addr))
	w.serve("a.dns.br.", TLDBrAddr, br.Freeze())

	// --- com. TLD ---
	com := zone.NewBuilder("com.")
	com.MustAdd(soa("com.", "a.gtld-servers.com."))
	com.MustAdd(ns("com.", "a.gtld-servers.com."))
	com.MustAdd(a("a.gtld-servers.com.", TLDComAddr))
	com.MustAdd(ns("provider.com.", "ns1.provider.com."))
	com.MustAdd(ns("provider.com.", "ns2.provider.com."))
	com.MustAdd(a("ns1.provider.com.", ProviderNS1Addr))
	com.MustAdd(a("ns2.provider.com.", ProviderNS2Addr))
	// gone-provider.com is NOT delegated: queries yield NXDOMAIN, so
	// dangling.gov.br's delegation is hijackable.
	w.serve("a.gtld-servers.com.", TLDComAddr, com.Freeze())

	// --- gov.br. parent zone ---
	gov := zone.NewBuilder("gov.br.")
	gov.MustAdd(soa("gov.br.", "ns1.gov.br."))
	gov.MustAdd(ns("gov.br.", "ns1.gov.br."))
	gov.MustAdd(ns("gov.br.", "ns2.gov.br."))
	gov.MustAdd(a("ns1.gov.br.", GovNS1Addr))
	gov.MustAdd(a("ns2.gov.br.", GovNS2Addr))

	// healthy child: city.gov.br
	gov.MustAdd(ns("city.gov.br.", "ns1.city.gov.br."))
	gov.MustAdd(ns("city.gov.br.", "ns2.city.gov.br."))
	gov.MustAdd(a("ns1.city.gov.br.", CityNS1Addr))
	gov.MustAdd(a("ns2.city.gov.br.", CityNS2Addr))

	// partially lame child: lame.gov.br (ns2 dead)
	gov.MustAdd(ns("lame.gov.br.", "ns1.lame.gov.br."))
	gov.MustAdd(ns("lame.gov.br.", "ns2.lame.gov.br."))
	gov.MustAdd(a("ns1.lame.gov.br.", LameOKAddr))
	gov.MustAdd(a("ns2.lame.gov.br.", LameDeadAddr))

	// fully lame child: dead.gov.br
	gov.MustAdd(ns("dead.gov.br.", "ns1.dead.gov.br."))
	gov.MustAdd(a("ns1.dead.gov.br.", DeadAddr))

	// single-NS child: single.gov.br
	gov.MustAdd(ns("single.gov.br.", "ns1.single.gov.br."))
	gov.MustAdd(a("ns1.single.gov.br.", SingleAddr))

	// third-party hosted child: hosted.gov.br
	gov.MustAdd(ns("hosted.gov.br.", "ns1.provider.com."))
	gov.MustAdd(ns("hosted.gov.br.", "ns2.provider.com."))

	// inconsistent child: parent says ns1+ns2, child says ns1+ns3.
	gov.MustAdd(ns("inconsistent.gov.br.", "ns1.inconsistent.gov.br."))
	gov.MustAdd(ns("inconsistent.gov.br.", "ns2.inconsistent.gov.br."))
	gov.MustAdd(a("ns1.inconsistent.gov.br.", IncNS1Addr))
	gov.MustAdd(a("ns2.inconsistent.gov.br.", IncNS3Addr)) // ns2 resolves to ns3's host

	// dangling child: NS host under a domain that no longer exists.
	gov.MustAdd(ns("dangling.gov.br.", "ns.gone-provider.com."))

	// A CNAME'd nameserver alias, for resolver CNAME-chase tests.
	gov.MustAdd(rr("cname-ns.gov.br.", 3600, dnswire.CNAMEData{Target: "ns1.gov.br."}))

	govZone := gov.Freeze()
	w.serve("ns1.gov.br.", GovNS1Addr, govZone)
	w.serve("ns2.gov.br.", GovNS2Addr, govZone)

	// --- children ---
	city := childZone("city.gov.br.", map[dnsname.Name]netip.Addr{
		"ns1.city.gov.br.": CityNS1Addr,
		"ns2.city.gov.br.": CityNS2Addr,
	})
	w.serve("ns1.city.gov.br.", CityNS1Addr, city)
	w.serve("ns2.city.gov.br.", CityNS2Addr, city)

	lame := childZone("lame.gov.br.", map[dnsname.Name]netip.Addr{
		"ns1.lame.gov.br.": LameOKAddr,
		"ns2.lame.gov.br.": LameDeadAddr,
	})
	w.serve("ns1.lame.gov.br.", LameOKAddr, lame)
	deadNS := w.serve("ns2.lame.gov.br.", LameDeadAddr, lame)
	deadNS.SetBehavior(authserver.BehaviorUnresponsive)

	dead := childZone("dead.gov.br.", map[dnsname.Name]netip.Addr{
		"ns1.dead.gov.br.": DeadAddr,
	})
	deadSrv := w.serve("ns1.dead.gov.br.", DeadAddr, dead)
	deadSrv.SetBehavior(authserver.BehaviorUnresponsive)

	single := childZone("single.gov.br.", map[dnsname.Name]netip.Addr{
		"ns1.single.gov.br.": SingleAddr,
	})
	w.serve("ns1.single.gov.br.", SingleAddr, single)

	// hosted.gov.br lives on the provider's servers.
	hosted := zone.NewBuilder("hosted.gov.br.")
	hosted.MustAdd(soa("hosted.gov.br.", "ns1.provider.com."))
	hosted.MustAdd(ns("hosted.gov.br.", "ns1.provider.com."))
	hosted.MustAdd(ns("hosted.gov.br.", "ns2.provider.com."))
	hosted.MustAdd(a("www.hosted.gov.br.", netip.MustParseAddr("192.0.2.10")))

	// provider.com zone plus the hosted customer zone on both servers.
	provider := zone.NewBuilder("provider.com.")
	provider.MustAdd(soa("provider.com.", "ns1.provider.com."))
	provider.MustAdd(ns("provider.com.", "ns1.provider.com."))
	provider.MustAdd(ns("provider.com.", "ns2.provider.com."))
	provider.MustAdd(a("ns1.provider.com.", ProviderNS1Addr))
	provider.MustAdd(a("ns2.provider.com.", ProviderNS2Addr))
	providerZone, hostedZone := provider.Freeze(), hosted.Freeze()
	w.serve("ns1.provider.com.", ProviderNS1Addr, providerZone).AddZone(hostedZone)
	w.serve("ns2.provider.com.", ProviderNS2Addr, providerZone).AddZone(hostedZone)

	// inconsistent.gov.br: the child's own NS set differs from the
	// parent's (ns1 + ns3 instead of ns1 + ns2).
	inc := zone.NewBuilder("inconsistent.gov.br.")
	inc.MustAdd(soa("inconsistent.gov.br.", "ns1.inconsistent.gov.br."))
	inc.MustAdd(ns("inconsistent.gov.br.", "ns1.inconsistent.gov.br."))
	inc.MustAdd(ns("inconsistent.gov.br.", "ns3.inconsistent.gov.br."))
	inc.MustAdd(a("ns1.inconsistent.gov.br.", IncNS1Addr))
	inc.MustAdd(a("ns3.inconsistent.gov.br.", IncNS3Addr))
	incZone := inc.Freeze()
	w.serve("ns1.inconsistent.gov.br.", IncNS1Addr, incZone)
	w.serve("ns3.inconsistent.gov.br.", IncNS3Addr, incZone)

	return w
}

// childZone builds a simple, healthy child zone with the given NS hosts
// and extra records.
func childZone(origin dnsname.Name, hosts map[dnsname.Name]netip.Addr, extra ...dnswire.RR) *zone.Zone {
	z := zone.NewBuilder(origin)
	var first dnsname.Name
	for h := range hosts {
		if first == "" || dnsname.Compare(h, first) < 0 {
			first = h
		}
	}
	z.MustAdd(soa(origin, first))
	for host, addr := range hosts {
		z.MustAdd(ns(origin, host))
		z.MustAdd(a(host, addr))
	}
	z.MustAdd(a(origin.MustPrepend("www"), netip.MustParseAddr("192.0.2.1")))
	for _, rr := range extra {
		z.MustAdd(rr)
	}
	return z.Freeze()
}

// edit builds a copy of the zone at origin that hostname serves, with
// change applied, and swaps it in on every server that hosts that zone.
// A served zone never changes in place.
func (w *World) edit(hostname, origin dnsname.Name, change func(*zone.Builder)) {
	old, ok := w.Servers[hostname].ZoneByOrigin(origin)
	if !ok {
		panic(fmt.Sprintf("miniworld: %s zone missing", origin))
	}
	b := old.Builder()
	change(b)
	z := b.Freeze()
	for _, s := range w.Servers {
		if cur, ok := s.ZoneByOrigin(origin); ok && cur == old {
			s.AddZone(z)
		}
	}
}

// serve creates a server, attaches it at addr, and registers it.
func (w *World) serve(hostname dnsname.Name, addr netip.Addr, z *zone.Zone) *authserver.Server {
	s, ok := w.Servers[hostname]
	if !ok {
		s = authserver.New(hostname)
		w.Servers[hostname] = s
	}
	s.AddZone(z)
	w.Net.Attach(addr, s)
	seen := false
	for _, a := range w.hostAddrs[hostname] {
		if a == addr {
			seen = true
			break
		}
	}
	if !seen {
		w.hostAddrs[hostname] = append(w.hostAddrs[hostname], addr)
	}
	return s
}

// AddrsOf returns the addresses hostname is attached at, in attachment
// order. It panics on a hostname the fixture never served, so a typo in
// a fault schedule fails loudly instead of silently injecting nothing.
func (w *World) AddrsOf(hostname dnsname.Name) []netip.Addr {
	addrs, ok := w.hostAddrs[hostname]
	if !ok {
		panic(fmt.Sprintf("miniworld: no server named %s", hostname))
	}
	return append([]netip.Addr(nil), addrs...)
}

// ChaosProfile wraps the world's network in a chaos transport whose
// per-class fault schedules are keyed by server *name* instead of
// address, so a behavioural test can say "this NS truncates, that one
// flaps" in one line:
//
//	tr := w.ChaosProfile(1, map[dnsname.Name][]chaos.Rule{
//		"ns1.city.gov.br.": {chaos.Persistent(chaos.Truncate, 1)},
//		"ns2.city.gov.br.": {chaos.FlapOutage(0, 10)},
//	})
//
// Each rule's Servers field is filled with the named host's addresses
// (any existing restriction is replaced). Hosts are applied in sorted
// name order so the rule order — and with it every fault decision — is
// deterministic. Unknown hostnames panic, per AddrsOf.
func (w *World) ChaosProfile(seed int64, profile map[dnsname.Name][]chaos.Rule) *chaos.Transport {
	return chaos.Wrap(w.Net, seed, w.ChaosRules(profile)...)
}

// ChaosRules resolves a name-keyed fault profile into the flat,
// deterministically ordered rule list ChaosProfile wraps the in-memory
// network with. Exposed so differential tests can apply the *same*
// schedule to a different underlying transport — e.g. the real-socket
// serving tier — and compare digests against the simnet run.
func (w *World) ChaosRules(profile map[dnsname.Name][]chaos.Rule) []chaos.Rule {
	hosts := make([]dnsname.Name, 0, len(profile))
	for host := range profile {
		hosts = append(hosts, host)
	}
	sort.Slice(hosts, func(i, j int) bool { return dnsname.Compare(hosts[i], hosts[j]) < 0 })
	var rules []chaos.Rule
	for _, host := range hosts {
		addrs := w.AddrsOf(host)
		for _, r := range profile[host] {
			r.Servers = addrs
			rules = append(rules, r)
		}
	}
	return rules
}

// ServerEndpoints returns every (hostname, address, server) attachment in
// the world, hostnames sorted, addresses in attachment order — the
// inventory a test needs to stand the same world up on real sockets.
func (w *World) ServerEndpoints() []ServerEndpoint {
	hosts := make([]dnsname.Name, 0, len(w.Servers))
	for host := range w.Servers {
		hosts = append(hosts, host)
	}
	sort.Slice(hosts, func(i, j int) bool { return dnsname.Compare(hosts[i], hosts[j]) < 0 })
	var out []ServerEndpoint
	for _, host := range hosts {
		for _, addr := range w.hostAddrs[host] {
			out = append(out, ServerEndpoint{Hostname: host, Addr: addr, Server: w.Servers[host]})
		}
	}
	return out
}

// ServerEndpoint is one (hostname, address, server) attachment.
type ServerEndpoint struct {
	Hostname dnsname.Name
	Addr     netip.Addr
	Server   *authserver.Server
}

// AddHostedChildren delegates n extra gov.br children to the third-party
// provider's nameservers and serves their zones on the provider, returning
// the new names. The gov.br zone carries no glue for the provider hosts,
// so every scan of these domains must resolve ns1/ns2.provider.com —
// the shape concurrency tests need to observe cache sharing and
// singleflight coalescing across domains.
func (w *World) AddHostedChildren(n int) []dnsname.Name {
	p1 := w.Servers["ns1.provider.com."]
	p2 := w.Servers["ns2.provider.com."]
	names := make([]dnsname.Name, 0, n)
	for i := 0; i < n; i++ {
		name := dnsname.MustParse(fmt.Sprintf("hosted%d.gov.br", i))
		b := zone.NewBuilder(name)
		b.MustAdd(soa(name, "ns1.provider.com."))
		b.MustAdd(ns(name, "ns1.provider.com."))
		b.MustAdd(ns(name, "ns2.provider.com."))
		z := b.Freeze()
		p1.AddZone(z)
		p2.AddZone(z)
		names = append(names, name)
	}
	w.edit("ns1.gov.br.", "gov.br.", func(gov *zone.Builder) {
		for _, name := range names {
			gov.MustAdd(ns(name, "ns1.provider.com."))
			gov.MustAdd(ns(name, "ns2.provider.com."))
		}
	})
	return names
}

// Addresses of multiglue.gov.br's nameserver (see AddMultiGlueChild).
// The numerically higher address is deliberately added to the parent
// zone first, so any code path that trusts glue record order instead of
// canonicalizing surfaces immediately.
var (
	MultiGlueHighAddr = netip.MustParseAddr("4.5.0.9")
	MultiGlueLowAddr  = netip.MustParseAddr("4.5.0.1")
)

// AddMultiGlueChild delegates multiglue.gov.br to a single nameserver
// that is glued at two addresses — inserted in descending order — and
// lists the NS record twice in the parent zone (the duplicate collapses
// at the zone layer, as RFC zones dedupe identical RRsets, but the
// referral still carries one host with a multi-address glue slice).
// This is the regression shape for the shared-glue-slice sort: the
// scanner must sort the slice once at map construction, not inside the
// per-host fan-out, and the result's Addrs must come out in
// netip.Addr.Less order regardless of glue record order. Returns the
// child name.
func (w *World) AddMultiGlueChild() dnsname.Name {
	child := dnsname.MustParse("multiglue.gov.br")
	host := dnsname.MustParse("ns1.multiglue.gov.br")
	w.edit("ns1.gov.br.", "gov.br.", func(gov *zone.Builder) {
		gov.MustAdd(ns(child, host))
		// The duplicate NS record is absorbed by the zone's
		// identical-RR dedupe; adding it documents the duplicate-host
		// delegation shape the glue sort must stay robust to.
		gov.MustAdd(ns(child, host))
		gov.MustAdd(a(host, MultiGlueHighAddr))
		gov.MustAdd(a(host, MultiGlueLowAddr))
	})

	z := childZone(child, map[dnsname.Name]netip.Addr{host: MultiGlueHighAddr}, a(host, MultiGlueLowAddr))
	w.serve(host, MultiGlueHighAddr, z)
	w.serve(host, MultiGlueLowAddr, z)
	return child
}

// SlowNSAddr is the address of slow-provider.com's only nameserver,
// which never responds (see BreakIntermediateZoneTransient).
var SlowNSAddr = netip.MustParseAddr("5.1.0.1")

// AddGluelessZone delegates a zone selfglue.gov.br to a nameserver
// inside the zone itself while providing no glue: the host cannot be
// resolved without the zone's servers, and the zone's server set cannot
// be built without the host's address. The delegation is therefore
// unresolvable — a real misconfiguration (missing glue for an
// in-bailiwick NS) — and because the host resolution and the zone build
// depend on each other, it is the shape that can cross-couple the
// resolver's host and zone singleflights. Returns the zone, its NS
// host, and a child name beneath the zone.
func (w *World) AddGluelessZone() (zoneName, host, child dnsname.Name) {
	w.edit("ns1.gov.br.", "gov.br.", func(gov *zone.Builder) {
		gov.MustAdd(ns("selfglue.gov.br.", "ns.selfglue.gov.br."))
	})
	return "selfglue.gov.br.", "ns.selfglue.gov.br.", "dept.selfglue.gov.br."
}

// BreakIntermediateZoneTransient delegates an intermediate zone
// flaky.gov.br to a glue-less nameserver whose own resolution dead-ends
// in query timeouts (slow-provider.com's only server never answers) and
// returns m child names beneath it. Unlike BreakIntermediateZone's
// NXDOMAIN dead end, every failure on this path is timeout-rooted — the
// possibly-transient shape the scanner's second round re-probes, which
// the resolver must not negative-cache.
func (w *World) BreakIntermediateZoneTransient(m int) []dnsname.Name {
	w.edit("ns1.gov.br.", "gov.br.", func(gov *zone.Builder) {
		gov.MustAdd(ns("flaky.gov.br.", "ns.slow-provider.com."))
	})
	w.edit("a.gtld-servers.com.", "com.", func(com *zone.Builder) {
		com.MustAdd(ns("slow-provider.com.", "ns1.slow-provider.com."))
		com.MustAdd(a("ns1.slow-provider.com.", SlowNSAddr))
	})

	slow := zone.NewBuilder("slow-provider.com.")
	slow.MustAdd(soa("slow-provider.com.", "ns1.slow-provider.com."))
	slow.MustAdd(ns("slow-provider.com.", "ns1.slow-provider.com."))
	slow.MustAdd(a("ns1.slow-provider.com.", SlowNSAddr))
	srv := w.serve("ns1.slow-provider.com.", SlowNSAddr, slow.Freeze())
	srv.SetBehavior(authserver.BehaviorUnresponsive)

	names := make([]dnsname.Name, 0, m)
	for i := 0; i < m; i++ {
		names = append(names, dnsname.MustParse(fmt.Sprintf("dept%d.flaky.gov.br", i)))
	}
	return names
}

// BreakIntermediateZone delegates an intermediate zone broken.gov.br to a
// nameserver under the non-existent gone-provider.com (no glue), so any
// walk through it fails, and returns m child names beneath it. Used to
// exercise negative zone caching.
func (w *World) BreakIntermediateZone(m int) []dnsname.Name {
	w.edit("ns1.gov.br.", "gov.br.", func(gov *zone.Builder) {
		gov.MustAdd(ns("broken.gov.br.", "ns.gone-provider.com."))
	})
	names := make([]dnsname.Name, 0, m)
	for i := 0; i < m; i++ {
		names = append(names, dnsname.MustParse(fmt.Sprintf("dept%d.broken.gov.br", i)))
	}
	return names
}

// EvilNSAddr is where HijackCity's out-of-bailiwick nameserver lives.
var EvilNSAddr = netip.MustParseAddr("6.6.6.1")

// HijackCity rewrites city.gov.br's delegation in the gov.br zone to a
// single nameserver under evil-ops.com — out of bailiwick, absent from
// the provider catalog, hosting nothing else — and serves the child
// zone from that server so the domain still classifies healthy. The
// § VI-C takeover pattern in miniature: nothing about the domain's
// *health* changes, only who answers for it, which is exactly the
// signal the monitor's hijack heuristic must catch without a
// classification flip to lean on. Returns the evil NS hostname.
func (w *World) HijackCity() dnsname.Name {
	evil := dnsname.MustParse("ns1.evil-ops.com")
	w.edit("ns1.gov.br.", "gov.br.", func(gov *zone.Builder) {
		gov.Remove("city.gov.br.", dnswire.TypeNS)
		gov.Remove("ns1.city.gov.br.", dnswire.TypeA)
		gov.Remove("ns2.city.gov.br.", dnswire.TypeA)
		gov.MustAdd(ns("city.gov.br.", evil))
	})
	w.edit("a.gtld-servers.com.", "com.", func(com *zone.Builder) {
		com.MustAdd(ns("evil-ops.com.", evil))
		com.MustAdd(a(evil, EvilNSAddr))
	})

	eo := zone.NewBuilder("evil-ops.com.")
	eo.MustAdd(soa("evil-ops.com.", evil))
	eo.MustAdd(ns("evil-ops.com.", evil))
	eo.MustAdd(a(evil, EvilNSAddr))
	srv := w.serve(evil, EvilNSAddr, eo.Freeze())

	city := zone.NewBuilder("city.gov.br.")
	city.MustAdd(soa("city.gov.br.", evil))
	city.MustAdd(ns("city.gov.br.", evil))
	city.MustAdd(a("www.city.gov.br.", netip.MustParseAddr("192.0.2.66")))
	srv.AddZone(city.Freeze())
	return evil
}

// Domains returns the fixture's government child domains.
func Domains() []dnsname.Name {
	return []dnsname.Name{
		"city.gov.br.",
		"lame.gov.br.",
		"dead.gov.br.",
		"single.gov.br.",
		"hosted.gov.br.",
		"inconsistent.gov.br.",
		"dangling.gov.br.",
	}
}
