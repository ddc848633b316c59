package resolver

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/fanout"
	"govdns/internal/memo"
	"govdns/internal/trace"
)

// Iterator errors.
var (
	// ErrNXDomain indicates the name does not exist.
	ErrNXDomain = errors.New("resolver: NXDOMAIN")
	// ErrNoServers indicates resolution could not proceed because no
	// nameserver address for the next zone could be obtained — every
	// server lame, or glue missing and unresolvable.
	ErrNoServers = errors.New("resolver: no reachable nameservers")
	// ErrDepth indicates the referral or alias chain exceeded the
	// iterator's depth limit (a cyclic dependency, usually).
	ErrDepth = errors.New("resolver: resolution depth exceeded")
	// ErrNoAnswer indicates resolution completed but yielded no usable
	// records (e.g. NODATA).
	ErrNoAnswer = errors.New("resolver: no answer")
	// ErrServerFailure indicates a server answered with SERVFAIL or
	// REFUSED — it is up, but declined to be useful. Overload commonly
	// produces SERVFAIL, so the class is treated as transient.
	ErrServerFailure = errors.New("resolver: server failure")
)

// IsTransientErr reports whether err belongs to a failure class that a
// later retry — in particular the scanner's second round — may not
// reproduce: timeouts, rejected or truncated responses, and SERVFAIL-
// style server errors. Durable facts (NXDOMAIN, NODATA, a zone with no
// nameservers at all) are not transient.
func IsTransientErr(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrMismatch) || errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrServerFailure)
}

const maxDepth = 12

// DefaultBuildFanout bounds how many glue-less NS hosts one zone build
// resolves concurrently. A zone whose nameservers are all
// out-of-bailiwick and dangling otherwise serializes one timeout walk
// per host.
const DefaultBuildFanout = 4

// ZoneServers describes the authoritative server set of one zone as
// discovered during iteration.
//
// A ZoneServers returned by the Iterator (directly or inside a
// Delegation) is shared with the zone cache and with every other caller
// that hits the same zone: treat Hosts and Addrs — keys, values, and
// the slices behind them — as immutable. Derive mutated views through
// AllAddrs (which builds a fresh slice) or your own copy. The resolver
// itself never mutates a ZoneServers after publishing it, and
// TestZoneServersCachedAliasing enforces that a misbehaving caller is
// the only way to corrupt the cache.
type ZoneServers struct {
	// Zone is the apex of the zone.
	Zone dnsname.Name
	// Hosts are the NS hostnames, sorted.
	Hosts []dnsname.Name
	// Addrs maps each NS hostname to its IPv4 addresses (from glue or
	// explicit resolution). Hosts that could not be resolved map to nil.
	Addrs map[dnsname.Name][]netip.Addr
}

// AllAddrs returns the union of all server addresses, sorted.
func (zs *ZoneServers) AllAddrs() []netip.Addr {
	var out []netip.Addr
	for _, addrs := range zs.Addrs {
		out = append(out, addrs...)
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return slices.Compact(out)
}

// Delegation is the result of walking the delegation chain to a domain:
// the parent zone's servers and the nameservers they name for the
// domain. This is steps (1)-(2) of the paper's Fig. 1 measurement.
// Nothing else retains a Delegation's slices: the caller of Delegation
// owns them, and the caller of DelegationInto owns them until it walks
// into the same Delegation again. The host names themselves are owned
// strings and stay valid after that.
type Delegation struct {
	// Parent describes the zone that holds the delegation.
	Parent ZoneServers
	// Hosts are the domain's NS host names as seen from the parent side
	// (the paper's set P), sorted and deduplicated.
	Hosts []dnsname.Name
	// glue holds, index-aligned with Hosts, the A glue addresses the
	// answer carried for each host, all in one backing array; it is empty
	// when the answer carried none at all.
	glue      [][]netip.Addr
	glueAddrs []netip.Addr
	// Authoritative is true when the parent-side server answered with
	// the AA bit — it hosts the child zone too, so no referral occurs.
	Authoritative bool
}

// Glue returns the A glue addresses the parent sent for Hosts[i],
// sorted, or nil when it sent none for that host. Each host's slice is
// its own: appending to one never reaches another's.
func (d *Delegation) Glue(i int) []netip.Addr {
	if i >= len(d.glue) {
		return nil
	}
	return d.glue[i]
}

// fill sets d to the Delegation a walk step returns from the NS records
// and the additional section of an answer borrowing the step's arena,
// reusing d's storage: the host names are owned together in one
// allocation (dnsname.OwnAll), and each host's glue addresses are copied
// out of the A records (duplicates kept) into one backing array. Records
// of other types in either section are skipped.
func (d *Delegation) fill(parent *ZoneServers, ns, additional []dnswire.RR, authoritative bool) {
	d.Parent = *parent
	d.Authoritative = authoritative
	d.Hosts = nsHosts(d.Hosts, ns)
	dnsname.OwnAll(d.Hosts)
	d.glue, d.glueAddrs = d.glue[:0], d.glueAddrs[:0]
	total := 0
	for _, host := range d.Hosts {
		for _, rr := range additional {
			if _, ok := rr.Data.(dnswire.AData); ok && rr.Name == host {
				total++
			}
		}
	}
	if total == 0 {
		return
	}
	d.glueAddrs = slices.Grow(d.glueAddrs, total)
	for _, host := range d.Hosts {
		start := len(d.glueAddrs)
		for _, rr := range additional {
			if a, ok := rr.Data.(dnswire.AData); ok && rr.Name == host {
				d.glueAddrs = append(d.glueAddrs, a.Addr)
			}
		}
		var own []netip.Addr
		if end := len(d.glueAddrs); end > start {
			own = d.glueAddrs[start:end:end]
			slices.SortFunc(own, netip.Addr.Compare)
		}
		d.glue = append(d.glue, own)
	}
}

func isNS(rr dnswire.RR) bool { return rr.Type() == dnswire.TypeNS }

// nsHosts returns the NS host names of records, sorted and deduplicated,
// in dst's storage. The names alias records: a caller holding
// arena-borrowed records owns them (buildZone and fill do).
func nsHosts(dst []dnsname.Name, records []dnswire.RR) []dnsname.Name {
	dst = dst[:0]
	for _, rr := range records {
		if ns, ok := rr.Data.(dnswire.NSData); ok {
			dst = append(dst, ns.Host)
		}
	}
	slices.SortFunc(dst, dnsname.Compare)
	return slices.Compact(dst)
}

// Iterator performs iterative resolution from root hints. It caches
// discovered zone-server sets and host addresses, which is what makes
// bulk scans over a hundred thousand domains tractable: provider
// nameservers shared by thousands of domains are resolved once. Both
// caches are memo tables — mutex-sharded, one entry per name, settled or
// in flight — so concurrent workers neither contend on one lock nor
// duplicate in-flight resolutions: concurrent resolutions of the same
// name share one computation.
type Iterator struct {
	client *Client
	roots  []netip.Addr

	// AdaptiveOrder makes walk queries try recently responsive server
	// addresses first (the consecutive-failure counts in the client's
	// server table, reset on success). Without it, a zone whose
	// first-listed nameserver is dead costs every query against that
	// zone a full timeout: the responsive server is asked only after
	// it, or together with it, and a group waits for every member.
	// Defaults to true from NewIterator; only the order of
	// infrastructure queries changes — measurement probes ask one named
	// address each and are never reordered.
	AdaptiveOrder bool

	// hosts maps NS hostnames to their addresses, zones zone apexes to
	// their server sets; a kept failure is a negative entry (see keep).
	hosts *memo.Table[dnsname.Name, []netip.Addr]
	zones *memo.Table[dnsname.Name, *ZoneServers]
}

// NewIterator creates an iterator over client starting from the given
// root server addresses.
func NewIterator(client *Client, roots []netip.Addr) *Iterator {
	it := &Iterator{
		client:        client,
		roots:         append([]netip.Addr(nil), roots...),
		AdaptiveOrder: true,
		hosts:         memo.New[dnsname.Name, []netip.Addr](dnsname.Hash),
		zones:         memo.New[dnsname.Name, *ZoneServers](dnsname.Hash),
	}
	rootZS := &ZoneServers{Zone: dnsname.Root, Addrs: map[dnsname.Name][]netip.Addr{}}
	for i, addr := range it.roots {
		host := dnsname.MustParse(fmt.Sprintf("%c.root-servers.net", 'a'+i))
		rootZS.Hosts = append(rootZS.Hosts, host)
		rootZS.Addrs[host] = []netip.Addr{addr}
	}
	it.zones.Do(context.Background(), dnsname.Root, 0, func() (*ZoneServers, bool, error) {
		return rootZS, true, nil
	})
	return it
}

// Client returns the underlying query client.
func (it *Iterator) Client() *Client { return it.client }

// Stats returns a point-in-time snapshot of the iterator's counters
// merged with the underlying client's query-load counters. All counters
// are sampled atomically (individually, not as a consistent cut).
func (it *Iterator) Stats() Stats {
	s := it.client.Stats()
	m := it.client.metrics()
	s.HostCacheHits = m.hostHits.Load()
	s.HostCacheMisses = m.hostMisses.Load()
	s.ZoneCacheHits = m.zoneHits.Load()
	s.ZoneCacheMisses = m.zoneMisses.Load()
	s.NegativeHits = m.negHits.Load()
	// The host and zone tables share one pair of flight handles.
	s.CoalescedWaits = m.coalesced.Load()
	s.FlightBypasses = m.bypassed.Load()
	s.GroupsAskedTogether = m.togetherGroups.Load()
	s.AskedTogether = m.askedTogether.Load()
	return s
}

// flightWait returns the wait bound memo's Do takes for this call chain's
// table call on (kind, name). A chain already computing that very key (a
// CNAME loop back to its host, a zone build whose NS host walk re-enters
// the zone) would wait on itself, so it runs the work at once (-1). A
// top-level caller leads no flight, cannot be part of a wait cycle, and
// waits as long as its context allows (0). A chain leading a flight is
// resolving a dependency of that work, and two such leaders can wait on
// each other forever (A leads the host flight for a glue-less NS host
// whose walk enters zone Z while B leads Z's flight and resolves that
// very host); it gets a couple of full query budgets — long enough that
// the fallback stays rare, short enough that a cycle unwinds promptly.
// Recursion depth limits bound both fallbacks' duplicated work.
func (it *Iterator) flightWait(ctx context.Context, kind byte, name dnsname.Name) time.Duration {
	switch m := innermost(ctx); {
	case m == nil:
		return 0
	case m.runs(kind, name):
		return -1
	}
	return 2 * time.Duration(1+it.client.retries()) * it.client.timeout()
}

// cachedZone returns the deepest positively cached zone at or above name
// (at worst the root, cached at construction).
func (it *Iterator) cachedZone(name dnsname.Name) *ZoneServers {
	for cur := name; ; cur = cur.Parent() {
		if zs, ok := it.zones.Get(cur); ok || cur.IsRoot() {
			return zs
		}
	}
}

// Delegation walks the delegation chain from the root to name and returns
// the parent-zone view of name's delegation. It fails with ErrNXDomain if
// some ancestor denies the name's existence, and ErrNoServers if the
// chain cannot be followed.
func (it *Iterator) Delegation(ctx context.Context, name dnsname.Name) (*Delegation, error) {
	d := new(Delegation)
	if err := it.DelegationInto(ctx, name, d); err != nil {
		return nil, err
	}
	return d, nil
}

// DelegationInto is Delegation into d: the walk reuses d's host and glue
// storage, so a caller that walks many names through one Delegation
// allocates only the host names themselves. On error d's contents are
// unspecified.
func (it *Iterator) DelegationInto(ctx context.Context, name dnsname.Name, d *Delegation) error {
	current := it.cachedZone(name)
	if current.Zone == name {
		// We need the *parent* view; restart one level up from cache.
		current = it.cachedZone(name.Parent())
		if current.Zone == name {
			current = it.cachedZone(dnsname.Root)
		}
	}

	for step := 0; step < maxDepth; step++ {
		next, err := it.delegationStep(ctx, current, name, d)
		if err != nil || next == nil {
			return err
		}
		current = next
	}
	return fmt.Errorf("%w: referral chain too long for %s", ErrDepth, name)
}

// delegationStep performs one step of the delegation walk: ask the
// current zone's servers about name, then either finish (a delegation
// filled into d, or a terminal error) or descend (the next zone's
// server set, returned as next). Each step is one referral span
// covering both the query and, on descent, the next zone's build.
func (it *Iterator) delegationStep(ctx context.Context, current *ZoneServers, name dnsname.Name, d *Delegation) (next *ZoneServers, err error) {
	ctx, st := trace.Begin(ctx, trace.KindReferral, string(current.Zone), nil)
	defer func() {
		if err == nil && next != nil {
			st.Annotate(trace.Str("next", string(next.Zone)))
		}
		st.End(err)
	}()

	// One codec arena per step: the response borrows it, and everything
	// that outlives the step — the Delegation's host names and glue, the
	// next zone's host names — is copied at the choke points below.
	// queryAny may hand back a different arena than it was given; the
	// deferred Finish releases whichever a holds by then.
	a := it.client.ArenaPool().Get()
	defer func() { a.Finish() }()

	resp, a, err := it.queryAny(ctx, a, current, name, dnswire.TypeNS, 0)
	if err != nil {
		return nil, fmt.Errorf("querying servers of %q for %q: %w", current.Zone, name, err)
	}
	switch {
	case resp.Header.RCode == dnswire.RCodeNXDomain:
		return nil, fmt.Errorf("%w: %s (denied by %s)", ErrNXDomain, name, current.Zone)
	case resp.Header.RCode != dnswire.RCodeNoError:
		return nil, fmt.Errorf("%w: %s returned %s for %s", ErrNoServers, current.Zone, resp.Header.RCode, name)
	}

	// Authoritative NS answer: the queried server hosts a zone
	// containing name (possibly name's own zone when parent and
	// child share servers).
	if resp.Header.Authoritative && slices.ContainsFunc(resp.Answers, isNS) {
		d.fill(current, resp.Answers, resp.Additional, true)
		return nil, nil
	}

	if resp.IsReferral() {
		owner := resp.Authority[slices.IndexFunc(resp.Authority, isNS)].Name
		if owner == name {
			d.fill(current, resp.Authority, resp.Additional, false)
			return nil, nil
		}
		// Intermediate zone cut: build its server set and descend.
		authNS := a.OfType(resp.Authority, dnswire.TypeNS)
		return it.zoneServers(ctx, owner, authNS, a.OfType(resp.Additional, dnswire.TypeA), 0)
	}

	// NODATA for NS at an intermediate server: name exists but has
	// no delegation visible here. Give up with ErrNoAnswer so
	// callers can distinguish it from lameness.
	return nil, fmt.Errorf("%w: no NS for %s at %s", ErrNoAnswer, name, current.Zone)
}

// zoneServers returns the server set of zoneName from the zone table:
// a settled entry (a negative one for a zone whose build already failed
// durably), the build another chain has in flight, or a build of its own.
func (it *Iterator) zoneServers(ctx context.Context, zoneName dnsname.Name, nsRecords, glue []dnswire.RR, depth int) (*ZoneServers, error) {
	// The zone name usually arrives borrowed (the owner of a referral's
	// authority records); everything below retains it — table key,
	// zone-build span label, ZoneServers.Zone — so own it once here.
	zoneName = zoneName.Own()
	wait := it.flightWait(ctx, 'z', zoneName)
	zs, how, err := it.zones.Do(ctx, zoneName, wait, func() (*ZoneServers, bool, error) {
		zs, err := it.buildZone(markInFlight(ctx, 'z', zoneName), zoneName, nsRecords, glue, depth)
		return zs, keep(ctx, err), err
	})
	return zs, it.observe(ctx, "zone", zoneName, it.client.metrics().zoneHits, wait, how, err)
}

// buildZone builds the server set of a zone from referral records in a
// zone-build span, resolving out-of-bailiwick hosts that lack glue.
func (it *Iterator) buildZone(ctx context.Context, zoneName dnsname.Name, nsRecords, glue []dnswire.RR, depth int) (zs *ZoneServers, err error) {
	it.client.metrics().zoneMisses.Inc()
	ctx, st := trace.Begin(ctx, trace.KindZoneBuild, string(zoneName), nil)
	defer func() { st.End(err) }()
	zs = &ZoneServers{
		Zone:  zoneName,
		Hosts: nsHosts(make([]dnsname.Name, 0, len(nsRecords)), nsRecords),
		Addrs: make(map[dnsname.Name][]netip.Addr, len(nsRecords)),
	}
	// The records borrow a codec arena (referral sections straight off
	// the wire); the host list outlives the packet — it is cached inside
	// ZoneServers — so own the names here.
	dnsname.OwnAll(zs.Hosts)
	glueByHost := make(map[dnsname.Name][]netip.Addr)
	for _, rr := range glue {
		if a, ok := rr.Data.(dnswire.AData); ok {
			glueByHost[rr.Name] = append(glueByHost[rr.Name], a.Addr)
		}
	}
	// Glue-less hosts need full resolutions; run them through the
	// inline-first fan-out, writing into an index-ordered slice. Each
	// resolution is itself cached and coalesced, so the concurrency only
	// overlaps waits (mostly timeout walks for dangling hosts), never
	// duplicates work.
	resolved := make([][]netip.Addr, len(zs.Hosts))
	errs := make([]error, len(zs.Hosts))
	var need []int
	for i, host := range zs.Hosts {
		if addrs, ok := glueByHost[host]; ok {
			resolved[i] = addrs
			continue
		}
		need = append(need, i)
	}
	st.Annotate(trace.Int("hosts", int64(len(zs.Hosts))), trace.Int("glueless", int64(len(need))))
	fanout.Each(len(need), DefaultBuildFanout, func(k int) {
		i := need[k]
		resolved[i], errs[i] = it.resolveHost(ctx, zs.Hosts[i], depth+1)
	})
	anyAddr := false
	depthLimited := false
	var transientErr error
	for i, host := range zs.Hosts {
		if errs[i] != nil {
			resolved[i] = nil
			if errors.Is(errs[i], ErrDepth) {
				depthLimited = true
			}
			if transientErr == nil && IsTransientErr(errs[i]) {
				transientErr = errs[i]
			}
		}
		zs.Addrs[host] = resolved[i]
		if resolved[i] != nil {
			anyAddr = true
		}
	}
	if !anyAddr {
		if depthLimited {
			// At least one host only failed because this call chain ran
			// out of depth; report that so the failure isn't treated as
			// a durable fact about the zone.
			return nil, fmt.Errorf("%w: resolving nameservers of zone %s", ErrDepth, zoneName)
		}
		if transientErr != nil {
			// Surface the transient cause in the chain so keep can
			// tell this possibly-recoverable failure from a durable one.
			return nil, fmt.Errorf("%w: zone %s has no resolvable nameservers: %w", ErrNoServers, zoneName, transientErr)
		}
		return nil, fmt.Errorf("%w: zone %s has no resolvable nameservers", ErrNoServers, zoneName)
	}
	return zs, nil
}

// AppendHostAddrs resolves host's IPv4 addresses iteratively, using
// the cache, appends them to dst and returns the extended slice (dst
// itself on failure). host must not alias a codec arena (the host table
// retains it). A caller that copies the addresses on anyway — the
// scanner into its result's one address block — passes reused scratch
// and allocates nothing.
//
// This is the boundary through which host addresses leave the
// resolution machinery, and it always copies. Behind it the same backing
// array is shared by the table entry, every coalesced waiter and every
// server set built from it, so handing it out would let one caller's
// in-place sort or truncation corrupt what every later hit sees.
func (it *Iterator) AppendHostAddrs(ctx context.Context, dst []netip.Addr, host dnsname.Name) ([]netip.Addr, error) {
	addrs, err := it.resolveHost(ctx, host, 0)
	return append(dst, addrs...), err
}

// resolveHost returns host's addresses from the host table: a settled
// entry, the resolution another chain has in flight, or a resolution of
// its own. A negative entry reproduces the original failure, wrapped so
// callers can still classify its cause — e.g. a timeout — through
// errors.Is. Every caller passes an owned host. The slice is the
// table's own: callers inside the resolver only read it or publish it
// in an immutable ZoneServers, and callers outside get a copy
// (AppendHostAddrs).
func (it *Iterator) resolveHost(ctx context.Context, host dnsname.Name, depth int) ([]netip.Addr, error) {
	wait := it.flightWait(ctx, 'h', host)
	addrs, how, err := it.hosts.Do(ctx, host, wait, func() ([]netip.Addr, bool, error) {
		addrs, err := it.lookup(markInFlight(ctx, 'h', host), host, depth)
		return addrs, keep(ctx, err), err
	})
	err = it.observe(ctx, "host", host, it.client.metrics().hostHits, wait, how, err)
	if how == memo.Hit && err != nil {
		err = fmt.Errorf("%w: cached failure for %s: %w", ErrNoServers, host, err)
	}
	return addrs, err
}

// lookup iteratively resolves host's A records in a host-resolution span.
func (it *Iterator) lookup(ctx context.Context, host dnsname.Name, depth int) (addrs []netip.Addr, err error) {
	it.client.metrics().hostMisses.Inc()
	ctx, st := trace.Begin(ctx, trace.KindHostResolve, string(host), nil)
	defer func() {
		if err == nil {
			st.Annotate(trace.Int("addrs", int64(len(addrs))))
		}
		st.End(err)
	}()
	if depth > maxDepth {
		return nil, fmt.Errorf("%w: resolving %s", ErrDepth, host)
	}
	// One arena for the whole walk: each step's decode invalidates the
	// previous response, which is exactly the loop's access pattern, and
	// every value that escapes (addresses, the CNAME target, zone names)
	// is copied or owned below. queryAny may swap it for the arena its
	// answer arrived on.
	a := it.client.ArenaPool().Get()
	defer func() { a.Finish() }()

	current := it.cachedZone(host)
	for step := 0; step < maxDepth; step++ {
		var resp *dnswire.Message
		var err error
		resp, a, err = it.queryAny(ctx, a, current, host, dnswire.TypeA, depth)
		if err != nil {
			return nil, fmt.Errorf("resolving %q via %q: %w", host, current.Zone, err)
		}
		switch {
		case resp.Header.RCode == dnswire.RCodeNXDomain:
			return nil, fmt.Errorf("%w: %s", ErrNXDomain, host)
		case resp.Header.RCode != dnswire.RCodeNoError:
			return nil, fmt.Errorf("%w: %s for %s", ErrNoServers, resp.Header.RCode, host)
		}
		if answers := a.OfType(resp.Answers, dnswire.TypeA); len(answers) > 0 {
			addrs := make([]netip.Addr, 0, len(answers))
			for _, rr := range answers {
				if rr.Name != host {
					continue
				}
				addrs = append(addrs, rr.Data.(dnswire.AData).Addr)
			}
			if len(addrs) > 0 {
				slices.SortFunc(addrs, netip.Addr.Compare)
				return addrs, nil
			}
		}
		// CNAME chase. The target escapes into the host-resolution
		// machinery (flight key, cache key, span label), so own it.
		if cnames := a.OfType(resp.Answers, dnswire.TypeCNAME); len(cnames) > 0 {
			target := cnames[0].Data.(dnswire.CNAMEData).Target.Own()
			return it.resolveHost(ctx, target, depth+1)
		}
		if resp.IsReferral() {
			authNS := a.OfType(resp.Authority, dnswire.TypeNS)
			next, err := it.zoneServers(ctx, authNS[0].Name, authNS, a.OfType(resp.Additional, dnswire.TypeA), depth)
			if err != nil {
				return nil, err
			}
			current = next
			continue
		}
		return nil, fmt.Errorf("%w: %s has no A records", ErrNoAnswer, host)
	}
	return nil, fmt.Errorf("%w: referral chain too long for %s", ErrDepth, host)
}

// queryAny asks the zone's servers until one responds, and returns its
// answer on the arena the caller now holds (see below). Lame servers are
// skipped; if all are lame, the failure of the lowest-addressed server
// is returned — every candidate was tried, so the failure *set* does not
// depend on try order, and picking a canonical representative keeps the
// reported error (which ends up in scan results) independent of the
// adaptive ordering's scheduling-fed health state. Each address is a
// candidate once, at its first position, however many NS hosts resolve
// to it. With AdaptiveOrder the known addresses are tried healthiest-
// first (stable, so a fresh client behaves exactly like the fixed
// order); out-of-bailiwick hosts whose addresses are not yet known are
// only resolved once every known address has failed.
//
// A candidate is asked on its own while the call has seen no failure and
// its record holds none; from the first sign of a dead zone the rest are
// asked together (see askTogether), which returns the same answer the
// one-by-one loop would. The returned message borrows the returned
// arena: a itself, or — when a helper's answer won — that helper's
// arena, a having been finished. The caller finishes whichever it holds.
func (it *Iterator) queryAny(ctx context.Context, a *dnswire.Arena, zs *ZoneServers, name dnsname.Name, qtype dnswire.Type, depth int) (*dnswire.Message, *dnswire.Arena, error) {
	// Up to eight candidates live on the stack, so a healthy walk's
	// query allocates nothing here.
	var stack [8]candidate
	cands := stack[:0]
	var unresolved []dnsname.Name
	for _, host := range zs.Hosts {
		addrs := zs.Addrs[host]
		if addrs == nil && !host.IsSubdomainOf(zs.Zone) {
			// Out-of-bailiwick host that wasn't resolved when the zone
			// was cached; it may have been a transient miss.
			unresolved = append(unresolved, host)
			continue
		}
		cands = it.appendCandidates(cands, addrs)
	}
	if it.AdaptiveOrder && len(cands) > 1 {
		byFails := func(a, b candidate) int { return cmp.Compare(a.fails, b.fails) }
		if !slices.IsSortedFunc(cands, byFails) {
			slices.SortStableFunc(cands, byFails)
			if rec, parent := trace.From(ctx); rec != nil {
				rec.Event(parent, trace.KindReorder, string(zs.Zone),
					trace.Str("first", cands[0].addr.String()))
			}
		}
	}

	resp, a, fails := it.ask(ctx, a, cands, name, qtype, nil)
	for _, host := range unresolved {
		if resp != nil {
			break
		}
		addrs, err := it.resolveHost(ctx, host, depth+1)
		if err != nil {
			continue
		}
		known := len(cands)
		cands = it.appendCandidates(cands, addrs)
		resp, a, fails = it.ask(ctx, a, cands[known:], name, qtype, fails)
	}
	switch {
	case resp != nil:
		return resp, a, nil
	case len(fails) == 0:
		return nil, a, fmt.Errorf("%w: zone %s", ErrNoServers, zs.Zone)
	}
	return nil, a, slices.MinFunc(fails, func(x, y failure) int { return x.addr.Compare(y.addr) }).err
}

// candidate is one server address queryAny may ask, with the walk's
// failure count its record held when the address joined the list.
type candidate struct {
	addr  netip.Addr
	fails int32
}

// failure is a candidate that did not answer usefully.
type failure struct {
	addr netip.Addr
	err  error
}

// appendCandidates appends the addresses not yet in cands, in order.
func (it *Iterator) appendCandidates(cands []candidate, addrs []netip.Addr) []candidate {
next:
	for _, addr := range addrs {
		for _, c := range cands {
			if c.addr == addr {
				continue next
			}
		}
		cands = append(cands, candidate{addr, it.client.servers.failures(addr)})
	}
	return cands
}

// ask asks cands in order until one answers, appending each failure to
// fails. A candidate goes alone, on the caller and its arena, while
// fails is empty and the candidate's record shows no failures — the
// healthy walk's path, which costs no goroutine. Otherwise it and every
// candidate after it are asked together.
func (it *Iterator) ask(ctx context.Context, a *dnswire.Arena, cands []candidate, name dnsname.Name, qtype dnswire.Type, fails []failure) (*dnswire.Message, *dnswire.Arena, []failure) {
	for i, c := range cands {
		if len(fails) > 0 || c.fails > 0 {
			return it.askTogether(ctx, a, cands[i:], name, qtype, fails)
		}
		resp, err := it.try(ctx, a, c.addr, name, qtype)
		if err == nil {
			return resp, a, fails
		}
		fails = append(fails, failure{c.addr, err})
	}
	return nil, a, fails
}

// askTogether asks every candidate at once: the caller asks the first on
// a, one helper goroutine per other candidate asks it on an arena of its
// own from the client's pool. The waits on dead servers overlap; the
// answers do not race. Every member runs to completion — nothing is
// cancelled when an early answer arrives — and books its outcome before
// this returns, so which exchanges a walk sends never depends on
// goroutine timing. The answer is the lowest-index candidate that
// answered, which is the one the one-by-one loop would have returned.
// Its arena goes back to the caller (a is finished if a helper's won);
// every other helper arena goes back to the pool.
func (it *Iterator) askTogether(ctx context.Context, a *dnswire.Arena, cands []candidate, name dnsname.Name, qtype dnswire.Type, fails []failure) (*dnswire.Message, *dnswire.Arena, []failure) {
	type answer struct {
		a    *dnswire.Arena
		resp *dnswire.Message
		err  error
	}
	m := it.client.metrics()
	m.togetherGroups.Inc()
	m.askedTogether.Add(uint64(len(cands)))
	answers := make([]answer, len(cands))
	answers[0].a = a
	pool := it.client.ArenaPool()
	var wg sync.WaitGroup
	for k := 1; k < len(cands); k++ {
		ans := &answers[k]
		ans.a = pool.Get()
		wg.Add(1)
		go func(addr netip.Addr) {
			defer wg.Done()
			ans.resp, ans.err = it.try(ctx, ans.a, addr, name, qtype)
		}(cands[k].addr)
	}
	answers[0].resp, answers[0].err = it.try(ctx, a, cands[0].addr, name, qtype)
	wg.Wait()

	win := slices.IndexFunc(answers, func(ans answer) bool { return ans.err == nil })
	for k := 1; k < len(answers); k++ {
		if k != win {
			answers[k].a.Finish()
		}
	}
	switch {
	case win < 0:
		for k, ans := range answers {
			fails = append(fails, failure{cands[k].addr, ans.err})
		}
		return nil, a, fails
	case win > 0:
		a.Finish()
	}
	return answers[win].resp, answers[win].a, fails
}

// try asks one server and books the outcome on its record: a failure
// under a live context counts against the server (a dead context says
// nothing about its health), an answer clears its count. SERVFAIL and
// REFUSED are failures too — the server is up but no use to the walk.
func (it *Iterator) try(ctx context.Context, a *dnswire.Arena, addr netip.Addr, name dnsname.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	resp, err := it.client.QueryArena(ctx, a, addr, name, qtype)
	servers := &it.client.servers
	switch {
	case err != nil:
		if ctx.Err() == nil {
			servers.record(addr).fails.Add(1)
		}
		return nil, err
	case resp.Header.RCode == dnswire.RCodeServFail || resp.Header.RCode == dnswire.RCodeRefused:
		servers.record(addr).fails.Add(1)
		return nil, fmt.Errorf("%w: %w: %s from %s", ErrNoServers, ErrServerFailure, resp.Header.RCode, addr)
	}
	servers.record(addr).fails.Store(0)
	return resp, nil
}
