package resolver

import (
	"context"
	"errors"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"govdns/internal/chaos"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/miniworld"
	"govdns/internal/obs"
)

func newFixture(t *testing.T) (*miniworld.World, *Client, *Iterator) {
	t.Helper()
	w := miniworld.Build()
	c := NewClient(w.Net)
	c.Timeout = 20 * time.Millisecond
	c.Retries = 1
	return w, c, NewIterator(c, w.Roots)
}

func ctxWithTimeout(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestClientQueryDirect(t *testing.T) {
	_, c, _ := newFixture(t)
	resp, err := c.QueryArena(ctxWithTimeout(t), new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !resp.Header.Authoritative || len(resp.Answers) != 2 {
		t.Errorf("unexpected response: %s", resp)
	}
}

func TestClientQueryTimeout(t *testing.T) {
	_, c, _ := newFixture(t)
	_, tr, err := c.QueryArenaTraced(ctxWithTimeout(t), new(dnswire.Arena), miniworld.DeadAddr, "dead.gov.br.", dnswire.TypeNS)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
	// The first attempt and its one retry, each sent and timed out.
	if tr.Attempts != 2 {
		t.Errorf("attempts = %d, want 2; retry did not happen", tr.Attempts)
	}
	if st := c.Stats(); st.Sent != 2 || st.Timeouts != 2 {
		t.Errorf("sent = %d, timeouts = %d; want 2 and 2", st.Sent, st.Timeouts)
	}
}

// TestDeadServerCostsNoWallTime: over simnet an attempt's own deadline
// is reached at once when nothing will answer, so a client whose
// timeout is an hour still gets its two timeouts. The watchdog cancels
// the query's context if it waits instead; the context has no deadline
// of its own, which would bind and so be waited out.
func TestDeadServerCostsNoWallTime(t *testing.T) {
	_, c, _ := newFixture(t)
	c.Timeout = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchdog := time.AfterFunc(30*time.Second, cancel)
	defer watchdog.Stop()
	_, tr, err := c.QueryArenaTraced(ctx, new(dnswire.Arena), miniworld.DeadAddr, "dead.gov.br.", dnswire.TypeNS)
	if ctx.Err() != nil {
		t.Fatalf("the watchdog ended the query: a dead server's hour-long attempt was waited out (err %v)", err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
	if tr.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", tr.Attempts)
	}
	// The same text a wait to the deadline gives: the attempt's context
	// reads expired either way.
	if want := "after 2 attempts: context deadline exceeded: attempt deadline: simnet: packet dropped: context deadline exceeded"; !strings.HasSuffix(err.Error(), want) {
		t.Errorf("error %q does not end %q", err, want)
	}
}

// TestExpiredAttemptObservesItsDeadline: an attempt simnet ended at
// once still lasted its whole deadline, so its exchange stage observes
// the client timeout in resolver_attempt_rtt, not the microseconds the
// shortcut took, and a dead server reads as a timeout there.
func TestExpiredAttemptObservesItsDeadline(t *testing.T) {
	_, c, _ := newFixture(t)
	reg := obs.NewRegistry()
	c.AttachRegistry(reg)
	if _, err := c.QueryArena(ctxWithTimeout(t), new(dnswire.Arena), miniworld.DeadAddr, "dead.gov.br.", dnswire.TypeNS); !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
	h := reg.Histogram("resolver_attempt_rtt").SnapshotHistogram()
	if h.Count != 2 {
		t.Fatalf("resolver_attempt_rtt holds %d observations, want one per attempt (2)", h.Count)
	}
	if want := 2 * c.Timeout; time.Duration(h.SumNS) != want {
		t.Errorf("resolver_attempt_rtt sums to %v, want two whole deadlines (%v)", time.Duration(h.SumNS), want)
	}
	for _, b := range h.Buckets {
		if b.Le <= c.Timeout {
			t.Errorf("%d observations in the bucket below %v, under the client timeout %v", b.N, b.Le, c.Timeout)
		}
	}
}

func TestDelegationHealthyDomain(t *testing.T) {
	_, _, it := newFixture(t)
	d, err := it.Delegation(ctxWithTimeout(t), "city.gov.br.")
	if err != nil {
		t.Fatalf("Delegation: %v", err)
	}
	if d.Parent.Zone != "gov.br." {
		t.Errorf("parent zone = %q, want gov.br.", d.Parent.Zone)
	}
	hosts := d.Hosts
	if len(hosts) != 2 || hosts[0] != "ns1.city.gov.br." || hosts[1] != "ns2.city.gov.br." {
		t.Errorf("hosts = %v", hosts)
	}
	if n := len(d.Glue(0)) + len(d.Glue(1)); n != 2 {
		t.Errorf("glue count = %d, want 2", n)
	}
	if d.Authoritative {
		t.Error("referral marked authoritative")
	}
}

// TestDelegationGlueSortsOnce checks how a Delegation is built from an
// answer's records: host names sorted and deduplicated, each host's glue
// addresses sorted with duplicates kept, every host's slice capped so
// an append to one cannot reach the next, nil for a host without glue,
// and no glue table at all when the answer carried none — also when the
// same Delegation carried glue from its previous fill.
func TestDelegationGlueSortsOnce(t *testing.T) {
	host := dnsname.Name("ns1.multiglue.gov.br.")
	other := dnsname.Name("ns2.multiglue.gov.br.")
	bare := dnsname.Name("ns3.multiglue.gov.br.")
	a := func(name dnsname.Name, addr string) dnswire.RR {
		return dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.AData{Addr: netip.MustParseAddr(addr)}}
	}
	ns := func(h dnsname.Name) dnswire.RR {
		return dnswire.RR{Name: "multiglue.gov.br.", Class: dnswire.ClassIN, TTL: 300, Data: dnswire.NSData{Host: h}}
	}
	nsSet := []dnswire.RR{ns(other), ns(bare), ns(host), ns(other)}
	additional := []dnswire.RR{
		a(host, "4.5.0.9"), a(other, "4.5.0.2"), a(host, "4.5.0.1"), a(host, "4.5.0.5"), a(host, "4.5.0.1"),
		{Name: host, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.AAAAData{Addr: netip.MustParseAddr("2001:db8::1")}},
	}
	parent := &ZoneServers{Zone: "gov.br."}
	var d Delegation
	d.fill(parent, nsSet, additional, false)
	if want := []dnsname.Name{host, other, bare}; !slices.Equal(d.Hosts, want) {
		t.Fatalf("Hosts = %v, want %v", d.Hosts, want)
	}
	want := [][]netip.Addr{
		{netip.MustParseAddr("4.5.0.1"), netip.MustParseAddr("4.5.0.1"), netip.MustParseAddr("4.5.0.5"), netip.MustParseAddr("4.5.0.9")},
		{netip.MustParseAddr("4.5.0.2")},
		nil,
	}
	for i := range d.Hosts {
		got := d.Glue(i)
		if !slices.Equal(got, want[i]) || (got == nil) != (want[i] == nil) {
			t.Errorf("Glue(%d) = %v, want %v", i, got, want[i])
		}
		if cap(got) != len(got) {
			t.Errorf("Glue(%d) has spare capacity %d; an append would reach the next host's", i, cap(got)-len(got))
		}
	}
	if d.fill(parent, nsSet, nil, true); len(d.glue) != 0 || d.Glue(0) != nil || !d.Authoritative {
		t.Errorf("glue-less delegation = %+v", d)
	}
}

func TestDelegationThirdPartyHosted(t *testing.T) {
	_, _, it := newFixture(t)
	d, err := it.Delegation(ctxWithTimeout(t), "hosted.gov.br.")
	if err != nil {
		t.Fatalf("Delegation: %v", err)
	}
	hosts := d.Hosts
	if len(hosts) != 2 || hosts[0] != "ns1.provider.com." {
		t.Errorf("hosts = %v", hosts)
	}
}

func TestDelegationNXDomain(t *testing.T) {
	_, _, it := newFixture(t)
	_, err := it.Delegation(ctxWithTimeout(t), "nonexistent.gov.br.")
	if !errors.Is(err, ErrNXDomain) {
		t.Fatalf("error = %v, want ErrNXDomain", err)
	}
}

func TestResolveHostWithGlue(t *testing.T) {
	_, _, it := newFixture(t)
	addrs, err := it.AppendHostAddrs(ctxWithTimeout(t), nil, "ns1.city.gov.br.")
	if err != nil {
		t.Fatalf("AppendHostAddrs: %v", err)
	}
	if len(addrs) != 1 || addrs[0] != miniworld.CityNS1Addr {
		t.Errorf("addrs = %v, want [%v]", addrs, miniworld.CityNS1Addr)
	}
}

func TestResolveHostThirdParty(t *testing.T) {
	_, _, it := newFixture(t)
	addrs, err := it.AppendHostAddrs(ctxWithTimeout(t), nil, "ns2.provider.com.")
	if err != nil {
		t.Fatalf("AppendHostAddrs: %v", err)
	}
	if len(addrs) != 1 || addrs[0] != miniworld.ProviderNS2Addr {
		t.Errorf("addrs = %v, want [%v]", addrs, miniworld.ProviderNS2Addr)
	}
}

func TestResolveHostDanglingNXDomain(t *testing.T) {
	_, _, it := newFixture(t)
	_, err := it.AppendHostAddrs(ctxWithTimeout(t), nil, "ns.gone-provider.com.")
	if !errors.Is(err, ErrNXDomain) {
		t.Fatalf("error = %v, want ErrNXDomain", err)
	}
}

func TestResolveHostCaching(t *testing.T) {
	w, c, it := newFixture(t)
	ctx := ctxWithTimeout(t)
	if _, err := it.AppendHostAddrs(ctx, nil, "ns1.provider.com."); err != nil {
		t.Fatal(err)
	}
	// Kill the entire com. infrastructure: cached entries must still
	// resolve, proving no network round trip happens.
	w.Net.Blackhole(miniworld.TLDComAddr)
	w.Net.Blackhole(miniworld.ProviderNS1Addr)
	addrs, err := it.AppendHostAddrs(ctx, nil, "ns1.provider.com.")
	if err != nil || len(addrs) != 1 {
		t.Fatalf("cached AppendHostAddrs = %v, %v", addrs, err)
	}
	_ = c
}

// TestZoneCacheCountersSkipWalkStart pins what the zone-cache counters
// count. The first walk to city.gov.br. builds br. and gov.br. (two
// misses). The walk to its sibling lame.gov.br. then starts at the
// cached gov.br. — one query, to gov.br.'s servers — and moves neither
// counter: the closest-enclosing lookup that starts a walk is not a
// counted hit; only a referral naming an already cached zone is.
func TestZoneCacheCountersSkipWalkStart(t *testing.T) {
	_, _, it := newFixture(t)
	ctx := ctxWithTimeout(t)
	if _, err := it.Delegation(ctx, "city.gov.br."); err != nil {
		t.Fatal(err)
	}
	before := it.Stats()
	if before.ZoneCacheMisses != 2 || before.ZoneCacheHits != 0 {
		t.Fatalf("cold walk: zone cache hits/misses = %d/%d, want 0/2",
			before.ZoneCacheHits, before.ZoneCacheMisses)
	}
	if _, err := it.Delegation(ctx, "lame.gov.br."); err != nil {
		t.Fatal(err)
	}
	after := it.Stats()
	if sent := after.Sent - before.Sent; sent != 1 {
		t.Errorf("sibling walk sent %d queries, want 1 (from the cached parent)", sent)
	}
	if after.ZoneCacheHits != before.ZoneCacheHits || after.ZoneCacheMisses != before.ZoneCacheMisses {
		t.Errorf("sibling walk moved zone cache hits/misses %d/%d -> %d/%d, want unchanged",
			before.ZoneCacheHits, before.ZoneCacheMisses, after.ZoneCacheHits, after.ZoneCacheMisses)
	}
}

func TestNegativeCaching(t *testing.T) {
	_, _, it := newFixture(t)
	ctx := ctxWithTimeout(t)
	if _, err := it.AppendHostAddrs(ctx, nil, "ns.gone-provider.com."); err == nil {
		t.Fatal("expected failure")
	}
	start := time.Now()
	if _, err := it.AppendHostAddrs(ctx, nil, "ns.gone-provider.com."); err == nil {
		t.Fatal("expected cached failure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Millisecond {
		t.Errorf("second failed resolution took %v; negative cache not used", elapsed)
	}
}

func TestDelegationSkipsLameParentServer(t *testing.T) {
	// Even with one gov.br server persistently dropping every query,
	// delegation succeeds via the other.
	w := miniworld.Build()
	tr := w.ChaosProfile(1, map[dnsname.Name][]chaos.Rule{
		"ns1.gov.br.": {chaos.Persistent(chaos.Drop, 1)},
	})
	c := NewClient(tr)
	c.Timeout = 20 * time.Millisecond
	c.Retries = 1
	it := NewIterator(c, w.Roots)
	d, err := it.Delegation(ctxWithTimeout(t), "city.gov.br.")
	if err != nil {
		t.Fatalf("Delegation with one lame parent server: %v", err)
	}
	if len(d.Hosts) != 2 {
		t.Errorf("hosts = %v", d.Hosts)
	}
	if tr.Stats().Injected[chaos.Drop] == 0 {
		t.Error("chaos dropped nothing; the lame server was never consulted")
	}
}

func TestDelegationFailsWhenAllParentsLame(t *testing.T) {
	w, _, it := newFixture(t)
	w.Net.Blackhole(miniworld.GovNS1Addr)
	w.Net.Blackhole(miniworld.GovNS2Addr)
	_, err := it.Delegation(ctxWithTimeout(t), "city.gov.br.")
	if err == nil {
		t.Fatal("Delegation succeeded with every parent server dead")
	}
}

func TestZoneServersAllAddrs(t *testing.T) {
	zs := &ZoneServers{
		Zone:  "x.",
		Hosts: []dnsname.Name{"a.x.", "b.x."},
		Addrs: map[dnsname.Name][]netip.Addr{
			"a.x.": {netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.0.0.1")},
			"b.x.": {netip.MustParseAddr("10.0.0.1")}, // duplicate
		},
	}
	addrs := zs.AllAddrs()
	if len(addrs) != 2 || !addrs[0].Less(addrs[1]) {
		t.Errorf("AllAddrs = %v", addrs)
	}
}

// classifyOne runs one mutated response to query 5 (x.example./A)
// through Client.classify — the client's only validation routine — and
// returns the trace it filled, the client's counters and the verdict.
func classifyOne(t *testing.T, mutate func(r *dnswire.Message)) (Trace, Stats, error) {
	t.Helper()
	c := NewClient(nil)
	a := c.ArenaPool().Get()
	defer a.Finish()
	q := a.NewQuery(5, "x.example.", dnswire.TypeA)
	r := dnswire.NewResponse(q)
	mutate(r)
	wire, err := dnswire.Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	var tr Trace
	_, verdict := c.classify(a, q, c.servers.record(miniworld.GovNS1Addr), wire, &tr)
	return tr, c.Stats(), verdict
}

func TestValidateRejectsWrongID(t *testing.T) {
	tr, st, err := classifyOne(t, func(r *dnswire.Message) { r.Header.ID = 6 })
	if !errors.Is(err, ErrMismatch) {
		t.Errorf("error = %v, want ErrMismatch", err)
	}
	if want := (Trace{Faults: Faults{QIDMismatches: 1}}); tr != want {
		t.Errorf("trace = %+v, want %+v", tr, want)
	}
	if want := (Stats{QIDMismatches: 1}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestValidateRejectsNonResponse(t *testing.T) {
	tr, st, err := classifyOne(t, func(r *dnswire.Message) { r.Header.Response = false })
	if !errors.Is(err, ErrMismatch) {
		t.Errorf("error = %v, want ErrMismatch", err)
	}
	if want := (Trace{Faults: Faults{Malformed: 1}}); tr != want {
		t.Errorf("trace = %+v, want %+v", tr, want)
	}
	if want := (Stats{Malformed: 1}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestValidateRejectsWrongQuestion(t *testing.T) {
	tr, st, err := classifyOne(t, func(r *dnswire.Message) { r.Questions[0].Name = "y.example." })
	if !errors.Is(err, ErrMismatch) {
		t.Errorf("error = %v, want ErrMismatch", err)
	}
	if want := (Trace{Faults: Faults{QuestionMismatches: 1}}); tr != want {
		t.Errorf("trace = %+v, want %+v", tr, want)
	}
	if want := (Stats{QuestionMismatches: 1}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestResolveHostChasesCNAME(t *testing.T) {
	_, _, it := newFixture(t)
	addrs, err := it.AppendHostAddrs(ctxWithTimeout(t), nil, "cname-ns.gov.br.")
	if err != nil {
		t.Fatalf("AppendHostAddrs via CNAME: %v", err)
	}
	if len(addrs) != 1 || addrs[0] != miniworld.GovNS1Addr {
		t.Errorf("addrs = %v, want [%v]", addrs, miniworld.GovNS1Addr)
	}
}

func TestResolverUnderPacketLoss(t *testing.T) {
	// Every query flow loses its first two datagrams; retries must still
	// walk to every fixture domain, and each loss is exactly one timeout.
	w := miniworld.Build()
	lossy := chaos.Wrap(w.Net, 9, chaos.Transient(chaos.Drop, 2))
	c := NewClient(lossy)
	c.Timeout = 20 * time.Millisecond
	c.Retries = 4
	ctx := ctxWithTimeout(t)
	for _, domain := range miniworld.Domains() {
		// Fresh iterator so the walk is not served from cache.
		if _, err := NewIterator(c, w.Roots).Delegation(ctx, domain); err != nil {
			t.Errorf("walk to %s failed under transient loss with retries: %v", domain, err)
		}
	}
	dropped := lossy.Stats().Injected[chaos.Drop]
	if dropped == 0 {
		t.Fatal("chaos dropped nothing; the test is vacuous")
	}
	if got := c.Stats().Timeouts; got != dropped {
		t.Errorf("Timeouts = %d, want the %d injected drops", got, dropped)
	}
}

func TestClientStats(t *testing.T) {
	_, c, _ := newFixture(t)
	ctx := ctxWithTimeout(t)
	if _, err := c.QueryArena(ctx, new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS); err != nil {
		t.Fatal(err)
	}
	_, _ = c.QueryArena(ctx, new(dnswire.Arena), miniworld.DeadAddr, "dead.gov.br.", dnswire.TypeNS)
	s := c.Stats()
	if s.Received != 1 {
		t.Errorf("Received = %d, want 1", s.Received)
	}
	// One success + (1 + Retries) timed-out attempts.
	if s.Sent != 1+uint64(1+c.Retries) {
		t.Errorf("Sent = %d, want %d", s.Sent, 1+1+c.Retries)
	}
	if s.Timeouts != uint64(1+c.Retries) {
		t.Errorf("Timeouts = %d, want %d", s.Timeouts, 1+c.Retries)
	}
}

func TestClientRejectsTruncatedResponse(t *testing.T) {
	// A miniworld server that answers every query with the TC bit set.
	w := miniworld.Build()
	tr := w.ChaosProfile(2, map[dnsname.Name][]chaos.Rule{
		"ns1.gov.br.": {chaos.Persistent(chaos.Truncate, 1)},
	})
	c := NewClient(tr)
	c.Timeout = 20 * time.Millisecond
	_, err := c.QueryArena(context.Background(), new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("error = %v, want ErrTruncated", err)
	}
	if tr.Stats().Injected[chaos.Truncate] == 0 {
		t.Error("chaos truncated nothing; the test is vacuous")
	}
	if got := c.Stats().Truncations; got == 0 {
		t.Errorf("client truncation counter = %d, want > 0", got)
	}
}
