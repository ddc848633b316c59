package resolver

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/miniworld"
)

// slowTransport delays every exchange, keeping resolutions in flight long
// enough for concurrent callers to pile onto the singleflight entry.
type slowTransport struct {
	inner Transport
	delay time.Duration
}

func (s *slowTransport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return s.inner.Exchange(ctx, server, query)
}

func TestResolveHostSingleflight(t *testing.T) {
	w := miniworld.Build()
	c := NewClient(&slowTransport{inner: w.Net, delay: 20 * time.Millisecond})
	c.Timeout = 500 * time.Millisecond
	c.Retries = 1
	it := NewIterator(c, w.Roots)
	ctx := ctxWithTimeout(t)

	const callers = 16
	addrs := make([][]netip.Addr, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addrs[i], errs[i] = it.AppendHostAddrs(ctx, nil, "ns1.provider.com.")
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(addrs[i]) != 1 || addrs[i][0] != miniworld.ProviderNS1Addr {
			t.Errorf("caller %d got %v", i, addrs[i])
		}
	}

	st := it.Stats()
	if st.HostCacheMisses != 1 {
		t.Errorf("HostCacheMisses = %d, want 1 (one shared lookup)", st.HostCacheMisses)
	}
	// Every other caller either joined the in-flight resolution or, if it
	// arrived after completion, hit the cache.
	if got := st.HostCacheHits + st.CoalescedWaits; got != callers-1 {
		t.Errorf("hits+coalesced = %d, want %d", got, callers-1)
	}
	if st.CoalescedWaits == 0 {
		t.Error("no caller coalesced despite a 20ms-per-query transport")
	}
}

func TestNegativeZoneCaching(t *testing.T) {
	w, c, it := newFixture(t)
	children := w.BreakIntermediateZone(2)
	ctx := ctxWithTimeout(t)

	if _, err := it.Delegation(ctx, children[0]); !errors.Is(err, ErrNoServers) {
		t.Fatalf("first walk: err = %v, want ErrNoServers", err)
	}
	st1 := it.Stats()
	sent1 := c.Stats().Sent

	// The second child sits under the same broken zone: the cached
	// negative entry must answer without another build or extra queries
	// beyond the parent referral itself.
	if _, err := it.Delegation(ctx, children[1]); !errors.Is(err, ErrNoServers) {
		t.Fatalf("second walk: err = %v, want ErrNoServers", err)
	}
	st2 := it.Stats()

	if st2.ZoneCacheMisses != st1.ZoneCacheMisses {
		t.Errorf("second walk rebuilt the broken zone: misses %d -> %d",
			st1.ZoneCacheMisses, st2.ZoneCacheMisses)
	}
	if st2.NegativeHits <= st1.NegativeHits {
		t.Errorf("negative hits did not grow: %d -> %d", st1.NegativeHits, st2.NegativeHits)
	}
	// One referral query to reach the cached failure; no re-walk of
	// gone-provider.com.
	if extra := c.Stats().Sent - sent1; extra > 2 {
		t.Errorf("second walk sent %d queries, want <= 2", extra)
	}
}

func TestIteratorStatsCounters(t *testing.T) {
	_, _, it := newFixture(t)
	ctx := ctxWithTimeout(t)

	if _, err := it.AppendHostAddrs(ctx, nil, "ns1.provider.com."); err != nil {
		t.Fatalf("first resolve: %v", err)
	}
	if _, err := it.AppendHostAddrs(ctx, nil, "ns1.provider.com."); err != nil {
		t.Fatalf("second resolve: %v", err)
	}
	if _, err := it.AppendHostAddrs(ctx, nil, "ns.gone-provider.com."); err == nil {
		t.Fatal("dangling host resolved")
	}
	if _, err := it.AppendHostAddrs(ctx, nil, "ns.gone-provider.com."); err == nil {
		t.Fatal("dangling host resolved from cache")
	}

	st := it.Stats()
	if st.HostCacheMisses != 2 {
		t.Errorf("HostCacheMisses = %d, want 2", st.HostCacheMisses)
	}
	if st.HostCacheHits != 1 {
		t.Errorf("HostCacheHits = %d, want 1", st.HostCacheHits)
	}
	if st.NegativeHits != 1 {
		t.Errorf("NegativeHits = %d, want 1", st.NegativeHits)
	}
	if st.ZoneCacheMisses == 0 {
		t.Error("no zone builds recorded")
	}
	if st.Sent == 0 || st.Received == 0 {
		t.Errorf("client counters missing from iterator stats: %+v", st)
	}
}

// TestConcurrentWalksShareZones drives many concurrent delegation walks
// under one parent and checks the zone chain was built exactly once per
// zone — the stampede the singleflight layer exists to prevent.
func TestConcurrentWalksShareZones(t *testing.T) {
	w := miniworld.Build()
	hosted := w.AddHostedChildren(8)
	c := NewClient(&slowTransport{inner: w.Net, delay: 5 * time.Millisecond})
	c.Timeout = 500 * time.Millisecond
	c.Retries = 1
	it := NewIterator(c, w.Roots)
	ctx := ctxWithTimeout(t)

	var wg sync.WaitGroup
	errs := make([]error, len(hosted))
	for i, name := range hosted {
		wg.Add(1)
		go func(i int, name dnsname.Name) {
			defer wg.Done()
			_, errs[i] = it.Delegation(ctx, name)
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("walk %d: %v", i, err)
		}
	}

	// br. and gov.br. are the only zones those walks build.
	if st := it.Stats(); st.ZoneCacheMisses != 2 {
		t.Errorf("ZoneCacheMisses = %d, want 2 (br., gov.br.)", st.ZoneCacheMisses)
	}
}

// gateTransport holds queries matching hold until release is closed (or
// the query's context ends), passing everything else straight through.
type gateTransport struct {
	inner   Transport
	release chan struct{}
	hold    func(q *dnswire.Message) bool
}

func (g *gateTransport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	if q, err := dnswire.Decode(query); err == nil && g.hold(q) {
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.inner.Exchange(ctx, server, query)
}

// TestCrossFlightCycleDoesNotDeadlock reproduces the host-flight ↔
// zone-flight wait cycle: goroutine A leads the host flight for a
// glue-less in-bailiwick NS host and walks into the host's own zone,
// while goroutine B leads that zone's flight and resolves the host.
// Without bounded flight waits both block on each other forever (plus
// every caller coalesced behind them); with them, one side bypasses its
// wait, fails at the depth limit — the delegation is genuinely circular
// and unresolvable — and unwinds the other.
func TestCrossFlightCycleDoesNotDeadlock(t *testing.T) {
	w := miniworld.Build()
	zoneName, host, child := w.AddGluelessZone()
	gate := make(chan struct{})
	tr := &gateTransport{
		inner:   w.Net,
		release: gate,
		hold: func(q *dnswire.Message) bool {
			return len(q.Questions) > 0 && q.Questions[0].Name == host && q.Questions[0].Type == dnswire.TypeA
		},
	}
	c := NewClient(tr)
	c.Timeout = 300 * time.Millisecond
	c.Retries = -1 // single attempt, so the flight-wait bound stays small
	it := NewIterator(c, w.Roots)
	ctx := ctxWithTimeout(t)

	busy := func(check func() bool, what string) {
		t.Helper()
		for i := 0; i < 2000; i++ {
			if check() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("%s never became in-flight", what)
	}

	done := make(chan error, 2)
	// A: leads the host flight; its first query is gated so it cannot
	// populate the cache before B is wedged into the cycle.
	go func() {
		_, err := it.AppendHostAddrs(ctx, nil, host)
		done <- err
	}()
	busy(func() bool { return it.hosts.InFlight(host) }, "host flight")

	// B: walks to the child, leads the zone flight, and joins A's host
	// flight from inside the zone build.
	go func() {
		_, err := it.Delegation(ctx, child)
		done <- err
	}()
	busy(func() bool { return it.zones.InFlight(zoneName) }, "zone flight")
	time.Sleep(20 * time.Millisecond) // let B reach the host-flight join
	close(gate)                       // A now walks into B's zone flight

	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Error("resolution through a circular glue-less delegation unexpectedly succeeded")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cross-flight deadlock: resolution never completed")
		}
	}
	if st := it.Stats(); st.FlightBypasses == 0 {
		t.Error("FlightBypasses = 0, want > 0 (someone must break the host/zone wait cycle)")
	}
}

// TestTransientZoneFailureNotNegativeCached checks that a zone build
// that failed only because of query timeouts is re-attempted by the next
// walk instead of being replayed from the negative cache — the second
// scan round exists to rule out exactly such transient failures.
func TestTransientZoneFailureNotNegativeCached(t *testing.T) {
	w, _, it := newFixture(t)
	children := w.BreakIntermediateZoneTransient(2)
	ctx := ctxWithTimeout(t)

	_, err := it.Delegation(ctx, children[0])
	if !errors.Is(err, ErrNoServers) {
		t.Fatalf("first walk: err = %v, want ErrNoServers", err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("first walk: err = %v, should carry the ErrTimeout cause", err)
	}
	st1 := it.Stats()

	// The second child triggers a fresh build of the flaky zone (a zone
	// cache miss, not a negative hit) — even though the dead host's own
	// failure is served from the host cache, whose stored cause keeps the
	// rebuild classified as transient too.
	_, err = it.Delegation(ctx, children[1])
	if !errors.Is(err, ErrNoServers) {
		t.Fatalf("second walk: err = %v, want ErrNoServers", err)
	}
	st2 := it.Stats()
	if st2.ZoneCacheMisses <= st1.ZoneCacheMisses {
		t.Errorf("timeout-rooted zone failure was negative-cached: misses %d -> %d",
			st1.ZoneCacheMisses, st2.ZoneCacheMisses)
	}
}

// TestFlightWaitSeesEveryEnclosingMark: a chain's marks nest, and
// flightWait finds a key marked anywhere above it — through the
// innermost mark and through value layers between marks, as a trace
// scope puts there — so a chain re-entering its own computation runs it
// at once instead of waiting on itself. A chain with no mark waits
// without a bound; one leading another key's computation waits a
// bounded time.
func TestFlightWaitSeesEveryEnclosingMark(t *testing.T) {
	w := miniworld.Build()
	it := NewIterator(NewClient(w.Net), w.Roots)
	type layerKey struct{}
	ctx := context.Background()
	if got := it.flightWait(ctx, 'z', "gov.br."); got != 0 {
		t.Fatalf("unmarked chain: wait %v, want 0", got)
	}
	ctx = markInFlight(ctx, 'z', "gov.br.")
	ctx = context.WithValue(ctx, layerKey{}, 1)
	ctx = markInFlight(ctx, 'h', "ns1.gov.br.")
	for _, tc := range []struct {
		kind byte
		name dnsname.Name
		self bool
	}{
		{'z', "gov.br.", true},
		{'h', "ns1.gov.br.", true},
		{'h', "gov.br.", false},
		{'z', "ns1.gov.br.", false},
		{'z', "city.gov.br.", false},
	} {
		got := it.flightWait(ctx, tc.kind, tc.name)
		if tc.self != (got < 0) || got == 0 {
			t.Errorf("flightWait(%c, %s) = %v, want self=%v and a bounded wait otherwise", tc.kind, tc.name, got, tc.self)
		}
	}
	if ctx.Value(layerKey{}) != 1 {
		t.Error("a mark hid a value layered below it")
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { it.flightWait(ctx, 'z', "gov.br.") }); allocs != 0 {
			t.Errorf("flightWait allocates %v, want 0", allocs)
		}
	}
}
