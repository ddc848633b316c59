package obs_test

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"govdns/internal/authserver"
	"govdns/internal/chaos"
	"govdns/internal/dnswire"
	"govdns/internal/measure"
	"govdns/internal/miniworld"
	"govdns/internal/obs"
	"govdns/internal/resolver"
	"govdns/internal/trace"
	"govdns/internal/udpx"
)

// attachCase is one component that counts on a registry. build returns
// a fresh component's AttachRegistry, one use of the component, and its
// Stats reading of counter — nil for a component without Stats.
type attachCase struct {
	name    string
	counter string // a series one use bumps
	build   func(t *testing.T) (attach func(*obs.Registry), use func(), stat func() uint64)
}

// cityNSQuery is an NS query for the zone miniworld's CityNS1Addr
// serves.
func cityNSQuery(t *testing.T) []byte {
	t.Helper()
	wire, err := dnswire.Encode(dnswire.NewQuery(1, "city.gov.br.", dnswire.TypeNS))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return wire
}

var attachCases = []attachCase{
	{
		// The iterator is built before anything is attached: it counts
		// on whatever registry its client holds when it counts.
		name:    "resolver",
		counter: "resolver_zone_cache_misses_total",
		build: func(t *testing.T) (func(*obs.Registry), func(), func() uint64) {
			w := miniworld.Build()
			client := resolver.NewClient(w.Net)
			it := resolver.NewIterator(client, w.Roots)
			use := func() {
				if _, err := it.Delegation(context.Background(), "city.gov.br."); err != nil {
					t.Fatalf("Delegation: %v", err)
				}
			}
			return client.AttachRegistry, use, func() uint64 { return it.Stats().ZoneCacheMisses }
		},
	},
	{
		name:    "chaos",
		counter: "chaos_exchanges_total",
		build: func(t *testing.T) (func(*obs.Registry), func(), func() uint64) {
			tr := chaos.Wrap(miniworld.Build().Net, 1)
			wire := cityNSQuery(t)
			use := func() {
				if _, err := tr.Exchange(context.Background(), miniworld.CityNS1Addr, wire); err != nil {
					t.Fatalf("Exchange: %v", err)
				}
			}
			return tr.AttachRegistry, use, func() uint64 { return tr.Stats().Exchanges }
		},
	},
	{
		name:    "pool",
		counter: "dnswire_arena_checkouts_total",
		build: func(t *testing.T) (func(*obs.Registry), func(), func() uint64) {
			p := dnswire.NewPool()
			return p.AttachRegistry, func() { p.Get().Finish() }, func() uint64 { return p.Stats().Checkouts }
		},
	},
	{
		name:    "udpx",
		counter: "udpx_exchanges_total",
		build: func(t *testing.T) (func(*obs.Registry), func(), func() uint64) {
			srv, ok := miniworld.Build().Net.ServerAt(miniworld.CityNS1Addr)
			if !ok {
				t.Fatal("no server at CityNS1Addr")
			}
			us, err := authserver.ListenUDP("127.0.0.1:0", srv)
			if err != nil {
				t.Fatalf("ListenUDP: %v", err)
			}
			t.Cleanup(func() { _ = us.Close() })
			bound, err := netip.ParseAddrPort(us.Addr().String())
			if err != nil {
				t.Fatalf("parse bound addr %s: %v", us.Addr(), err)
			}
			tr, err := udpx.New(udpx.Config{
				Sockets:      1,
				Timeout:      5 * time.Second,
				AddrOverride: map[netip.Addr]netip.AddrPort{miniworld.CityNS1Addr: bound},
			})
			if err != nil {
				t.Fatalf("udpx.New: %v", err)
			}
			t.Cleanup(func() { _ = tr.Close() })
			wire := cityNSQuery(t)
			use := func() {
				resp, err := tr.Exchange(context.Background(), miniworld.CityNS1Addr, wire)
				if err != nil {
					t.Fatalf("Exchange: %v", err)
				}
				tr.ReleaseResponse(resp)
			}
			return tr.AttachRegistry, use, func() uint64 { return tr.Stats().Exchanges }
		},
	},
	{
		name:    "response cache",
		counter: "authserver_cache_misses_total",
		build: func(t *testing.T) (func(*obs.Registry), func(), func() uint64) {
			srv, ok := miniworld.Build().Net.ServerAt(miniworld.CityNS1Addr)
			if !ok {
				t.Fatal("no server at CityNS1Addr")
			}
			c := authserver.NewResponseCache()
			srv.SetCache(c)
			wire := cityNSQuery(t)
			return c.AttachRegistry, func() { srv.HandleWire(wire) }, nil
		},
	},
	{
		name:    "flight recorder",
		counter: "trace_domains_offered_total",
		build: func(t *testing.T) (func(*obs.Registry), func(), func() uint64) {
			f := trace.NewFlightRecorder(trace.Config{})
			use := func() { f.Offer(&trace.DomainTrace{Domain: "a.gov.", Duration: time.Millisecond}) }
			return f.AttachRegistry, use, nil
		},
	},
}

func series(r *obs.Registry) int {
	s := r.Snapshot()
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// TestAttachRegistryOneRule pins the rule every counting component
// follows: AttachRegistry puts the component's instruments on the
// registry it is given, the first registry attached wins, a nil
// registry changes nothing, and a component with Stats counts on a
// private registry when nothing is attached.
func TestAttachRegistryOneRule(t *testing.T) {
	for _, tc := range attachCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("first attach wins", func(t *testing.T) {
				attach, use, stat := tc.build(t)
				a, b := obs.NewRegistry(), obs.NewRegistry()
				attach(a)
				use()
				attach(b)
				got := a.Counter(tc.counter).Load()
				if got == 0 {
					t.Errorf("%s = 0 on the first registry", tc.counter)
				}
				if stat != nil && stat() != got {
					t.Errorf("Stats reads %d, first registry %d", stat(), got)
				}
				if n := series(b); n != 0 {
					t.Errorf("second registry holds %d series, want none", n)
				}
			})
			t.Run("nil changes nothing", func(t *testing.T) {
				attach, use, _ := tc.build(t)
				a := obs.NewRegistry()
				attach(nil)
				attach(a)
				use()
				if a.Counter(tc.counter).Load() == 0 {
					t.Errorf("%s = 0 on the registry attached after nil", tc.counter)
				}
			})
			t.Run("private registry", func(t *testing.T) {
				_, use, stat := tc.build(t)
				if stat == nil {
					return // no Stats, no private registry
				}
				use()
				if stat() == 0 {
					t.Errorf("unattached component counted nothing")
				}
			})
		})
	}
}

// TestAttachRegistryAfterNewIterator attaches the registry after the
// iterator is built and scans the miniworld: every resolver counter on
// the registry must read what the iterator's Stats reads.
func TestAttachRegistryAfterNewIterator(t *testing.T) {
	w := miniworld.Build()
	client := resolver.NewClient(w.Net)
	client.Timeout = 10 * time.Millisecond
	client.Retries = 1
	it := resolver.NewIterator(client, w.Roots)
	reg := obs.NewRegistry()
	client.AttachRegistry(reg)
	measure.NewScanner(it).Scan(context.Background(), miniworld.Domains())

	st := it.Stats()
	if st.HostCacheMisses == 0 || st.ZoneCacheMisses == 0 {
		t.Fatalf("scan missed no host or zone cache: %+v", st)
	}
	want := map[string]uint64{
		"resolver_sent_total":                st.Sent,
		"resolver_received_total":            st.Received,
		"resolver_timeouts_total":            st.Timeouts,
		"resolver_mismatches_total":          st.Mismatches,
		"resolver_duplicates_total":          st.Duplicates,
		"resolver_truncations_total":         st.Truncations,
		"resolver_qid_mismatches_total":      st.QIDMismatches,
		"resolver_question_mismatches_total": st.QuestionMismatches,
		"resolver_malformed_total":           st.Malformed,
		"resolver_host_cache_hits_total":     st.HostCacheHits,
		"resolver_host_cache_misses_total":   st.HostCacheMisses,
		"resolver_zone_cache_hits_total":     st.ZoneCacheHits,
		"resolver_zone_cache_misses_total":   st.ZoneCacheMisses,
		"resolver_negative_hits_total":       st.NegativeHits,
		"resolver_coalesced_waits_total":     st.CoalescedWaits,
		"resolver_flight_bypasses_total":     st.FlightBypasses,
		"resolver_together_groups_total":     st.GroupsAskedTogether,
		"resolver_asked_together_total":      st.AskedTogether,
	}
	got := reg.Snapshot().Counters
	if len(got) != len(want) {
		t.Errorf("registry holds %d counters, want the resolver's %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %d (present %v) on the registry, Stats reads %d", name, g, ok, w)
		}
	}
}
