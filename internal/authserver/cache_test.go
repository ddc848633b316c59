package authserver

import (
	"bytes"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govdns/internal/dnswire"
	"govdns/internal/obs"
	"govdns/internal/zone"
)

// TestCacheDropsReplacedZone: replacing a hosted zone, as SyncZone does
// on every re-sync, must not leave the replaced zone's answers in the
// response cache until their TTLs run out. The same query, well within
// the cached answer's TTL, returns the new zone's bytes — the bytes an
// uncached server hosting the new zone renders.
func TestCacheDropsReplacedZone(t *testing.T) {
	s, c, reg := cacheTestServer(t, nil)
	wire, err := dnswire.Encode(query("www.gov.br.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	old := s.HandleWire(wire)
	if again := s.HandleWire(wire); !bytes.Equal(again, old) || reg.Counter("authserver_cache_hits_total").Load() != 1 {
		t.Fatal("the answer was not served from the cache before the replacement")
	}

	changed := wwwZone(t, "192.0.2.81")
	s.AddZone(changed)
	if c.Len() != 0 {
		t.Errorf("%d entries survived the zone's replacement", c.Len())
	}

	twin := New("ns1.gov.br.")
	twin.AddZone(changed)
	want := twin.HandleWire(wire)
	if bytes.Equal(want, old) {
		t.Fatal("the replaced zone answers as the old one did; the test is vacuous")
	}
	if got := s.HandleWire(wire); !bytes.Equal(got, want) {
		t.Errorf("after the replacement the cached server answers\n%x\nan uncached one hosting the new zone\n%x", got, want)
	}
	if got := s.HandleWire(wire); !bytes.Equal(got, want) {
		t.Errorf("the new answer's cached copy differs from the uncached render")
	}
}

// wwwZone is testZone with www.gov.br. pointing at addr.
func wwwZone(t *testing.T, addr string) *zone.Zone {
	t.Helper()
	z := testZoneBuilder(t)
	z.Remove("www.gov.br.", dnswire.TypeA)
	z.MustAdd(dnswire.RR{Name: "www.gov.br.", Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.AData{Addr: netip.MustParseAddr(addr)}})
	return z.Freeze()
}

// TestCacheReplaceZoneWhileServing races zone replacements against
// cached queries (the race detector checks the table swap): once the
// last replacement has returned, the cache serves the last zone
// installed, byte-equal to an uncached server's answer, whatever the
// renders in flight during the swaps stored.
func TestCacheReplaceZoneWhileServing(t *testing.T) {
	s, _, _ := cacheTestServer(t, nil)
	wire, err := dnswire.Encode(query("www.gov.br.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	zones := []*zone.Zone{wwwZone(t, "192.0.2.81"), wwwZone(t, "192.0.2.82"), wwwZone(t, "192.0.2.83")}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s.HandleWire(wire) == nil {
					t.Error("query dropped")
					return
				}
			}
		}()
	}
	const swaps = 300
	for i := range swaps {
		s.AddZone(zones[i%len(zones)])
	}
	close(stop)
	wg.Wait()

	twin := New("ns1.gov.br.")
	twin.AddZone(zones[(swaps-1)%len(zones)])
	if got, want := s.HandleWire(wire), twin.HandleWire(wire); !bytes.Equal(got, want) {
		t.Errorf("after the last replacement the cached server answers\n%x\nan uncached one hosting the last zone\n%x", got, want)
	}
}

// fakeClock drives a ResponseCache's notion of time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func cacheTestServer(t *testing.T, clk *fakeClock) (*Server, *ResponseCache, *obs.Registry) {
	t.Helper()
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	c := NewResponseCache()
	if clk != nil {
		c.now = clk.Now
	}
	reg := obs.NewRegistry()
	c.AttachRegistry(reg)
	s.SetCache(c)
	return s, c, reg
}

func TestCacheTTLExpiry(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1700000000, 0)}
	s, c, reg := cacheTestServer(t, clk)

	wire, err := dnswire.Encode(query("www.gov.br.", dnswire.TypeA)) // 300s TTL record
	if err != nil {
		t.Fatal(err)
	}
	first := s.HandleWire(wire)
	if c.Len() != 1 {
		t.Fatalf("entries after first query = %d, want 1", c.Len())
	}
	_ = s.HandleWire(wire)
	if got := reg.Counter("authserver_cache_hits_total").Load(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}

	clk.Advance(299 * time.Second)
	_ = s.HandleWire(wire)
	if got := reg.Counter("authserver_cache_hits_total").Load(); got != 2 {
		t.Errorf("hits within TTL = %d, want 2", got)
	}

	clk.Advance(2 * time.Second) // past the 300s record TTL
	again := s.HandleWire(wire)
	if got := reg.Counter("authserver_cache_evictions_total").Load(); got != 1 {
		t.Errorf("evictions after expiry = %d, want 1", got)
	}
	if got := reg.Counter("authserver_cache_hits_total").Load(); got != 2 {
		t.Errorf("hits after expiry = %d, want still 2", got)
	}
	// Expiry must be invisible in the bytes.
	if string(first) != string(again) {
		t.Error("re-rendered response differs from the expired entry's bytes")
	}
}

func TestCacheUncacheableResponses(t *testing.T) {
	s, c, _ := cacheTestServer(t, nil)
	// REFUSED for an unhosted zone carries no records, so no TTL, so no
	// entry — but the response must still be served.
	wire, err := dnswire.Encode(query("example.com.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	resp := s.HandleWire(wire)
	m, err := dnswire.Decode(resp)
	if err != nil || m.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("unhosted query: %v / %v", m, err)
	}
	if c.Len() != 0 {
		t.Errorf("record-less REFUSED response was cached (%d entries)", c.Len())
	}
}

func TestCacheSingleflightCoalesces(t *testing.T) {
	s, c, reg := cacheTestServer(t, nil)

	// Gate the render so concurrent misses pile onto one flight: the
	// first renderer blocks until all workers have arrived.
	const workers = 8
	arrived := make(chan struct{}, workers)
	release := make(chan struct{})
	var renders atomic.Int32
	key := cacheKey{name: "www.gov.br.", qtype: dnswire.TypeA, class: TransportUDP, limit: 512}

	var wg sync.WaitGroup
	results := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			tmpl, ok := c.do(key, func() ([]byte, time.Duration) {
				renders.Add(1)
				<-release
				return []byte{0xCA, 0xFE, 0x01}, time.Minute
			})
			if !ok {
				t.Errorf("worker %d: do reported uncacheable", i)
			}
			results[i] = tmpl
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-arrived
	}
	// All workers are at or past the flight gate; let the winner render.
	close(release)
	wg.Wait()

	if got := renders.Load(); got != 1 {
		t.Errorf("renders = %d, want 1 (singleflight)", got)
	}
	for i, r := range results {
		if string(r) != "\xca\xfe\x01" {
			t.Errorf("worker %d got template % x", i, r)
		}
	}
	// Every non-winner either joined the flight (coalesced) or arrived
	// after the store and took the raced-hit path; both are accounted.
	co := reg.Counter("authserver_cache_coalesced_total").Load()
	hits := reg.Counter("authserver_cache_hits_total").Load()
	if co+hits != workers-1 {
		t.Errorf("coalesced+hits = %d+%d, want %d", co, hits, workers-1)
	}
	_ = s
}

func TestCacheKeyDiscriminates(t *testing.T) {
	s, c, _ := cacheTestServer(t, nil)
	s.SetEDNSBufSize(4096)

	mk := func(edns uint16) []byte {
		q := query("www.gov.br.", dnswire.TypeA)
		if edns > 0 {
			q.Additional = append(q.Additional, dnswire.OPTRecord(edns))
		}
		wire, err := dnswire.Encode(q)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	_ = s.HandleWire(mk(0))    // udp/512/no-opt
	_ = s.HandleWire(mk(1232)) // udp/1232/opt
	_ = s.HandleWire(mk(4096)) // udp/4096/opt
	_ = s.HandleWire(mk(8192)) // clamps to 4096/opt: shares the entry above
	if got := c.Len(); got != 3 {
		t.Errorf("distinct entries = %d, want 3 (8192 clamps onto 4096)", got)
	}
}
