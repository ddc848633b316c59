package resolver

import (
	"net/netip"
	"reflect"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/miniworld"
)

// TestResolveHostReturnsUnaliasedSlice is the regression test for the
// cache-aliasing bug: host resolution used to hand back the cache entry's
// own slice (and, under coalescing, the very slice every flight waiter
// shares), so a caller sorting or overwriting its "result" silently
// corrupted what every later cache hit saw.
func TestResolveHostReturnsUnaliasedSlice(t *testing.T) {
	_, _, it := newFixture(t)
	ctx := ctxWithTimeout(t)

	first, err := it.AppendHostAddrs(ctx, nil, "ns1.city.gov.br.")
	if err != nil || len(first) != 1 {
		t.Fatalf("AppendHostAddrs = %v, %v", first, err)
	}

	// Mutate the returned slice the way a careless caller would.
	bogus := netip.MustParseAddr("203.0.113.99")
	first[0] = bogus

	second, err := it.AppendHostAddrs(ctx, nil, "ns1.city.gov.br.")
	if err != nil {
		t.Fatalf("second AppendHostAddrs: %v", err)
	}
	if len(second) != 1 || second[0] != miniworld.CityNS1Addr {
		t.Errorf("cache hit after caller mutation = %v, want [%v]: returned slice aliases the cache", second, miniworld.CityNS1Addr)
	}
	if len(first) > 0 && len(second) > 0 && &first[0] == &second[0] {
		t.Error("two AppendHostAddrs calls share a backing array")
	}
}

// TestZoneServersCachedAliasing pins the other half of the contract:
// the resolver never mutates a ZoneServers after publishing it. A deep
// snapshot of a delegation's parent-zone view must survive arbitrary
// further traffic through the same zones bit-for-bit.
func TestZoneServersCachedAliasing(t *testing.T) {
	_, _, it := newFixture(t)
	ctx := ctxWithTimeout(t)

	d, err := it.Delegation(ctx, "city.gov.br.")
	if err != nil {
		t.Fatalf("Delegation: %v", err)
	}
	snap := deepCopyZoneServers(&d.Parent)

	// Traffic that revisits gov.br. and its hosts from several angles.
	if _, err := it.Delegation(ctx, "single.gov.br."); err != nil {
		t.Fatalf("Delegation(single): %v", err)
	}
	if _, err := it.AppendHostAddrs(ctx, nil, "ns1.city.gov.br."); err != nil {
		t.Fatalf("AppendHostAddrs: %v", err)
	}
	d2, err := it.Delegation(ctx, "city.gov.br.")
	if err != nil {
		t.Fatalf("second Delegation: %v", err)
	}

	for _, got := range []*ZoneServers{&d.Parent, &d2.Parent} {
		if got.Zone != snap.Zone || !reflect.DeepEqual(got.Hosts, snap.Hosts) || !reflect.DeepEqual(got.Addrs, snap.Addrs) {
			t.Errorf("published ZoneServers changed after further traffic:\n got %+v\nwant %+v", got, snap)
		}
	}
}

func deepCopyZoneServers(zs *ZoneServers) *ZoneServers {
	out := &ZoneServers{
		Zone:  zs.Zone,
		Hosts: append([]dnsname.Name(nil), zs.Hosts...),
		Addrs: make(map[dnsname.Name][]netip.Addr, len(zs.Addrs)),
	}
	for h, addrs := range zs.Addrs {
		out.Addrs[h] = append([]netip.Addr(nil), addrs...)
	}
	return out
}
