package resolver

import (
	"net/netip"
	"sync"

	"govdns/internal/dnsname"
)

// cacheShards is the number of independently locked segments in each of
// the iterator's caches. Bulk scans run hundreds of workers that all
// consult the caches on every referral step; sharding by name hash keeps
// them from serializing on a single mutex. 32 shards is far beyond any
// worker count this repo configures while keeping the per-cache footprint
// trivial.
const cacheShards = 32

// shardIndex hashes a name (FNV-1a) onto a shard.
func shardIndex(n dnsname.Name) int {
	h := uint32(2166136261)
	for i := 0; i < len(n); i++ {
		h = (h ^ uint32(n[i])) * 16777619
	}
	return int(h % cacheShards)
}

// hostEntry is one host cache slot: resolved IPv4 addresses, or a
// negative entry recording why the resolution failed (err != nil).
// Keeping the cause lets consumers of a cached failure — in particular
// zone builds deciding whether their own failure is transient — classify
// it instead of seeing an opaque "cached failure".
type hostEntry struct {
	addrs []netip.Addr
	err   error
}

// zoneEntry is one zone cache slot: either a discovered server set or a
// negative entry recording why the zone could not be built (err != nil).
// Negative entries let every domain under a broken intermediate zone fail
// fast instead of re-walking the chain.
type zoneEntry struct {
	zs  *ZoneServers
	err error
}

// nameCache maps names — NS hostnames to hostEntry, zone apexes to
// zoneEntry — in cacheShards independently locked segments.
type nameCache[E any] struct {
	shards [cacheShards]struct {
		mu sync.Mutex
		m  map[dnsname.Name]E
	}
}

func (c *nameCache[E]) get(name dnsname.Name) (E, bool) {
	s := &c.shards[shardIndex(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[name]
	return e, ok
}

func (c *nameCache[E]) put(name dnsname.Name, e E) {
	// Own the key: cache entries outlive any codec arena a caller's name
	// might still be borrowing (a no-op copy for already-owned names).
	name = name.Own()
	s := &c.shards[shardIndex(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[dnsname.Name]E)
	}
	s.m[name] = e
}
