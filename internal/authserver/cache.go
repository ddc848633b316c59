package authserver

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/memo"
	"govdns/internal/obs"
)

// TransportClass distinguishes the serving transports for cache keying
// and payload-limit policy. UDP answers are bounded by the negotiated
// EDNS0 buffer; TCP answers by the 16-bit length prefix.
type TransportClass uint8

// Transport classes.
const (
	TransportUDP TransportClass = iota
	TransportTCP
)

// String returns the lowercase transport mnemonic.
func (tc TransportClass) String() string {
	if tc == TransportTCP {
		return "tcp"
	}
	return "udp"
}

// cacheKey identifies one cacheable rendered response. Beyond the
// (qname, qtype, transport-class) triple the issue calls for, the key
// folds in the *effective* payload limit and whether the query carried
// an OPT record: two UDP queries advertising different EDNS0 buffers can
// legitimately receive different bytes (different truncation points,
// OPT echo present or absent), so they must not share an entry. Queries
// whose advertised sizes clamp to the same effective limit do share one.
type cacheKey struct {
	name  dnsname.Name
	qtype dnswire.Type
	class TransportClass
	limit uint16
	opt   bool
}

// cacheEntry is a rendered response template: the wire bytes encoded
// with ID zero and the RD bit clear, plus its expiry. A hit copies the
// template and patches the two ID bytes and the RD bit back in — the
// only header state that varies between queries sharing a key. An
// uncacheable render (expires zero) still reaches the renders coalesced
// onto it, but is never kept.
type cacheEntry struct {
	template []byte
	expires  int64 // unixNano
}

// maxCacheTTL caps how long a rendered response may be served, guarding
// against zones authored with absurd TTLs pinning stale data.
const maxCacheTTL = 24 * time.Hour

// ResponseCache is a sharded, singleflight-protected, TTL-aware cache of
// rendered wire responses. It sits between decode and render on the
// serving hot path: a hit costs one shard-map lookup and one template
// copy, with zero allocations once the destination buffer has warmed up.
//
// Entries expire at the minimum TTL of the records in the rendered
// response (OPT pseudo-records excluded — their TTL field is flag
// storage, not a lifetime). Responses carrying no real records (FORMERR,
// REFUSED, NOTIMP) have no defined lifetime
// and are never cached. Expired entries are evicted lazily on lookup,
// and every entry is dropped when a server using the cache replaces one
// of its zones (Server.AddZone).
type ResponseCache struct {
	// t is the current table; purge swaps in an empty one.
	t atomic.Pointer[memo.Table[cacheKey, cacheEntry]]

	// now is the clock, swappable in tests to force expiry.
	now func() time.Time

	metricsOnce sync.Once
	hits        *obs.Counter
	misses      *obs.Counter
	coalesced   *obs.Counter
	evictions   *obs.Counter
}

// NewResponseCache returns an empty cache.
func NewResponseCache() *ResponseCache {
	c := &ResponseCache{now: time.Now}
	c.purge()
	return c
}

// purge drops every entry by swapping in an empty table. A render in
// flight on the old table completes there, unseen: anything that loads
// the table after purge renders again. A caller that purges after
// changing what renders produce — AddZone swaps the zone first — can
// therefore never have a response from before the change served after
// it.
func (c *ResponseCache) purge() {
	c.t.Store(memo.New[cacheKey, cacheEntry](hashKey))
}

// AttachRegistry resolves the cache's counters from r. The first
// registry attached wins, so a cache shared between servers reports to
// one registry; later calls, and a nil r, change nothing. Until then
// the handles are nil and count nothing.
func (c *ResponseCache) AttachRegistry(r *obs.Registry) {
	if r == nil {
		return
	}
	c.metricsOnce.Do(func() {
		c.hits = r.Counter("authserver_cache_hits_total")
		c.misses = r.Counter("authserver_cache_misses_total")
		c.coalesced = r.Counter("authserver_cache_coalesced_total")
		c.evictions = r.Counter("authserver_cache_evictions_total")
	})
}

// hashKey hashes the key's name and folds in the discriminating fields.
func hashKey(k cacheKey) uint32 {
	h := dnsname.Hash(k.name)
	h ^= uint32(k.qtype)<<16 | uint32(k.limit)
	h ^= uint32(k.class) << 8
	if k.opt {
		h ^= 1 << 9
	}
	return h
}

// expiredBy returns the staleness test for entries at time now.
func expiredBy(now int64) func(cacheEntry) bool {
	return func(e cacheEntry) bool { return now >= e.expires }
}

// get returns the live template for k, or nil. An expired entry is
// evicted on the way out.
func (c *ResponseCache) get(k cacheKey) []byte {
	now := c.now().UnixNano()
	t := c.t.Load()
	e, ok := t.Get(k)
	if ok && now < e.expires {
		c.hits.Inc()
		return e.template
	}
	if ok && t.Evict(k, expiredBy(now)) {
		c.evictions.Inc()
	}
	c.misses.Inc()
	return nil
}

// do renders the template for k via render and stores it when render
// reports it cacheable (ttl > 0). Callers invoke do only after get
// missed — get carries the hit/miss accounting — and concurrent callers
// for one key coalesce onto a single render. ok reports whether the
// template was (already) stored.
//
// render must return a heap-owned template (no arena aliasing): the
// bytes outlive the rendering exchange.
func (c *ResponseCache) do(k cacheKey, render func() ([]byte, time.Duration)) (template []byte, ok bool) {
	// Own the key's name before it can enter the table: on the serving
	// path it aliases the decode arena's scratch until this point.
	k.name = k.name.Own()
	// Rendering is local and fast, so a coalesced render always waits:
	// no bound, and no context to abandon it.
	e, how, _ := c.t.Load().Do(context.Background(), k, 0, func() (cacheEntry, bool, error) {
		tmpl, ttl := render()
		if tmpl == nil || ttl <= 0 {
			return cacheEntry{template: tmpl}, false, nil
		}
		return cacheEntry{template: tmpl, expires: c.now().Add(min(ttl, maxCacheTTL)).UnixNano()}, true, nil
	})
	switch how {
	case memo.Hit:
		// Raced with another renderer that already finished.
		c.hits.Inc()
	case memo.Coalesced:
		c.coalesced.Inc()
	}
	return e.template, e.expires != 0
}

// Len returns the number of live entries (expired-but-unswept entries
// included; Len is a diagnostic, not a promise).
func (c *ResponseCache) Len() int { return c.t.Load().Len() }

// minResponseTTL computes the cache lifetime of a rendered response: the
// minimum TTL across all sections, excluding OPT pseudo-records (their
// TTL packs EDNS0 flags, not seconds). A response with no real records
// returns 0, meaning uncacheable.
func minResponseTTL(m *dnswire.Message) time.Duration {
	minTTL := uint32(0)
	seen := false
	scan := func(rrs []dnswire.RR) {
		for _, rr := range rrs {
			if rr.Type() == dnswire.TypeOPT {
				continue
			}
			if !seen || rr.TTL < minTTL {
				minTTL, seen = rr.TTL, true
			}
		}
	}
	scan(m.Answers)
	scan(m.Authority)
	scan(m.Additional)
	if !seen {
		return 0
	}
	return time.Duration(minTTL) * time.Second
}
