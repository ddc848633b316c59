package resolver

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"govdns/internal/memo"
)

// acceptedRing is how many recently accepted transaction IDs are kept
// per server, to tell a late duplicate of a past answer from fresh QID
// corruption.
const acceptedRing = 8

// acceptedValid marks an occupied ring slot: transaction ID 0 is a real
// ID, so a zero slot must not match it.
const acceptedValid = 1 << 16

// serverRecord is everything the resolver keeps about one server
// address: what the address did (the paper's core observable — a lame
// delegation is a server that timed out for a zone), how the walk should
// rank it, and which answers it already gave. Every field is a plain
// atomic, so the exchange path updates a record without any lock.
type serverRecord struct {
	addr netip.Addr

	// Outcome counts, one per attempt outcome; their sums over all
	// records are resolver_received_total, resolver_timeouts_total and
	// resolver_mismatches_total.
	ok, timeouts, rejects atomic.Uint64

	// fails is the walk's consecutive-failure count: incremented only by
	// a walk query (Iterator.try) that failed under a live context,
	// reset by the next one that succeeds.
	fails atomic.Int32

	// accepted holds the last acceptedRing validated transaction IDs
	// (each or-ed with acceptedValid), written round-robin at next.
	accepted [acceptedRing]atomic.Uint32
	next     atomic.Uint32
}

// remember records an accepted transaction ID for duplicate detection.
func (r *serverRecord) remember(id uint16) {
	slot := (r.next.Add(1) - 1) % acceptedRing
	r.accepted[slot].Store(uint32(id) | acceptedValid)
}

// recentlyAccepted reports whether id is one of the last acceptedRing
// transaction IDs this server answered.
func (r *serverRecord) recentlyAccepted(id uint16) bool {
	for i := range r.accepted {
		if r.accepted[i].Load() == uint32(id)|acceptedValid {
			return true
		}
	}
	return false
}

// serverTable is the client's one address-keyed structure, sharded by
// address like the iterator's memo tables are by name. Records are pointer-stable and
// never removed, so a caller looks an address up once and then works on
// the record.
type serverTable struct {
	shards [memo.Shards]struct {
		mu sync.RWMutex
		m  map[netip.Addr]*serverRecord
	}
}

// addrShard hashes an address (FNV-1a over its 16-byte form) onto a shard.
func addrShard(addr netip.Addr) int {
	h := uint32(2166136261)
	for _, b := range addr.As16() {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % memo.Shards)
}

// lookup returns addr's record, or nil for an address never queried. It
// never creates one: ranking candidates must not grow the table.
func (t *serverTable) lookup(addr netip.Addr) *serverRecord {
	s := &t.shards[addrShard(addr)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[addr]
}

// record returns addr's record, creating it on first sight.
func (t *serverTable) record(addr netip.Addr) *serverRecord {
	if r := t.lookup(addr); r != nil {
		return r
	}
	s := &t.shards[addrShard(addr)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.m[addr]; r != nil {
		return r
	}
	if s.m == nil {
		s.m = make(map[netip.Addr]*serverRecord)
	}
	r := &serverRecord{addr: addr}
	s.m[addr] = r
	return r
}

// failures returns addr's consecutive-failure count; an unseen address
// reads as healthy.
func (t *serverTable) failures(addr netip.Addr) int32 {
	if r := t.lookup(addr); r != nil {
		return r.fails.Load()
	}
	return 0
}

// ServerStats is one server address's row of the client's server table.
type ServerStats struct {
	Addr netip.Addr
	// OK counts validated answers, Timeouts attempts that got none
	// under a live context, Rejects responses discarded by validation.
	OK, Timeouts, Rejects uint64
}

// WorstServers returns the n server addresses with the most timeouts,
// ties broken by address; n < 0 returns every address queried so far.
// It is the bounded per-server view: the table itself is never exported
// as metrics, whose series count must not grow with the scan.
func (c *Client) WorstServers(n int) []ServerStats {
	var rows []ServerStats
	for i := range c.servers.shards {
		s := &c.servers.shards[i]
		s.mu.RLock()
		for _, r := range s.m {
			rows = append(rows, ServerStats{
				Addr: r.addr, OK: r.ok.Load(), Timeouts: r.timeouts.Load(), Rejects: r.rejects.Load(),
			})
		}
		s.mu.RUnlock()
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Timeouts != rows[j].Timeouts {
			return rows[i].Timeouts > rows[j].Timeouts
		}
		return rows[i].Addr.Less(rows[j].Addr)
	})
	if n >= 0 && n < len(rows) {
		rows = rows[:n]
	}
	return rows
}
