// Package pdns implements the study's substitute for Farsight's DNSDB: a
// passive-DNS store of record sets keyed by (rrname, rrtype, rdata) with
// first-seen/last-seen timestamps, left-hand wildcard search, time-range
// filtering, and the 7-day stability filter from § III-C of the paper.
//
// The store is populated by the longitudinal world evolver
// (internal/worldgen) and queried by the passive analyses
// (internal/analysis): domain/nameserver growth, single-NS trends, and
// provider adoption over 2011–2020.
//
// A Store holds its record sets in arrival order. Every read is one
// pass over them — matches copied under the read lock, sorted into the
// canonical (owner, type, rdata) order after it is released — and the
// sort is a linear scan when the arrival order already is that order,
// as it is for a store loaded from a dump (WriteJSONL writes sorted;
// ReadJSONL, in jsonl.go, describes the line format it decodes itself
// and what it leaves to encoding/json).
package pdns

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

// Day is a calendar day in UTC, the store's time granularity. Farsight
// timestamps are second-granular, but every analysis in the paper works
// on days.
type Day int32

// DayOf converts a time to its Day.
func DayOf(t time.Time) Day {
	return Day(t.UTC().Unix() / 86400)
}

// Date builds a Day from a calendar date.
func Date(year int, month time.Month, day int) Day {
	return DayOf(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

// Time returns the Day's midnight UTC.
func (d Day) Time() time.Time {
	return time.Unix(int64(d)*86400, 0).UTC()
}

// Year returns the calendar year containing d.
func (d Day) Year() int { return d.Time().Year() }

// String formats the day as YYYY-MM-DD.
func (d Day) String() string { return d.Time().Format("2006-01-02") }

// YearRange returns the first and last Day of a calendar year.
func YearRange(year int) (Day, Day) {
	return Date(year, time.January, 1), Date(year, time.December, 31)
}

// RecordSet is one passive-DNS aggregate: a unique (rrname, rrtype,
// rdata) tuple and the window over which sensors observed it.
type RecordSet struct {
	RRName    dnsname.Name `json:"rrname"`
	RRType    dnswire.Type `json:"rrtype"`
	RData     string       `json:"rdata"`
	FirstSeen Day          `json:"time_first"`
	LastSeen  Day          `json:"time_last"`
	Count     uint64       `json:"count"`
}

// Overlaps reports whether the record's window intersects [from, to].
func (rs *RecordSet) Overlaps(from, to Day) bool {
	return rs.FirstSeen <= to && from <= rs.LastSeen
}

// DurationDays returns the number of days in the observation window
// (inclusive; a record seen once has duration 1).
func (rs *RecordSet) DurationDays() int {
	return int(rs.LastSeen-rs.FirstSeen) + 1
}

// key identifies a record set.
type key struct {
	name  dnsname.Name
	rtype dnswire.Type
	rdata string
}

// Store is the passive-DNS database. It is safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	// sets holds every record set in arrival order: the order keys were
	// first observed, or the line order of a loaded dump. Reads copy in
	// this order and sort afterwards.
	sets []RecordSet
	// index finds a key's slot in sets. It is nil for as long as every
	// key has arrived in strictly ascending compareSets order — such
	// keys are distinct, so nothing needs finding. A store loaded from
	// a WriteJSONL dump, which is written sorted, never builds it
	// unless it is then written to.
	index map[key]int
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{}
}

// merge folds the observations that the record set in describes —
// their key, the window they span and how many they are — into the
// store: into the key's record set, or as a new one at the end of the
// arrival order. The caller holds the write lock or owns the store
// outright.
func (s *Store) merge(in RecordSet) {
	if s.index == nil {
		if n := len(s.sets); n == 0 || compareSets(s.sets[n-1], in) < 0 {
			s.sets = append(s.sets, in)
			return
		}
		s.index = make(map[key]int, len(s.sets))
		for i := range s.sets {
			rs := &s.sets[i]
			s.index[key{name: rs.RRName, rtype: rs.RRType, rdata: rs.RData}] = i
		}
	}
	k := key{name: in.RRName, rtype: in.RRType, rdata: in.RData}
	i, ok := s.index[k]
	if !ok {
		s.index[k] = len(s.sets)
		s.sets = append(s.sets, in)
		return
	}
	rs := &s.sets[i]
	rs.FirstSeen = min(rs.FirstSeen, in.FirstSeen)
	rs.LastSeen = max(rs.LastSeen, in.LastSeen)
	rs.Count += in.Count
}

// ObserveRange records an observation window [from, to] in one call,
// counting one observation per day.
func (s *Store) ObserveRange(name dnsname.Name, rtype dnswire.Type, rdata string, from, to Day) {
	if to < from {
		from, to = to, from
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.merge(RecordSet{RRName: name, RRType: rtype, RData: rdata, FirstSeen: from, LastSeen: to, Count: uint64(to-from) + 1})
}

// Len returns the number of record sets.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sets)
}

// sortOutsideLockHook, when non-nil, runs after a bulk read copies its
// result and releases the store lock, before the sort. Test seam: the
// lock-scope regression tests use it to prove writers are admitted
// while the sort runs.
var sortOutsideLockHook func()

// finishSets is the tail of every bulk read: it runs after the store
// lock is released, because sorting a full snapshot is O(n log n) name
// comparisons — holding even the read lock that long parks every
// ObserveRange writer (and, since a waiting writer blocks later readers,
// eventually the whole store) behind one slow reader. Only the copy
// needs the lock. The copy is in arrival order; when that is already
// the output order (a re-read dump), the sort is one linear pass.
func finishSets(out []RecordSet) []RecordSet {
	if sortOutsideLockHook != nil {
		sortOutsideLockHook()
	}
	slices.SortFunc(out, compareSets)
	return out
}

// compareSets orders record sets by owner name (canonical order), then
// type, then rdata. Keys are unique in a store, so the order is total
// and the sorted result does not depend on the arrival order.
func compareSets(a, b RecordSet) int {
	if c := dnsname.Compare(a.RRName, b.RRName); c != 0 {
		return c
	}
	if c := cmp.Compare(a.RRType, b.RRType); c != 0 {
		return c
	}
	return strings.Compare(a.RData, b.RData)
}

// Lookup returns the record sets for an exact owner name, optionally
// filtered by type (pass 0 or dnswire.TypeANY for all types). Like the
// other reads it scans the whole store, two passes under the read lock:
// the store keeps no index by owner name. That suits its one caller
// outside tests, a single query per pdnsq run; a caller that looks names
// up in a loop should give the store a name index first.
func (s *Store) Lookup(name dnsname.Name, rtype dnswire.Type) []RecordSet {
	return s.search(rtype, func(owner dnsname.Name) bool { return owner == name })
}

// WildcardSearch returns every record set whose owner name is the suffix
// itself or below it — the DNSDB "*.suffix" left-hand wildcard search the
// paper used to expand seed domains. Pass rtype 0 for all types.
func (s *Store) WildcardSearch(suffix dnsname.Name, rtype dnswire.Type) []RecordSet {
	return s.search(rtype, func(owner dnsname.Name) bool { return owner.IsSubdomainOf(suffix) })
}

// search is every read: one pass over the store for the record sets of
// the wanted type and owner, copied in arrival order under the read
// lock and sorted after it is released.
func (s *Store) search(rtype dnswire.Type, owner func(dnsname.Name) bool) []RecordSet {
	match := func(rs *RecordSet) bool {
		return (rtype == 0 || rtype == dnswire.TypeANY || rs.RRType == rtype) && owner(rs.RRName)
	}
	s.mu.RLock()
	n := 0
	for i := range s.sets {
		if match(&s.sets[i]) {
			n++
		}
	}
	var out []RecordSet
	if n > 0 {
		// Sized exactly: a snapshot is one allocation, and a narrow
		// search does not reserve the whole store.
		out = make([]RecordSet, 0, n)
		for i := range s.sets {
			if match(&s.sets[i]) {
				out = append(out, s.sets[i])
			}
		}
	}
	s.mu.RUnlock()
	return finishSets(out)
}

// Snapshot returns a copy of every record set.
func (s *Store) Snapshot() []RecordSet {
	return s.WildcardSearch(dnsname.Root, 0)
}

// View is an immutable filtered slice of a store, the unit the analyses
// consume.
type View struct {
	Sets []RecordSet
}

// NewView wraps record sets in a View.
func NewView(sets []RecordSet) *View {
	return &View{Sets: sets}
}

// StabilityFilterDays is the paper's threshold for separating stable
// records from transient ones: the largest default maximum cache TTL
// among popular resolvers (7 days).
const StabilityFilterDays = 7

// Stable returns a View containing only record sets whose observation
// window spans at least minDays days — § III-C's filter for removing
// transient records (misconfigurations, DDoS-protection flips, expired
// domains). Pass StabilityFilterDays for the paper's setting.
func (v *View) Stable(minDays int) *View {
	out := make([]RecordSet, 0, len(v.Sets))
	for _, rs := range v.Sets {
		if rs.DurationDays() >= minDays {
			out = append(out, rs)
		}
	}
	return &View{Sets: out}
}

// Between returns the record sets active at any point in [from, to].
func (v *View) Between(from, to Day) *View {
	out := make([]RecordSet, 0, len(v.Sets))
	for _, rs := range v.Sets {
		if rs.Overlaps(from, to) {
			out = append(out, rs)
		}
	}
	return &View{Sets: out}
}
