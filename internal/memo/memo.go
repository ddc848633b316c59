// Package memo is a sharded table with one entry per key: the settled
// outcome of a computation, or that computation while it is in flight
// (DESIGN.md § 5).
package memo

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Shards is the number of independently locked segments of a Table (and
// of the resolver's address-keyed server table). Scan workers consult the
// resolver's tables on every referral step and a server consults its
// response cache on every query; sharding by key hash keeps them from
// serializing on one mutex.
const Shards = 32

// Outcome reports how a Do call got its result.
type Outcome uint8

const (
	Hit       Outcome = iota // the outcome was settled; fn did not run
	Coalesced                // waited for another caller's computation
	Led                      // ran fn as the key's one computation
	Bypassed                 // ran fn itself instead of waiting
	Abandoned                // ctx ended during the wait
)

// Table maps keys to outcomes (V, error). Create one with New.
type Table[K comparable, V any] struct {
	hash   func(K) uint32
	shards [Shards]struct {
		mu sync.Mutex
		m  map[K]*entry[V]
	}
}

// entry is one key's slot. done is non-nil while the computation is in
// flight and is closed once val and err are final; a leader that keeps
// its outcome clears done under the shard lock, which settles the entry.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty table whose keys hash onto shards with hash.
func New[K comparable, V any](hash func(K) uint32) *Table[K, V] {
	return &Table[K, V]{hash: hash}
}

// lookup returns key's shard, locked, and its entry there (nil if none).
func (t *Table[K, V]) lookup(key K) (*sync.Mutex, map[K]*entry[V], *entry[V]) {
	s := &t.shards[t.hash(key)%Shards]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]*entry[V])
	}
	return &s.mu, s.m, s.m[key]
}

// Do returns key's outcome, computing it with fn at most once across
// concurrent callers, and reports how. fn's bool says whether its outcome
// is kept as key's settled entry; one that is not kept still reaches
// every caller waiting on it and leaves no entry behind.
//
// While another caller's computation is in flight, Do waits for it: as
// long as ctx allows when wait is zero, at most wait when it is
// positive, and not at all when it is negative. Past the bound the
// caller runs fn itself (Bypassed), and that outcome goes to it alone:
// only a leader publishes. When ctx ends first, Do returns an error
// wrapping ctx's (Abandoned); the computation goes on for everyone else.
//
// The table retains key, so it must not alias memory that is reused.
func (t *Table[K, V]) Do(ctx context.Context, key K, wait time.Duration, fn func() (V, bool, error)) (V, Outcome, error) {
	mu, m, e := t.lookup(key)
	if e == nil {
		done := make(chan struct{})
		e = &entry[V]{done: done}
		m[key] = e
		mu.Unlock()

		v, keep, err := fn()
		e.val, e.err = v, err
		mu.Lock()
		if keep {
			e.done = nil
		} else {
			delete(m, key)
		}
		mu.Unlock()
		close(done)
		return v, Led, err
	}
	done := e.done
	mu.Unlock()
	if done == nil {
		return e.val, Hit, e.err
	}
	var bound <-chan time.Time
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		bound = timer.C
	}
	if wait >= 0 {
		select {
		case <-done:
			return e.val, Coalesced, e.err
		case <-ctx.Done():
			var zero V
			return zero, Abandoned, fmt.Errorf("wait for in-flight resolution of %v abandoned: %w", key, ctx.Err())
		case <-bound:
		}
	}
	v, _, err := fn()
	return v, Bypassed, err
}

// Get returns key's settled outcome if it is a success. A computation in
// flight, a kept failure and an absent key all read as absent.
func (t *Table[K, V]) Get(key K) (V, bool) {
	mu, _, e := t.lookup(key)
	defer mu.Unlock()
	if e == nil || e.done != nil || e.err != nil {
		var zero V
		return zero, false
	}
	return e.val, true
}

// InFlight reports whether key's computation is in flight.
func (t *Table[K, V]) InFlight(key K) bool {
	mu, _, e := t.lookup(key)
	defer mu.Unlock()
	return e != nil && e.done != nil
}

// Evict removes key's settled entry if stale reports true for its value,
// and reports whether it did. An entry that replaced the judged one in
// the meantime stays.
func (t *Table[K, V]) Evict(key K, stale func(V) bool) bool {
	mu, _, e := t.lookup(key)
	settled := e != nil && e.done == nil
	mu.Unlock()
	if !settled || !stale(e.val) {
		return false
	}
	mu, m, cur := t.lookup(key)
	defer mu.Unlock()
	if cur == e {
		delete(m, key)
	}
	return cur == e
}

// Len returns the number of settled entries.
func (t *Table[K, V]) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, e := range s.m {
			if e.done == nil {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
