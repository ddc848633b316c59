package udpx

import (
	"sync"
	"time"
)

// wheel is the coarse timer wheel that enforces per-query deadlines.
// The dial transport leans on SetReadDeadline, which is per-socket —
// useless once hundreds of exchanges share one socket, where the
// slowest query would dictate everyone's deadline. The wheel gives
// every exchange its own deadline at O(1) arm cost and zero per-query
// timer allocations: a registration is one append into the slot its
// deadline hashes to, and one goroutine sweeps slots at tick
// granularity. A deadline rounds up to the next tick boundary, and a
// tick is swept only once its boundary has passed, so a deadline fires
// up to one tick late and never early — a rounding the scan path is
// insensitive to (resolver retry timeouts are tens of ticks) — in
// exchange for never touching the socket's state, so one blackholed
// server burns only its own queries. Never early matters: a deadline
// taken from the caller's context is reported as that context's
// expiry, which the caller's own clock read must agree with.
//
// Entries carry the waiter's generation; completion races resolve
// through the waiter's packed gen+state CAS (see waiter.go), so a
// stale entry for a delivered — even recycled — waiter is skipped, not
// mis-expired. Delivered waiters' entries are removed lazily at sweep.
type wheel struct {
	tickDur time.Duration
	mask    int64
	slots   []wslot
	start   time.Time
	tk      *time.Ticker // fires on the tick boundaries after start
	t       *BatchTransport

	// expired is the sweep goroutine's private scratch for entries to
	// fail outside the slot lock.
	expired []wentry
}

type wentry struct {
	w    *waiter
	gen  uint32
	tick int64 // absolute tick index the deadline rounds up to
}

type wslot struct {
	mu      sync.Mutex
	entries []wentry
}

// newWheel builds a wheel with the given tick and power-of-two slot
// count. Its ticker starts with its clock, so tick boundaries and
// ticker firings line up; sweeping starts with run.
func newWheel(tick time.Duration, slots int, t *BatchTransport) *wheel {
	if slots&(slots-1) != 0 {
		panic("udpx: wheel slots must be a power of two")
	}
	return &wheel{
		tickDur: tick,
		mask:    int64(slots - 1),
		slots:   make([]wslot, slots),
		start:   time.Now(),
		tk:      time.NewTicker(tick),
		t:       t,
	}
}

// ticks converts an absolute instant to the wheel's tick index,
// rounding up so a deadline never fires early.
func (wh *wheel) ticks(at time.Time) int64 {
	d := at.Sub(wh.start)
	n := int64(d / wh.tickDur)
	if d%wh.tickDur != 0 {
		n++
	}
	return n
}

// elapsed is the number of tick boundaries passed at now, rounding
// down: a slot is swept only once its whole tick has elapsed.
func (wh *wheel) elapsed(now time.Time) int64 {
	return int64(now.Sub(wh.start) / wh.tickDur)
}

// add arms w's deadline: append to the slot its tick lands on. now is
// the caller's already-taken timestamp (the exchange's send instant) —
// arming is on the per-query hot path and must not pay a second clock
// read for the never-early clamp. Safe for concurrent use; O(1)
// amortized and allocation-free once the slot's backing array has
// grown to the workload's high-water mark.
func (wh *wheel) add(w *waiter, gen uint32, deadline, now time.Time) {
	tick := wh.ticks(deadline)
	if cur := wh.ticks(now); tick <= cur {
		tick = cur + 1
	}
	sl := &wh.slots[tick&wh.mask]
	sl.mu.Lock()
	sl.entries = append(sl.entries, wentry{w: w, gen: gen, tick: tick})
	sl.mu.Unlock()
}

// run sweeps the wheel until done closes. Each tick whose boundary has
// passed visits one slot; entries at or past their tick are raced for
// completion (the CAS loser walks away — the exchange was already
// delivered, cancelled, or closed) and the winners are failed outside
// the slot lock. Entries whose tick is still in the future (a full
// wheel revolution away) survive in place.
func (wh *wheel) run(done <-chan struct{}) {
	defer wh.tk.Stop()
	cur := wh.elapsed(time.Now())
	for {
		select {
		case <-done:
			return
		case now := <-wh.tk.C:
			target := wh.elapsed(now)
			for cur < target {
				cur++
				wh.sweep(cur)
			}
		}
	}
}

// sweep processes one slot at tick cur: partition its entries into
// expired (claimed via CAS) and survivors, then fail the expired
// outside the lock. The survivor compaction reuses the backing array;
// the expired list reuses the wheel's scratch.
func (wh *wheel) sweep(cur int64) {
	sl := &wh.slots[cur&wh.mask]
	wh.expired = wh.expired[:0]
	sl.mu.Lock()
	kept := sl.entries[:0]
	for _, e := range sl.entries {
		if e.tick > cur {
			kept = append(kept, e)
			continue
		}
		if e.w.complete(e.gen, stTimedOut) {
			wh.expired = append(wh.expired, e)
		}
		// CAS losers are simply dropped: their exchange completed
		// through another path and the entry is stale.
	}
	// Zero the tail so dropped entries do not pin waiters against GC.
	for i := len(kept); i < len(sl.entries); i++ {
		sl.entries[i] = wentry{}
	}
	sl.entries = kept
	sl.mu.Unlock()
	for _, e := range wh.expired {
		wh.t.expire(e.w, e.gen)
	}
}
