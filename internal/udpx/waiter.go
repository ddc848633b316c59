package udpx

import (
	"net/netip"
	"sync/atomic"
	"time"
)

// Waiter completion states. A waiter's lifecycle is a single packed
// atomic word: generation in the high 32 bits, state in the low 32.
// Completion is one CAS from (gen|stPending) to (gen|outcome) — whoever
// wins owns the cleanup (slot unregister, result send). Packing
// generation and state into one word closes the ABA hole a separate
// gen-check-then-CAS would leave: a receiver or the close sweep that
// copied (waiter, generation) out of a slot before the waiter was
// recycled can never complete the waiter's next life, because the next
// life carries a new generation in the same word the CAS covers.
const (
	stPending uint32 = iota
	stDelivered
	stTimedOut
	stCancelled
	stClosed
)

// wresult is what a completed exchange hands back on the waiter
// channel: a pooled response buffer or an error, never both.
type wresult struct {
	buf []byte
	err error
}

// waiter is one in-flight exchange's rendezvous point. Waiters are
// pooled and reused across generations; ch is buffered (capacity 1) so
// the completing side never blocks, and is drained exactly once per
// generation — either by Exchange or by the cancel path's discard.
type waiter struct {
	ch chan wresult
	// timer is the exchange's deadline, reset by Exchange for each
	// generation and touched by no other goroutine. A pooled waiter's
	// timer is stopped and its channel empty.
	timer *time.Timer

	// sg packs generation (high 32 bits) and state (low 32 bits).
	sg atomic.Uint64

	// Owned by the registering Exchange, written before the slot is
	// filled; the slot's stripe lock publishes them to completers.
	origID uint16
	wireID uint16 // index of the slot held in sock.slots
	sock   *sock
	dest   netip.AddrPort
	sentAt time.Time
	// rttSample marks the 1-in-16 exchanges whose delivery feeds the
	// RTT histogram; the rest skip the clock read.
	rttSample bool
}

func pack(gen, st uint32) uint64 { return uint64(gen)<<32 | uint64(st) }

// nextGen retires the waiter's previous life and arms a new one:
// bump the generation, reset state to pending. Called only by the
// pool-checkout owner, before the waiter is visible to anyone else.
func (w *waiter) nextGen() uint32 {
	gen := uint32(w.sg.Load()>>32) + 1
	w.sg.Store(pack(gen, stPending))
	return gen
}

// complete attempts to move the waiter from (gen, pending) to
// (gen, st). Exactly one completer per generation wins; losers — a
// duplicate datagram, a timer or cancel that lost the race — get false
// and must walk away.
func (w *waiter) complete(gen, st uint32) bool {
	return w.sg.CompareAndSwap(pack(gen, stPending), pack(gen, st))
}

// disarm stops the timer of an exchange that ended without receiving
// from it, so the waiter's next life starts with no stale expiry. The
// module's go 1.22 directive keeps timer channels buffered
// (asynctimerchan=1): a Stop that returns false means the timer has
// fired and its value is in C or on its way there, so the receive
// blocks until it lands rather than leave it to end the next exchange
// early. Under go 1.23's unbuffered timer channels Stop returns false
// only once C has been received from, which no caller of disarm has.
func (w *waiter) disarm() {
	if !w.timer.Stop() {
		<-w.timer.C
	}
}
