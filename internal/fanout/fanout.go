// Package fanout runs a small batch of independent units inline first:
// the caller works through them itself, and helper goroutines start only
// for the units still unclaimed once the batch has run longer than
// InlineBudget (DESIGN.md § 5).
package fanout

import (
	"sync"
	"sync/atomic"
	"time"
)

// InlineBudget is how long a batch runs on its calling goroutine alone.
// It sits far above a warm exchange (~3 µs) and far below an attempt
// timeout (25 ms in the benchmark): a batch still running after it is
// waiting out a timeout, which is what overlapping siblings is for.
const InlineBudget = time.Millisecond

// Each runs fn(i) once for every i in [0,n), at most p at a time; p <= 1
// runs them in order on the caller. Which goroutine runs a unit is
// unspecified, so fn must write its results by index. A warm Each
// allocates nothing: its batch, with the escalation timer the batch
// owns, comes from a pool.
func Each(n, p int, fn func(i int)) {
	if p = min(p, n); p <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	b := batches.Get().(*batch)
	b.n, b.p, b.fn = n, p, fn
	b.next.Store(0)
	// The timer holds a count on wg until it is stopped or has finished
	// starting helpers, so Wait cannot return while it still adds.
	b.wg.Add(1)
	b.timer.Reset(InlineBudget)
	b.run()
	if b.timer.Stop() {
		b.wg.Done()
	}
	// Once Wait returns, neither the timer's func nor a helper can
	// still touch b, so it may serve the next call.
	b.wg.Wait()
	b.fn = nil
	batches.Put(b)
}

type batch struct {
	n     int
	p     int // the cap on goroutines running units, caller included
	fn    func(int)
	next  atomic.Int64 // next unclaimed unit
	wg    sync.WaitGroup
	timer *time.Timer // runs escalate; made once, re-armed per call
}

// batches recycles batches across calls; each is made with its timer
// stopped.
var batches = sync.Pool{New: func() any {
	b := new(batch)
	b.timer = time.AfterFunc(time.Hour, b.escalate)
	b.timer.Stop()
	return b
}}

func (b *batch) run() {
	for i := int(b.next.Add(1)) - 1; i < b.n; i = int(b.next.Add(1)) - 1 {
		b.fn(i)
	}
}

// escalate starts up to p-1 helpers, no more than there are unclaimed
// units, then releases the timer's count.
func (b *batch) escalate() {
	defer b.wg.Done()
	for range min(b.p-1, b.n-int(b.next.Load())) {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.run()
		}()
	}
}
