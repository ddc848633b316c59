// Package deadline is the resolver's per-attempt context: a deadline
// that costs nothing until something waits on it.
//
// context.WithTimeout arms a runtime timer and registers with its parent
// the moment it is made, which is four heap objects per query attempt
// whether or not anything ever blocks on the result. An attempt answered
// in memory (simnet) never blocks on it, and the batched UDP transport
// enforces ctx.Deadline() on a timer each of its pooled waiters owns,
// so for both the timer is pure overhead. A Context reads the clock and
// its parent in Err and arms the timer and the parent registration only
// when Done is first called on a live context.
//
// New takes its Context from a pool, and Release puts it back unless
// Done armed it. An armed Context stays reachable from its timer and
// from its parent's callback list, and a cancellable context derived
// from a live one arms it, so an armed Context is left to the GC.
// Nothing may use a Context, or a context derived from it, after
// Release.
//
// A simulated transport has a shortcut the real network lacks: an
// exchange it will never answer may end the attempt now with Expire
// instead of waiting out the deadline in wall time, and the attempt
// reads as having lasted its whole own deadline (Expired).
//
// Everything this package does with time goes through now and one
// time.AfterFunc, so a virtual clock has a single place to plug in.
package deadline

import (
	"context"
	"sync"
	"time"
)

// Context is a context.Context that ends at a deadline or with its
// parent, whichever comes first. Make one with New and Release it when
// the attempt it bounds returns.
type Context struct {
	parent context.Context
	at     time.Time // the earlier of the own deadline and the parent's
	own    bool      // the own deadline is the earlier: at is not the parent's

	mu       sync.Mutex
	err      error         // the cause the context ended with; nil while live
	expired  bool          // Expire ended it
	released bool          // Release ran
	done     chan struct{} // made by the first Done, closed when err is set
	timer    *time.Timer   // armed by the first Done on a live context
	stop     func() bool   // the parent registration, armed with timer
}

// pool holds released Contexts that nothing armed.
var pool sync.Pool

// key is the Value key under which a Context answers for itself, so
// Cancel and Expire find it beneath value-only wrappers.
type key struct{}

// now is the package's one clock read.
func now() time.Time { return time.Now() }

// New returns a context that ends timeout from now, or when parent
// ends, whichever comes first.
func New(parent context.Context, timeout time.Duration) *Context {
	c, _ := pool.Get().(*Context)
	if c == nil {
		c = new(Context)
	}
	*c = Context{parent: parent, at: now().Add(timeout), own: true}
	if d, ok := parent.Deadline(); ok && !c.at.Before(d) {
		c.at, c.own = d, false
	}
	return c
}

// Deadline returns the earlier of the context's own deadline and its
// parent's.
func (c *Context) Deadline() (time.Time, bool) { return c.at, true }

// Done returns a channel that closes when the context ends. The first
// call arms the timer and the registration with the parent.
func (c *Context) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil {
		return c.done
	}
	err := c.poll()
	c.done = make(chan struct{})
	if err != nil {
		close(c.done)
		return c.done
	}
	c.timer = time.AfterFunc(c.at.Sub(now()), func() { c.end(context.DeadlineExceeded) })
	if c.parent.Done() != nil {
		c.stop = context.AfterFunc(c.parent, func() { c.end(c.parent.Err()) })
	}
	return c.done
}

// Err returns nil while the context is live. Afterwards it returns the
// parent's error if the parent ended first, else
// context.DeadlineExceeded, and keeps returning the first answer it
// gave.
func (c *Context) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.poll()
}

// Value returns the Context itself for this package's key and defers
// every other key to the parent.
func (c *Context) Value(k any) any {
	if k == (key{}) {
		return c
	}
	return c.parent.Value(k)
}

// Release ends a context still live with context.Canceled, as the
// cancel function of context.WithTimeout does, and frees the timer and
// parent registration if Done armed them. The first Release of a
// context Done never armed recycles it for a later New; a second
// Release does nothing.
func (c *Context) Release() {
	c.mu.Lock()
	if c.released {
		c.mu.Unlock()
		return
	}
	c.released = true
	c.finish(context.Canceled)
	recycle := c.timer == nil && c.stop == nil
	c.mu.Unlock()
	if recycle {
		pool.Put(c)
	}
}

// Expire ends the Context beneath ctx — ctx itself, or the one it wraps
// with no tighter deadline layered between — now with
// context.DeadlineExceeded, as if its deadline had passed, and reports
// whether it did. It does so only where the Context's own deadline
// binds and its parent is live; otherwise it does nothing, and the
// context ends on the clock that binds it: a parent's deadline is the
// parent's to keep. It works whether or not Done was armed, and
// disarms as an ending deadline would.
//
// Only a simulated transport may call Expire, for an exchange it knows
// will never be answered: on a real network the wait is the
// measurement, and ending it early would turn every slow answer into a
// timeout.
func Expire(ctx context.Context) bool {
	c, ok := ctx.Value(key{}).(*Context)
	if !ok || !c.own {
		return false
	}
	if d, _ := ctx.Deadline(); !d.Equal(c.at) {
		return false // a tighter deadline layered above c binds
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || c.parent.Err() != nil {
		return false
	}
	c.expired = true
	c.finish(context.DeadlineExceeded)
	return true
}

// Expired reports whether Expire ended the context. Such an attempt
// lasted its whole own deadline in the simulation's terms, however
// little wall time it took.
func (c *Context) Expired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expired
}

// poll ends the context if its parent has ended or its deadline has
// passed, and returns its error. c.mu is held.
func (c *Context) poll() error {
	if c.err == nil {
		if err := c.parent.Err(); err != nil {
			c.finish(err)
		} else if !now().Before(c.at) {
			c.finish(context.DeadlineExceeded)
		}
	}
	return c.err
}

func (c *Context) end(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finish(err)
}

// finish records err as the cause unless the context already ended,
// closes Done if it was armed, and disarms. c.mu is held.
func (c *Context) finish(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	if c.done == nil {
		return
	}
	close(c.done)
	if c.timer != nil {
		c.timer.Stop()
	}
	if c.stop != nil {
		c.stop()
	}
}

// Cancel returns the channel that closes when the caller behind ctx
// gives up, for a transport that enforces ctx.Deadline() itself and so
// need not wait on the deadline too. When ctx is a Context, or wraps one
// in values only, and nothing has called its Done, that is the parent's
// Done channel, and waiting on it arms no timer. Otherwise it is
// ctx.Done(): anything that derives a cancellable context from a Context
// calls its Done, so a cancellation layered above one is never missed.
func Cancel(ctx context.Context) <-chan struct{} {
	if c, ok := ctx.Value(key{}).(*Context); ok {
		c.mu.Lock()
		armed := c.done != nil
		c.mu.Unlock()
		if !armed {
			return c.parent.Done()
		}
	}
	return ctx.Done()
}
