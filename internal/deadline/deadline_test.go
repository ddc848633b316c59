package deadline

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"govdns/internal/trace"
)

// The tests below wait only on the context under test, never on a
// sleep: a deadline a few milliseconds out is reached by blocking on
// Done, and "before the deadline" uses one an hour out.

func TestDoneClosesAtDeadline(t *testing.T) {
	c := New(context.Background(), 5*time.Millisecond)
	defer c.Release()
	at, ok := c.Deadline()
	if !ok {
		t.Fatal("Deadline reports none")
	}
	<-c.Done()
	if now := time.Now(); now.Before(at) {
		t.Fatalf("Done closed %v before the deadline", at.Sub(now))
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Done = %v, want DeadlineExceeded", err)
	}
}

func TestErrBeforeAndAfterDeadline(t *testing.T) {
	live := New(context.Background(), time.Hour)
	defer live.Release()
	if err := live.Err(); err != nil {
		t.Fatalf("Err an hour before the deadline = %v, want nil", err)
	}
	select {
	case <-live.Done():
		t.Fatal("Done closed an hour before the deadline")
	default:
	}

	// Err reads the clock, so an expired deadline shows without anyone
	// having armed Done, and Done then comes back closed.
	past := New(context.Background(), 0)
	defer past.Release()
	if err := past.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err past the deadline = %v, want DeadlineExceeded", err)
	}
	<-past.Done()
}

func TestErrIsParentsWhenParentEndsFirst(t *testing.T) {
	// Unarmed: Err reads the parent.
	parent, cancel := context.WithCancel(context.Background())
	c := New(parent, time.Hour)
	defer c.Release()
	cancel()
	if err := c.Err(); err != context.Canceled {
		t.Fatalf("Err after parent cancel = %v, want Canceled", err)
	}

	// Armed: the parent registration closes Done.
	parent2, cancel2 := context.WithCancel(context.Background())
	c2 := New(parent2, time.Hour)
	defer c2.Release()
	done := c2.Done()
	cancel2()
	<-done
	if err := c2.Err(); err != context.Canceled {
		t.Fatalf("armed Err after parent cancel = %v, want Canceled", err)
	}

	// The first answer sticks: a parent cancelled after the deadline was
	// observed does not rewrite it.
	parent3, cancel3 := context.WithCancel(context.Background())
	c3 := New(parent3, 0)
	defer c3.Release()
	if err := c3.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err = %v, want DeadlineExceeded", err)
	}
	cancel3()
	if err := c3.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err after a later parent cancel = %v, want DeadlineExceeded kept", err)
	}
}

func TestDeadlineIsTheEarlier(t *testing.T) {
	now := time.Now()
	far, cancelFar := context.WithDeadline(context.Background(), now.Add(time.Hour))
	defer cancelFar()
	own := New(far, time.Minute)
	defer own.Release()
	if d, _ := own.Deadline(); !d.Before(now.Add(2 * time.Minute)) {
		t.Fatalf("Deadline %v is not the own one-minute deadline", d.Sub(now))
	}

	near, cancelNear := context.WithDeadline(context.Background(), now.Add(time.Millisecond))
	defer cancelNear()
	inherited := New(near, time.Hour)
	defer inherited.Release()
	pd, _ := near.Deadline()
	if d, _ := inherited.Deadline(); !d.Equal(pd) {
		t.Fatalf("Deadline = %v, want the parent's %v", d, pd)
	}
	<-inherited.Done()
	if err := inherited.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err at the parent's deadline = %v, want DeadlineExceeded", err)
	}
}

func TestStandardDerivationsWork(t *testing.T) {
	// context.AfterFunc fires at the deadline.
	c := New(context.Background(), 2*time.Millisecond)
	defer c.Release()
	fired := make(chan struct{})
	context.AfterFunc(c, func() { close(fired) })
	<-fired

	// WithCancel ends with the deadline...
	wc, cancel := context.WithCancel(New(context.Background(), 2*time.Millisecond))
	defer cancel()
	<-wc.Done()
	if err := wc.Err(); err != context.DeadlineExceeded {
		t.Fatalf("WithCancel child Err = %v, want DeadlineExceeded", err)
	}

	// ...and with its own cancel, which leaves the parent live.
	base := New(context.Background(), time.Hour)
	defer base.Release()
	wc2, cancel2 := context.WithCancel(base)
	cancel2()
	<-wc2.Done()
	if err := wc2.Err(); err != context.Canceled {
		t.Fatalf("cancelled child Err = %v, want Canceled", err)
	}
	if err := base.Err(); err != nil {
		t.Fatalf("parent Err after child cancel = %v, want nil", err)
	}

	// Release behaves as WithTimeout's cancel.
	r := New(context.Background(), time.Hour)
	done := r.Done()
	r.Release()
	<-done
	if err := r.Err(); err != context.Canceled {
		t.Fatalf("Err after Release = %v, want Canceled", err)
	}
}

func TestCancelFindsContextThroughTrace(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := New(parent, time.Hour)
	defer c.Release()
	rec := trace.NewRecorder("example.gov.", 0)
	wrapped, _ := rec.Begin(c, trace.KindAttempt, "attempt 1", nil)

	if got := Cancel(wrapped); got != parent.Done() {
		t.Fatal("Cancel of an unarmed attempt context is not the parent's Done")
	}
	if got := Cancel(parent); got != parent.Done() {
		t.Fatal("Cancel of a plain context is not its Done")
	}
	if Cancel(context.Background()) != nil {
		t.Fatal("Cancel of Background is not nil")
	}

	// A cancellable layer above the attempt context arms it, and Cancel
	// then hands back the full Done so that layer's cancel is seen.
	layered, cancelLayer := context.WithCancel(wrapped)
	defer cancelLayer()
	if got := Cancel(layered); got != layered.Done() {
		t.Fatal("Cancel under a cancellable layer is not the layer's Done")
	}
	cancelLayer()
	<-Cancel(layered)
}

// TestConcurrentUse drives every method from several goroutines at
// once; run it under -race.
func TestConcurrentUse(t *testing.T) {
	for i := 0; i < 50; i++ {
		parent, cancel := context.WithCancel(context.Background())
		c := New(parent, time.Millisecond)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g {
				case 0:
					<-c.Done()
				case 1:
					<-Cancel(c)
					_ = c.Err()
				case 2:
					cancel()
				default:
					c.Release()
				}
			}(g)
		}
		wg.Wait()
		cancel()
		if c.Err() == nil {
			t.Fatal("context live after cancel and Release")
		}
		<-c.Done()
	}
}

func TestExpire(t *testing.T) {
	cases := []struct {
		name string
		// make returns the context Expire is given and the Context
		// beneath it.
		make  func(t *testing.T) (context.Context, *Context)
		armed bool // call Done before Expire
		want  bool
		err   error // Err afterwards
	}{
		{name: "own deadline binds, parent live", want: true, err: context.DeadlineExceeded,
			make: func(t *testing.T) (context.Context, *Context) { c := newLive(t, time.Hour); return c, c }},
		{name: "own deadline binds, armed", armed: true, want: true, err: context.DeadlineExceeded,
			make: func(t *testing.T) (context.Context, *Context) { c := newLive(t, time.Hour); return c, c }},
		{name: "under a trace wrapper", armed: true, want: true, err: context.DeadlineExceeded,
			make: func(t *testing.T) (context.Context, *Context) {
				c := newLive(t, time.Hour)
				wrapped, _ := trace.NewRecorder("example.gov.", 0).Begin(c, trace.KindAttempt, "attempt 1", nil)
				return wrapped, c
			}},
		{name: "parent's deadline binds", want: false,
			make: func(t *testing.T) (context.Context, *Context) {
				parent, cancel := context.WithTimeout(context.Background(), time.Hour)
				t.Cleanup(cancel)
				c := New(parent, 2*time.Hour)
				return c, c
			}},
		{name: "parent's deadline binds, armed", armed: true, want: false,
			make: func(t *testing.T) (context.Context, *Context) {
				parent, cancel := context.WithTimeout(context.Background(), time.Hour)
				t.Cleanup(cancel)
				c := New(parent, 2*time.Hour)
				return c, c
			}},
		{name: "a tighter deadline layered above", want: false,
			make: func(t *testing.T) (context.Context, *Context) {
				c := newLive(t, time.Hour)
				layered, cancel := context.WithTimeout(c, time.Minute)
				t.Cleanup(cancel)
				return layered, c
			}},
		{name: "parent already ended", want: false, err: context.Canceled,
			make: func(t *testing.T) (context.Context, *Context) {
				parent, cancel := context.WithCancel(context.Background())
				c := New(parent, time.Hour)
				cancel()
				return c, c
			}},
		{name: "already released", want: false, err: context.Canceled,
			make: func(t *testing.T) (context.Context, *Context) {
				c := newLive(t, time.Hour)
				c.Release()
				return c, c
			}},
		{name: "already released, armed", armed: true, want: false, err: context.Canceled,
			make: func(t *testing.T) (context.Context, *Context) {
				c := newLive(t, time.Hour)
				c.Release()
				return c, c
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, c := tc.make(t)
			defer c.Release()
			var done <-chan struct{}
			if tc.armed {
				done = c.Done()
			}
			if got := Expire(ctx); got != tc.want {
				t.Fatalf("Expire = %v, want %v", got, tc.want)
			}
			if got := c.Expired(); got != tc.want {
				t.Errorf("Expired = %v, want %v", got, tc.want)
			}
			if err := c.Err(); err != tc.err {
				t.Errorf("Err = %v, want %v", err, tc.err)
			}
			if err := ctx.Err(); err != tc.err && tc.err != nil {
				t.Errorf("the given context's Err = %v, want %v", err, tc.err)
			}
			if Expire(ctx) {
				t.Error("a second Expire ended the context again")
			}
			if done == nil {
				done = c.Done()
			}
			select {
			case <-done:
				if tc.err == nil {
					t.Error("Done closed on a live context")
				}
			default:
				if tc.err != nil {
					t.Error("Done open on an ended context")
				}
			}
			if tc.armed && tc.err != nil {
				// Ending disarmed what Done armed: both were stopped
				// already, so stopping them again reports false.
				c.mu.Lock()
				timer, stop := c.timer, c.stop
				c.mu.Unlock()
				if timer != nil && timer.Stop() {
					t.Error("the deadline timer still armed")
				}
				if stop != nil && stop() {
					t.Error("the parent registration still armed")
				}
			}
		})
	}
	if Expire(context.Background()) {
		t.Error("Expire ended a context that is no Context")
	}
}

// newLive returns a Context under a live, cancellable parent without a
// deadline, so the own deadline binds and Done registers with the
// parent.
func newLive(t *testing.T, timeout time.Duration) *Context {
	parent, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return New(parent, timeout)
}

// TestConcurrentExpire races Expire against Release, Done and the
// parent's cancel; run it under -race. Whoever ends the context first
// decides its error, and nobody ends it twice.
func TestConcurrentExpire(t *testing.T) {
	for i := 0; i < 50; i++ {
		parent, cancel := context.WithCancel(context.Background())
		c := New(parent, time.Hour)
		var expired bool
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g {
				case 0:
					<-c.Done()
				case 1:
					expired = Expire(c)
				case 2:
					if i%2 == 0 {
						cancel()
					}
				default:
					c.Release()
				}
			}(g)
		}
		wg.Wait()
		cancel()
		<-c.Done()
		err := c.Err()
		if expired != (err == context.DeadlineExceeded) || expired != c.Expired() {
			t.Fatalf("Expire reported %v, Expired %v, and Err is %v", expired, c.Expired(), err)
		}
	}
}

// TestArmedNeverRecycled: Release recycles a Context nothing armed, but
// one whose Done started a timer and registered with its parent — or
// that a cancellable child armed — may still be reached through them,
// so New never hands it out again. A second Release recycles nothing.
func TestArmedNeverRecycled(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed := make(map[*Context]bool)
	released := make(map[*Context]bool)
	reused := 0
	for i := 0; i < 200; i++ {
		c := New(parent, time.Hour)
		if armed[c] {
			t.Fatalf("New %d handed out a context armed before its Release", i)
		}
		if released[c] {
			reused++
		}
		released[c] = true
		if err := c.Err(); err != nil {
			t.Fatalf("New %d: Err = %v on a fresh context", i, err)
		}
		switch i % 4 {
		case 0:
			_ = Cancel(c) // the parent's channel: arms nothing
		case 1:
			_ = c.Done()
			armed[c] = true
		case 2:
			_, stop := context.WithCancel(c)
			defer stop()
			armed[c] = true
		}
		c.Release()
		c.Release()
	}
	if reused == 0 {
		t.Error("no released, unarmed context was ever handed out again")
	}

	c := New(parent, time.Hour)
	c.Release()
	c.Release()
	a, b := New(parent, time.Hour), New(parent, time.Hour)
	defer a.Release()
	defer b.Release()
	if a == b {
		t.Error("a context released twice was handed out to two callers")
	}
}
