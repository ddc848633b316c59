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
