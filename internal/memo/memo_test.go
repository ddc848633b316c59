package memo

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// waitingCtx signals on waiting each time Do selects on its Done channel,
// which Do reaches only after it has joined an in-flight computation: a
// test can then release the leader knowing the waiter is already in.
type waitingCtx struct {
	context.Context
	waiting chan<- struct{}
}

func (c waitingCtx) Done() <-chan struct{} {
	c.waiting <- struct{}{}
	return c.Context.Done()
}

// lead starts a leader for key whose fn blocks until release is closed,
// and returns once that fn is running; the leader's result arrives on the
// returned channel.
func lead(tab *Table[string, int], key string, release <-chan struct{}, val int, keep bool, err error) <-chan Outcome {
	started := make(chan struct{})
	out := make(chan Outcome, 1)
	go func() {
		_, how, _ := tab.Do(context.Background(), key, 0, func() (int, bool, error) {
			close(started)
			<-release
			return val, keep, err
		})
		out <- how
	}()
	<-started
	return out
}

func TestTableBoundedWaitFallsBack(t *testing.T) {
	tab := New[string, int](hashString)
	block := make(chan struct{})
	leaderDone := lead(tab, "k.", block, 1, true, nil)

	// A bounded waiter must give up on the stuck leader and run its own
	// fn, without counting as a useful coalesce.
	got, how, err := tab.Do(context.Background(), "k.", 5*time.Millisecond, func() (int, bool, error) { return 2, true, nil })
	if err != nil || got != 2 {
		t.Fatalf("bounded wait fallback = (%d, %v), want (2, nil)", got, err)
	}
	if how != Bypassed {
		t.Errorf("outcome = %d, want Bypassed", how)
	}

	close(block)
	if how := <-leaderDone; how != Led {
		t.Errorf("leader outcome = %d, want Led", how)
	}
	// Only the leader publishes: the bypass's 2 never became the entry.
	if v, ok := tab.Get("k."); !ok || v != 1 {
		t.Errorf("settled = (%d, %v), want (1, true)", v, ok)
	}
}

func TestTableAbandonedWait(t *testing.T) {
	tab := New[string, int](hashString)
	block := make(chan struct{})
	leaderDone := lead(tab, "k.", block, 1, true, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, how, err := tab.Do(ctx, "k.", 0, func() (int, bool, error) { return 2, true, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("abandoned wait error = %v, want wrapped context.Canceled", err)
	}
	if err == nil || !strings.Contains(err.Error(), "abandoned") {
		t.Errorf("abandoned wait error %q does not identify the abandoned wait", err)
	}
	if how != Abandoned {
		t.Errorf("outcome = %d, want Abandoned (the waiter received no result)", how)
	}

	// The leader is unaffected and still publishes.
	close(block)
	<-leaderDone
	if v, ok := tab.Get("k."); !ok || v != 1 {
		t.Errorf("settled after abandoned wait = (%d, %v), want (1, true)", v, ok)
	}
}

func TestTableUnkeptOutcomeReachesEveryWaiter(t *testing.T) {
	tab := New[string, int](hashString)
	release := make(chan struct{})
	boom := errors.New("boom")
	leaderDone := lead(tab, "k.", release, 7, false, boom)

	const waiters = 4
	waiting := make(chan struct{}, waiters)
	ctx := waitingCtx{context.Background(), waiting}
	vals := make([]int, waiters)
	hows := make([]Outcome, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], hows[i], errs[i] = tab.Do(ctx, "k.", 0, func() (int, bool, error) {
				t.Error("a waiter ran fn while the leader was in flight")
				return 0, false, nil
			})
		}()
	}
	for range waiters {
		<-waiting
	}
	close(release)
	wg.Wait()
	<-leaderDone

	for i := range waiters {
		if vals[i] != 7 || hows[i] != Coalesced || !errors.Is(errs[i], boom) {
			t.Errorf("waiter %d = (%d, %d, %v), want (7, Coalesced, boom)", i, vals[i], hows[i], errs[i])
		}
	}
	if tab.Len() != 0 || tab.InFlight("k.") {
		t.Errorf("unkept outcome left an entry: len %d, in flight %v", tab.Len(), tab.InFlight("k."))
	}
	if _, how, _ := tab.Do(context.Background(), "k.", 0, func() (int, bool, error) { return 8, true, nil }); how != Led {
		t.Errorf("next call after an unkept outcome = %d, want Led", how)
	}
}

func TestTableGetSeesOnlySettledSuccess(t *testing.T) {
	tab := New[string, int](hashString)
	release := make(chan struct{})
	leaderDone := lead(tab, "pending.", release, 1, true, nil)
	if _, ok := tab.Get("pending."); ok {
		t.Error("Get returned an entry still in flight")
	}
	close(release)
	<-leaderDone
	if v, ok := tab.Get("pending."); !ok || v != 1 {
		t.Errorf("Get after publish = (%d, %v), want (1, true)", v, ok)
	}

	boom := errors.New("boom")
	tab.Do(context.Background(), "failed.", 0, func() (int, bool, error) { return 0, true, boom })
	if _, ok := tab.Get("failed."); ok {
		t.Error("Get returned a kept failure")
	}
	if _, how, err := tab.Do(context.Background(), "failed.", 0, nil); how != Hit || !errors.Is(err, boom) {
		t.Errorf("Do on a kept failure = (%d, %v), want (Hit, boom)", how, err)
	}
	if _, ok := tab.Get("absent."); ok {
		t.Error("Get returned an absent key")
	}
}

func TestTableEvictAndSweep(t *testing.T) {
	tab := New[string, int](hashString)
	for i, k := range []string{"a.", "b.", "c."} {
		tab.Do(context.Background(), k, 0, func() (int, bool, error) { return i, true, nil })
	}
	stale := func(v int) bool { return v == 0 }
	if tab.Evict("b.", stale) {
		t.Error("Evict removed an entry stale rejected")
	}
	if !tab.Evict("a.", stale) || tab.Evict("a.", stale) {
		t.Error("Evict did not remove a stale entry exactly once")
	}
	if !tab.Evict("b.", func(int) bool { return true }) || tab.Len() != 1 {
		t.Errorf("Evict of a stale entry left len %d, want 1", tab.Len())
	}
}
