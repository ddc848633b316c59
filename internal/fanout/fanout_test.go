package fanout

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id from its stack header
// ("goroutine 17 [running]:").
func goid() string {
	var buf [64]byte
	s := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	return string(s[:bytes.IndexByte(s, ' ')])
}

// ranOn runs n units through Each with cap p and reports, per unit, the
// goroutine it ran on.
func ranOn(n, p int) []string {
	ids := make([]string, n)
	Each(n, p, func(i int) { ids[i] = goid() })
	return ids
}

func allOn(ids []string, id string) bool {
	for _, g := range ids {
		if g != id {
			return false
		}
	}
	return true
}

// TestQuickUnitsRunOnCaller: a batch that finishes inside InlineBudget
// never leaves the calling goroutine. A batch the OS deschedules for
// longer than the budget legitimately escalates, so the test asks for
// one fully inline batch in a few tries; an always-fan-out helper fails
// every try.
func TestQuickUnitsRunOnCaller(t *testing.T) {
	caller := goid()
	for try := 0; try < 20; try++ {
		if ids := ranOn(8, 8); allOn(ids, caller) {
			return
		}
	}
	t.Fatal("quick units ran off the calling goroutine in every try")
}

// TestBlockedUnitEscalates: unit 0 blocks until unit 1 has run. The
// caller claims unit 0 first, so the batch completes only if the
// escalation hands unit 1 to a helper.
func TestBlockedUnitEscalates(t *testing.T) {
	sibling := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Each(2, 2, func(i int) {
			if i == 0 {
				<-sibling
				return
			}
			close(sibling)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a blocked unit's sibling never ran: no escalation")
	}
}

// TestResultsLandByIndex: units finish in a forced order — each waits
// for its predecessor in a random permutation — and every result still
// lands in its own slot.
func TestResultsLandByIndex(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(n)
		finished := make([]chan struct{}, n)
		for i := range finished {
			finished[i] = make(chan struct{})
		}
		wait := make([]chan struct{}, n) // unit -> predecessor's channel
		for k := 1; k < n; k++ {
			wait[order[k]] = finished[order[k-1]]
		}
		got := make([]int, n)
		var completed []int
		completions := make(chan int, n)
		Each(n, n, func(i int) {
			if wait[i] != nil {
				<-wait[i]
			}
			got[i] = i * i
			completions <- i
			close(finished[i])
		})
		close(completions)
		for i := range completions {
			completed = append(completed, i)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("order %v: slot %d = %d, want %d", order, i, v, i*i)
			}
		}
		for k := range order {
			if completed[k] != order[k] {
				t.Fatalf("completion order %v, forced %v", completed, order)
			}
		}
	}
}

// TestCapOfOneStaysOnCaller: p <= 1 runs every unit, in order, on the
// caller and never arms the escalation.
func TestCapOfOneStaysOnCaller(t *testing.T) {
	caller := goid()
	for _, p := range []int{1, 0, -1} {
		if ids := ranOn(5, p); !allOn(ids, caller) {
			t.Errorf("p=%d: units ran on goroutines %v, caller is %s", p, ids, caller)
		}
		var order []int
		Each(5, p, func(i int) { order = append(order, i) })
		for i, v := range order {
			if v != i {
				t.Fatalf("p=%d: units ran in order %v", p, order)
			}
		}
	}
	Each(0, 4, func(int) { t.Fatal("unit run for an empty batch") })
}

// TestWarmEachAllocatesNothing: a batch that finishes inline takes its
// batch and timer from the pool. The gate asks for one zero-allocation
// measurement in a few tries, since a batch the OS deschedules past
// InlineBudget legitimately escalates and starts goroutines.
func TestWarmEachAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	var sink [8]int
	fn := func(i int) { sink[i] = i }
	each := func() { Each(len(sink), 4, fn) }
	each()
	var allocs float64
	for try := 0; try < 5; try++ {
		if allocs = testing.AllocsPerRun(100, each); allocs == 0 {
			return
		}
	}
	t.Fatalf("a warm inline Each allocates %.2f per call, want 0", allocs)
}

// TestRecycledBatchesRunOnlyTheirOwnUnits stresses the batch pool:
// several goroutines call Each back to back, and every batch escalates —
// its unit 0 blocks until all the others have run, which only helpers
// can do while the caller is stuck in unit 0. Every index of every call
// must run exactly once, and no unit may run after its Each returned,
// which is what a recycled batch still running a previous call's fn
// would do.
func TestRecycledBatchesRunOnlyTheirOwnUnits(t *testing.T) {
	const (
		callers = 4
		calls   = 25
		n       = 4
	)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				var ran [n]atomic.Int32
				var returned atomic.Bool
				var others sync.WaitGroup
				others.Add(n - 1)
				Each(n, n, func(i int) {
					if returned.Load() {
						t.Errorf("unit %d ran after its Each returned", i)
					}
					ran[i].Add(1)
					if i == 0 {
						others.Wait()
						return
					}
					others.Done()
				})
				returned.Store(true)
				for i := range ran {
					if k := ran[i].Load(); k != 1 {
						t.Errorf("unit %d ran %d times", i, k)
					}
				}
			}
		}()
	}
	wg.Wait()
}
