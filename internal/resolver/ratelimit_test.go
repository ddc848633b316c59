package resolver

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govdns/internal/chaos"
	"govdns/internal/dnswire"
	"govdns/internal/miniworld"
)

func TestRateLimitPacesQueries(t *testing.T) {
	w := miniworld.Build()
	limited := RateLimit(w.Net, 100, 1) // 100 qps, no burst headroom
	c := NewClient(limited)
	c.Timeout = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	start := time.Now()
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := c.QueryArena(ctx, new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// 12 queries at 100 qps need >= ~110ms (first is free).
	if elapsed < 100*time.Millisecond {
		t.Errorf("%d queries in %v; rate limit not applied", n, elapsed)
	}
}

func TestRateLimitBurst(t *testing.T) {
	w := miniworld.Build()
	limited := RateLimit(w.Net, 10, 8) // slow rate but a burst allowance
	c := NewClient(limited)
	c.Timeout = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	start := time.Now()
	for i := 0; i < 8; i++ {
		if _, err := c.QueryArena(ctx, new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("burst of 8 took %v; burst allowance not honoured", elapsed)
	}
}

func TestRateLimitZeroDisables(t *testing.T) {
	w := miniworld.Build()
	if got := RateLimit(w.Net, 0, 5); got != Transport(w.Net) {
		t.Error("qps <= 0 should return the transport unchanged")
	}
}

func TestRateLimitHonoursCancellation(t *testing.T) {
	w := miniworld.Build()
	limited := RateLimit(w.Net, 0.5, 1) // one query per 2s
	c := NewClient(limited)
	c.Timeout = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	// First query consumes the token; the second must give up on ctx.
	_, _ = c.QueryArena(ctx, new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS)
	start := time.Now()
	_, err := c.QueryArena(ctx, new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS)
	if err == nil {
		t.Fatal("second query succeeded despite exhausted context")
	}
	if time.Since(start) > time.Second {
		t.Error("cancelled wait did not return promptly")
	}
}

// TestRateLimitRefundsCancelledWaiters is the regression test for the
// lost-reservation bug: a waiter that reserved a token by going into
// debt and was then ctx-cancelled never spent its reservation, but the
// debt stayed on the bucket, so every cancelled waiter permanently
// pushed real traffic one interval further into the future. After a
// burst of cancellations, steady-state throughput must come straight
// back to the configured rate.
func TestRateLimitRefundsCancelledWaiters(t *testing.T) {
	const qps = 200.0 // 5ms interval
	limited := RateLimit(nopTransport{}, qps, 1).(*rateLimited)
	interval := limited.interval

	// Consume the single burst token so every later waiter reserves debt.
	if err := limited.wait(context.Background()); err != nil {
		t.Fatalf("priming wait: %v", err)
	}

	// Pile up cancelled waiters. Each reserves a token and must refund
	// it on the ctx.Done() path.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 50
	for i := 0; i < n; i++ {
		if err := limited.wait(cancelled); err == nil {
			t.Fatal("cancelled waiter was admitted")
		}
	}

	// Steady state: k paced waits should take about k intervals. Without
	// the refund the n dead reservations add n intervals (~250ms) of
	// debt in front of them.
	const k = 5
	start := time.Now()
	for i := 0; i < k; i++ {
		if err := limited.wait(context.Background()); err != nil {
			t.Fatalf("post-cancel wait %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	if max := time.Duration(3*k) * interval; elapsed > max {
		t.Errorf("%d waits after %d cancellations took %v (> %v); reservations not refunded", k, n, elapsed, max)
	}
	// The refund must not mint tokens either: the waits stay paced.
	if min := time.Duration(k-2) * interval; elapsed < min {
		t.Errorf("%d waits took only %v (< %v); refund over-credited the bucket", k, elapsed, min)
	}
}

// nopTransport satisfies Transport without doing anything; tests that
// exercise the limiter's wait path directly never reach it.
type nopTransport struct{}

func (nopTransport) Exchange(context.Context, netip.Addr, []byte) ([]byte, error) {
	return nil, nil
}

// admissionCounter counts how many exchanges the rate limiter lets
// through to the transport beneath it.
type admissionCounter struct {
	inner Transport
	n     atomic.Int64
}

func (a *admissionCounter) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	a.n.Add(1)
	return a.inner.Exchange(ctx, server, query)
}

// TestRateLimitUnderConcurrentChaos hammers the limiter from many
// goroutines through a chaotic transport — duplicated responses, delay
// spikes, and short per-call deadlines that abandon waits mid-flight —
// and checks the token-bucket bound: admissions can never exceed
// burst + qps×elapsed, no matter how clients misbehave. Abandoned waits
// refund their reservation, but must never mint tokens beyond it.
func TestRateLimitUnderConcurrentChaos(t *testing.T) {
	w := miniworld.Build()
	tr := chaos.Wrap(w.Net, 11,
		chaos.Persistent(chaos.Duplicate, 0.3),
		chaos.DelaySpike(5*time.Millisecond, 0.5),
	)
	counted := &admissionCounter{inner: tr}
	const (
		qps   = 500.0
		burst = 20
	)
	limited := RateLimit(counted, qps, burst)

	const goroutines = 8
	const perG = 25
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				wire, err := dnswire.Encode(dnswire.NewQuery(uint16(g*perG+i), "gov.br.", dnswire.TypeNS))
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				_, _ = limited.Exchange(ctx, miniworld.GovNS1Addr, wire)
				cancel()
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	admitted := counted.n.Load()
	if admitted == 0 {
		t.Fatal("no exchanges admitted; the test is vacuous")
	}
	if tr.Stats().Total() == 0 {
		t.Fatal("chaos injected nothing; the test is vacuous")
	}
	// elapsed is measured past the last admission, so the bound needs no
	// slack beyond one token of measurement skew.
	bound := float64(burst) + qps*elapsed.Seconds() + 1
	if float64(admitted) > bound {
		t.Errorf("limiter over-admitted: %d exchanges in %v exceeds burst %d + %.0f qps (bound %.1f)",
			admitted, elapsed, burst, qps, bound)
	}
}
