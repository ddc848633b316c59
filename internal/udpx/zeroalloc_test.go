package udpx

import (
	"context"
	"net/netip"
	"testing"
	"time"
)

// TestBatchExchangeZeroAlloc is the steady-state allocation gate for
// the batch exchange hot path: once the pools (waiters with their
// timers, send requests, receive buffers) have warmed to the workload's
// high-water marks, an Exchange + ReleaseResponse round trip must not
// allocate. AllocsPerRun counts process-wide mallocs, so the gate only
// holds because every background party — the sender and receiver
// loops, the echo responder — is itself allocation-free on its steady
// path.
func TestBatchExchangeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	echo := startUDP(t, echoLoop)
	tr := newTest(t, Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: echo},
		Timeout:      250 * time.Millisecond,
	})
	ctx := context.Background()
	q := testQuery(7, 7)
	exchange := func() {
		resp, err := tr.Exchange(ctx, srvIP, q)
		if err != nil {
			t.Fatalf("exchange: %v", err)
		}
		tr.ReleaseResponse(resp)
	}
	for i := 0; i < 500; i++ {
		exchange()
	}
	if avg := testing.AllocsPerRun(200, exchange); avg != 0 {
		t.Fatalf("batch exchange steady state allocates %.2f allocs/op, want 0", avg)
	}
}
