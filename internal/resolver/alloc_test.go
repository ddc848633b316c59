package resolver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"govdns/internal/authserver"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/miniworld"
	"govdns/internal/udpx"
)

// TestQueryArenaAllocsPerAttempt is the client's allocation gate: a
// warm QueryArena answered on its first attempt allocates nothing more
// than its transport's bare Exchange of the same query, over simnet and
// over a loopback udpx.BatchTransport — the attempt's deadline context
// is recycled, and the response buffer goes back to the transport that
// lent it. AllocsPerRun counts process-wide, so the subtraction also
// removes whatever the transport and the server behind it allocate;
// over simnet that is nothing either, once warm.
func TestQueryArenaAllocsPerAttempt(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	w := miniworld.Build()
	srv, ok := w.Net.ServerAt(miniworld.CityNS1Addr)
	if !ok {
		t.Fatal("no server at the city zone's first nameserver")
	}
	us, err := authserver.ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { _ = us.Close() })
	bound, err := netip.ParseAddrPort(us.Addr().String())
	if err != nil {
		t.Fatalf("parse bound addr %s: %v", us.Addr(), err)
	}
	batch, err := udpx.New(udpx.Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{miniworld.CityNS1Addr: bound},
	})
	if err != nil {
		t.Fatalf("udpx.New: %v", err)
	}
	t.Cleanup(func() { _ = batch.Close() })

	for _, tc := range []struct {
		name string
		tr   Transport
	}{
		{"simnet", w.Net},
		{"udpx", batch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const name = dnsname.Name("city.gov.br.")
			ctx := context.Background()
			c := NewClient(tc.tr)
			c.Timeout = time.Second
			a := c.ArenaPool().Get()
			defer a.Finish()
			wire, err := dnswire.Encode(dnswire.NewQuery(1, name, dnswire.TypeNS))
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			releaser, _ := tc.tr.(ResponseReleaser)
			bare := func() {
				resp, err := tc.tr.Exchange(ctx, miniworld.CityNS1Addr, wire)
				if err != nil {
					t.Fatalf("bare exchange: %v", err)
				}
				if releaser != nil {
					releaser.ReleaseResponse(resp)
				}
			}
			query := func() {
				if _, tr, err := c.QueryArenaTraced(ctx, a, miniworld.CityNS1Addr, name, dnswire.TypeNS); err != nil || tr.Attempts != 1 {
					t.Fatalf("query: %v after %d attempts", err, tr.Attempts)
				}
			}
			// Warm every pool.
			for i := 0; i < 300; i++ {
				bare()
				query()
			}
			base := testing.AllocsPerRun(200, bare)
			got := testing.AllocsPerRun(200, query)
			t.Logf("QueryArena %.2f allocs per attempt, bare Exchange %.2f", got, base)
			if tc.name == "simnet" && base != 0 {
				t.Errorf("a warm simnet Exchange and ReleaseResponse allocate %.2f, want 0", base)
			}
			if got-base > 0 {
				t.Fatalf("QueryArena allocates %.2f per attempt, its transport %.2f: the client adds %.2f, want 0",
					got, base, got-base)
			}
		})
	}
}
