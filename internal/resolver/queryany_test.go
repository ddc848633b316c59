package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/miniworld"
)

// zoneTransport stands in for one zone's servers. A live server answers
// every query with an A record holding its own address, so the answer
// names the server that gave it; a dead one fails each attempt the way
// a timed-out exchange does, at once. An exchange to a server with a
// gate waits for the gate to close first. Exchanges are counted per
// server, and the transport knows how many are in flight.
type zoneTransport struct {
	dead  map[netip.Addr]bool
	gates map[netip.Addr]chan struct{}
	// entered and left, when non-nil, are told each exchange's server as
	// it starts and just before it returns.
	entered, left chan netip.Addr

	inflight atomic.Int32
	mu       sync.Mutex
	sent     map[netip.Addr]int
}

func newZoneTransport() *zoneTransport {
	return &zoneTransport{
		dead:  map[netip.Addr]bool{},
		gates: map[netip.Addr]chan struct{}{},
		sent:  map[netip.Addr]int{},
	}
}

func (z *zoneTransport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	z.inflight.Add(1)
	defer z.inflight.Add(-1)
	z.mu.Lock()
	z.sent[server]++
	z.mu.Unlock()
	if z.entered != nil {
		z.entered <- server
	}
	if z.left != nil {
		defer func() { z.left <- server }()
	}
	if gate := z.gates[server]; gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if z.dead[server] {
		return nil, context.DeadlineExceeded
	}
	q, err := dnswire.Decode(query)
	if err != nil {
		return nil, err
	}
	resp := dnswire.NewResponse(q)
	resp.Header.Authoritative = true
	resp.Answers = []dnswire.RR{{Name: q.Questions[0].Name, Class: dnswire.ClassIN, TTL: 60, Data: dnswire.AData{Addr: server}}}
	return dnswire.Encode(resp)
}

func (z *zoneTransport) sentTo(addr netip.Addr) int {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.sent[addr]
}

// walkZone is a zone whose i-th host (a.z.example., b.z.example., …)
// has addrs[i], on a client with a private arena pool and attempts that
// never time out on their own: a dead server fails at once, a gated one
// waits for its gate.
func walkZone(t *testing.T, tr Transport, addrs ...netip.Addr) (*Iterator, *ZoneServers, *dnswire.Pool) {
	t.Helper()
	zs := &ZoneServers{Zone: "z.example.", Addrs: map[dnsname.Name][]netip.Addr{}}
	for i, addr := range addrs {
		host := dnsname.MustParse(fmt.Sprintf("%c.z.example.", 'a'+i))
		zs.Hosts = append(zs.Hosts, host)
		zs.Addrs[host] = []netip.Addr{addr}
	}
	pool := dnswire.NewPool()
	c := NewClient(tr)
	c.Timeout = time.Minute
	c.Retries = -1
	c.WirePool = pool
	return NewIterator(c, nil), zs, pool
}

// askZone runs one queryAny against zs and returns the address the
// answer names, releasing whichever arena queryAny handed back.
func askZone(it *Iterator, zs *ZoneServers) (netip.Addr, error) {
	a := it.client.ArenaPool().Get()
	resp, a, err := it.queryAny(context.Background(), a, zs, "www.z.example.", dnswire.TypeA, 0)
	defer a.Finish()
	if err != nil {
		return netip.Addr{}, err
	}
	return resp.Answers[0].Data.(dnswire.AData).Addr, nil
}

// zoneOutcome is what one askZone call returned.
type zoneOutcome struct {
	addr netip.Addr
	err  error
}

// askZoneAsync runs askZone on its own goroutine, for a test that must
// drive the transport's gates while the call is waiting on them.
func askZoneAsync(it *Iterator, zs *ZoneServers) <-chan zoneOutcome {
	done := make(chan zoneOutcome, 1)
	go func() {
		addr, err := askZone(it, zs)
		done <- zoneOutcome{addr, err}
	}()
	return done
}

// suspect books one failure on each address's record, as an earlier
// walk that found them dead would have.
func suspect(it *Iterator, addrs ...netip.Addr) {
	for _, addr := range addrs {
		it.client.servers.record(addr).fails.Store(1)
	}
}

// assertPoolBalanced: every arena checked out of pool came back, to the
// pool or past its retention caps — none was left to the collector.
func assertPoolBalanced(t *testing.T, pool *dnswire.Pool) {
	t.Helper()
	if st := pool.Stats(); st.Checkouts != st.Recycles+st.Discards {
		t.Errorf("pool: %d checkouts, %d recycles + %d discards; an arena was not finished",
			st.Checkouts, st.Recycles, st.Discards)
	}
}

// receive takes n values from ch, failing the test if they stop coming.
func receive(t *testing.T, ch <-chan netip.Addr, n int) []netip.Addr {
	t.Helper()
	var got []netip.Addr
	for len(got) < n {
		select {
		case addr := <-ch:
			got = append(got, addr)
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d exchanges reported", len(got), n)
		}
	}
	return got
}

var (
	zoneAddr1 = netip.MustParseAddr("10.0.0.1")
	zoneAddr2 = netip.MustParseAddr("10.0.0.2")
	zoneAddr3 = netip.MustParseAddr("10.0.0.3")
)

// TestQueryAnyCleanFirstCandidateOneExchange: the healthy walk asks its
// first candidate alone and is done after one exchange.
func TestQueryAnyCleanFirstCandidateOneExchange(t *testing.T) {
	tr := newZoneTransport()
	it, zs, pool := walkZone(t, tr, zoneAddr1, zoneAddr2, zoneAddr3)
	got, err := askZone(it, zs)
	if err != nil || got != zoneAddr1 {
		t.Fatalf("queryAny = %v, %v; want the answer of %v", got, err, zoneAddr1)
	}
	if sent := it.client.Stats().Sent; sent != 1 {
		t.Errorf("sent %d exchanges, want 1", sent)
	}
	assertPoolBalanced(t, pool)
}

// TestQueryAnyAsksSharedAddressOnce: three NS hosts on one dead address
// are one candidate, so each queryAny sends it 1+Retries exchanges —
// the first call asking it alone, the second (its record now suspect)
// through the group path.
func TestQueryAnyAsksSharedAddressOnce(t *testing.T) {
	tr := newZoneTransport()
	tr.dead[zoneAddr1] = true
	it, zs, pool := walkZone(t, tr, zoneAddr1, zoneAddr1, zoneAddr1)
	it.client.Retries = 1
	for call := 1; call <= 2; call++ {
		if _, err := askZone(it, zs); !errors.Is(err, ErrTimeout) {
			t.Fatalf("call %d: err = %v, want ErrTimeout", call, err)
		}
		if got, want := tr.sentTo(zoneAddr1), call*(1+it.client.Retries); got != want {
			t.Errorf("after call %d: %d exchanges to %v, want %d", call, got, zoneAddr1, want)
		}
	}
	assertPoolBalanced(t, pool)
}

// TestQueryAnyAsksSuspectsTogether: once the records say the zone's
// servers are failing, all of them are in flight at the same time —
// none has timed out, none has returned — and the call still waits for
// every one before it returns, with each outcome booked.
func TestQueryAnyAsksSuspectsTogether(t *testing.T) {
	tr := newZoneTransport()
	tr.entered = make(chan netip.Addr, 3)
	addrs := []netip.Addr{zoneAddr1, zoneAddr2, zoneAddr3}
	for _, addr := range addrs {
		tr.gates[addr] = make(chan struct{})
	}
	tr.dead[zoneAddr1] = true
	it, zs, pool := walkZone(t, tr, addrs...)
	suspect(it, addrs...)

	done := askZoneAsync(it, zs)
	receive(t, tr.entered, 3)
	if n := tr.inflight.Load(); n != 3 {
		t.Errorf("%d exchanges in flight once all three started, want 3", n)
	}
	if st := it.client.Stats(); st.Timeouts != 0 || st.Received != 0 {
		t.Errorf("before any release: %d timeouts, %d answers; want none", st.Timeouts, st.Received)
	}
	for _, addr := range addrs {
		close(tr.gates[addr])
	}
	got := <-done
	if got.err != nil || got.addr != zoneAddr2 {
		t.Fatalf("queryAny = %v, %v; want the answer of %v, the first live candidate", got.addr, got.err, zoneAddr2)
	}
	if n := tr.inflight.Load(); n != 0 {
		t.Errorf("%d exchanges still in flight after queryAny returned", n)
	}
	for addr, want := range map[netip.Addr]int32{zoneAddr1: 2, zoneAddr2: 0, zoneAddr3: 0} {
		if got := it.client.servers.failures(addr); got != want {
			t.Errorf("failures of %v = %d after the group, want %d", addr, got, want)
		}
	}
	assertPoolBalanced(t, pool)
}

// TestQueryAnyKeepsLowestIndexAnswer: suspect servers that all answer,
// released last candidate first, still yield the lowest-index
// candidate's answer — the one the one-by-one loop returns — whether
// that is the caller's own candidate or a helper's.
func TestQueryAnyKeepsLowestIndexAnswer(t *testing.T) {
	addrs := []netip.Addr{zoneAddr1, zoneAddr2, zoneAddr3}
	for _, tc := range []struct {
		dead []netip.Addr
		want netip.Addr
	}{
		{nil, zoneAddr1},
		{[]netip.Addr{zoneAddr1}, zoneAddr2},
	} {
		t.Run(fmt.Sprintf("dead=%v", tc.dead), func(t *testing.T) {
			tr := newZoneTransport()
			tr.left = make(chan netip.Addr, 3)
			for _, addr := range addrs {
				tr.gates[addr] = make(chan struct{})
			}
			for _, addr := range tc.dead {
				tr.dead[addr] = true
			}
			it, zs, pool := walkZone(t, tr, addrs...)
			suspect(it, addrs...)

			done := askZoneAsync(it, zs)
			for i := len(addrs) - 1; i >= 0; i-- {
				close(tr.gates[addrs[i]])
				if got := receive(t, tr.left, 1)[0]; got != addrs[i] {
					t.Fatalf("exchange to %v returned, want %v", got, addrs[i])
				}
			}
			got := <-done
			if got.err != nil || got.addr != tc.want {
				t.Errorf("queryAny = %v, %v; want the answer of %v", got.addr, got.err, tc.want)
			}
			if n := tr.inflight.Load(); n != 0 {
				t.Errorf("%d exchanges still in flight after queryAny returned", n)
			}
			assertPoolBalanced(t, pool)
		})
	}
}

// TestQueryAnyAllFailCanonicalError: when every candidate of a group
// fails, the error is the lowest address's, not the first candidate's.
func TestQueryAnyAllFailCanonicalError(t *testing.T) {
	tr := newZoneTransport()
	addrs := []netip.Addr{zoneAddr3, zoneAddr2, zoneAddr1}
	for _, addr := range addrs {
		tr.dead[addr] = true
	}
	it, zs, pool := walkZone(t, tr, addrs...)
	suspect(it, addrs...)
	_, err := askZone(it, zs)
	if !errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), "@"+zoneAddr1.String()) {
		t.Errorf("err = %v, want the timeout of %v", err, zoneAddr1)
	}
	for _, addr := range addrs {
		if n := tr.sentTo(addr); n != 1 {
			t.Errorf("%d exchanges to %v, want 1", n, addr)
		}
	}
	assertPoolBalanced(t, pool)
}

// TestGroupedWalksBalancePool: delegation walks over a world whose
// first gov.br server is dead — asked alone, then, once suspect, with
// its sibling, whose helper arena then carries the answer out — return
// every arena they check out of a private pool.
func TestGroupedWalksBalancePool(t *testing.T) {
	w := miniworld.Build()
	w.Net.Blackhole(miniworld.GovNS1Addr)
	pool := dnswire.NewPool()
	c := NewClient(w.Net)
	c.Timeout = 20 * time.Millisecond
	c.Retries = -1
	c.WirePool = pool
	it := NewIterator(c, w.Roots)
	it.AdaptiveOrder = false // keep the dead server first, so later walks group
	for _, name := range []dnsname.Name{"city.gov.br.", "single.gov.br.", "lame.gov.br."} {
		if _, err := it.Delegation(ctxWithTimeout(t), name); err != nil {
			t.Fatalf("Delegation(%s): %v", name, err)
		}
	}
	if n := c.servers.failures(miniworld.GovNS1Addr); n != 3 {
		t.Errorf("dead server booked %d failures over three walks, want 3", n)
	}
	assertPoolBalanced(t, pool)
}
