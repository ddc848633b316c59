package resolver

import (
	"context"
	"encoding/binary"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"govdns/internal/dnswire"
	"govdns/internal/miniworld"
	"govdns/internal/obs"
)

// idTransport records the transaction ID of every query it answers.
type idTransport struct {
	inner Transport

	mu  sync.Mutex
	ids []uint16
}

func (r *idTransport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	resp, err := r.inner.Exchange(ctx, server, query)
	if err == nil {
		r.mu.Lock()
		r.ids = append(r.ids, binary.BigEndian.Uint16(query))
		r.mu.Unlock()
	}
	return resp, err
}

// remembered lists every transaction ID rec's ring currently matches.
func remembered(rec *serverRecord) []uint16 {
	var ids []uint16
	for id := 0; id < 1<<16; id++ {
		if rec.recentlyAccepted(uint16(id)) {
			ids = append(ids, uint16(id))
		}
	}
	return ids
}

// TestServerRecordConcurrent hammers one address from many goroutines:
// the record's counts must sum, and the ring may only ever hold IDs that
// were accepted. Run under -race this also pins the record as lock-free
// shared state.
func TestServerRecordConcurrent(t *testing.T) {
	w := miniworld.Build()
	tr := &idTransport{inner: w.Net}
	c := NewClient(tr)
	reg := obs.NewRegistry()
	c.AttachRegistry(reg)
	ctx := ctxWithTimeout(t)

	const workers, each = 16, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.QueryArena(ctx, new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	rows := c.WorstServers(-1)
	want := ServerStats{Addr: miniworld.GovNS1Addr, OK: workers * each}
	if len(rows) != 1 || rows[0] != want {
		t.Fatalf("WorstServers = %+v, want exactly %+v", rows, want)
	}
	if st := c.Stats(); st.Received != want.OK || st.Timeouts != 0 || st.Mismatches != 0 {
		t.Errorf("Stats = %+v, want the record's sums", st)
	}
	// The table is not mirrored into the registry: the resolver's
	// counter series are the fixed 18, none per address.
	if n := len(reg.Snapshot().Counters); n != 18 {
		t.Errorf("registry holds %d counter series, want the fixed 18", n)
	}
	accepted := make(map[uint16]bool, len(tr.ids))
	for _, id := range tr.ids {
		accepted[id] = true
	}
	ids := remembered(c.servers.lookup(miniworld.GovNS1Addr))
	if len(ids) == 0 || len(ids) > acceptedRing {
		t.Errorf("ring remembers %d IDs, want 1..%d", len(ids), acceptedRing)
	}
	for _, id := range ids {
		if !accepted[id] {
			t.Errorf("ring remembers ID %d, which was never accepted", id)
		}
	}
}

// TestServerRecordRingKeepsLastAccepted: serially, the ring is exactly
// the last acceptedRing accepted IDs — older ones have been overwritten.
func TestServerRecordRingKeepsLastAccepted(t *testing.T) {
	w := miniworld.Build()
	tr := &idTransport{inner: w.Net}
	c := NewClient(tr)
	ctx := ctxWithTimeout(t)
	for i := 0; i < 3*acceptedRing-1; i++ {
		if _, err := c.QueryArena(ctx, new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS); err != nil {
			t.Fatal(err)
		}
	}
	rec := c.servers.lookup(miniworld.GovNS1Addr)
	cut := len(tr.ids) - acceptedRing
	for i, id := range tr.ids {
		if got, want := rec.recentlyAccepted(id), i >= cut; got != want {
			t.Errorf("accepted ID #%d of %d: remembered = %v, want %v", i, len(tr.ids), got, want)
		}
	}
	if ids := remembered(rec); len(ids) != acceptedRing {
		t.Errorf("ring remembers %d IDs, want %d", len(ids), acceptedRing)
	}
}

// TestServerRecordFailureCount: the walk's failure count rises only on
// a walk query that failed, a success resets it, and ranking an address
// never queried reads 0 without creating a record.
func TestServerRecordFailureCount(t *testing.T) {
	w, c, it := newFixture(t)
	ctx := ctxWithTimeout(t)

	if n := c.servers.failures(miniworld.GovNS1Addr); n != 0 {
		t.Errorf("failures of an unseen address = %d, want 0", n)
	}
	if c.servers.lookup(miniworld.GovNS1Addr) != nil || len(c.WorstServers(-1)) != 0 {
		t.Fatal("reading an unseen address created a record")
	}

	w.Net.Blackhole(miniworld.GovNS1Addr)
	if _, err := it.Delegation(ctx, "city.gov.br."); err != nil {
		t.Fatalf("walk with one dead gov.br server: %v", err)
	}
	if n := c.servers.failures(miniworld.GovNS1Addr); n != 1 {
		t.Errorf("failures after one failed walk query = %d, want 1", n)
	}
	if n := c.servers.failures(miniworld.GovNS2Addr); n != 0 {
		t.Errorf("failures of the server that answered = %d, want 0", n)
	}

	// Fixed order asks the recovered first-listed server again.
	w.Net.Unblackhole(miniworld.GovNS1Addr)
	fixed := NewIterator(c, w.Roots)
	fixed.AdaptiveOrder = false
	if _, err := fixed.Delegation(ctx, "single.gov.br."); err != nil {
		t.Fatalf("walk after recovery: %v", err)
	}
	if n := c.servers.failures(miniworld.GovNS1Addr); n != 0 {
		t.Errorf("failures after a success = %d, want 0", n)
	}
	worst := c.WorstServers(1)
	want := ServerStats{Addr: miniworld.GovNS1Addr, OK: 1, Timeouts: uint64(1 + c.Retries)}
	if len(worst) != 1 || worst[0] != want {
		t.Errorf("WorstServers(1) = %+v, want %+v", worst, want)
	}
}

// TestCancelledExchangeIsNotATimeout: a scan cancelled mid-exchange
// (SIGINT, a sink error) must not book a timeout against the server it
// happened to be waiting on.
func TestCancelledExchangeIsNotATimeout(t *testing.T) {
	w := miniworld.Build()
	entered := make(chan struct{})
	tr := &gateTransport{
		inner:   w.Net,
		release: make(chan struct{}), // never released
		hold:    func(*dnswire.Message) bool { close(entered); return true },
	}
	c := NewClient(tr)
	c.Timeout = 5 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	_, err := c.QueryArena(ctx, new(dnswire.Arena), miniworld.GovNS1Addr, "gov.br.", dnswire.TypeNS)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Sent != 1 || st.Timeouts != 0 {
		t.Errorf("Stats = sent %d, timeouts %d; want 1 sent, 0 timeouts", st.Sent, st.Timeouts)
	}
	want := ServerStats{Addr: miniworld.GovNS1Addr}
	if rows := c.WorstServers(-1); len(rows) != 1 || rows[0] != want {
		t.Errorf("WorstServers = %+v, want %+v (queried, no outcome)", rows, want)
	}
}
