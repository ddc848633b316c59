package measure

import (
	"context"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/miniworld"
	"govdns/internal/resolver"
	"govdns/internal/trace"
)

// TestScanSharedProviderResolvesOnce scans many domains that all delegate
// to one provider NS set and verifies — via resolver.Stats — that the
// shared hosts were resolved exactly once for the whole scan, with every
// other request served by the cache or coalesced onto the in-flight
// resolution.
func TestScanSharedProviderResolvesOnce(t *testing.T) {
	w := miniworld.Build()
	hosted := w.AddHostedChildren(12)
	c := resolver.NewClient(w.Net)
	c.Timeout = 20 * time.Millisecond
	c.Retries = 1
	it := resolver.NewIterator(c, w.Roots)
	s := NewScanner(it)
	s.Concurrency = len(hosted)
	// CoalescedWaits counts waits on the zone table too (two walks
	// building provider.com at once); every domain's trace is kept so
	// the flight-wait events can split it by layer.
	s.Trace = trace.NewFlightRecorder(trace.Config{Pinned: len(hosted)})
	s.TracePin = func(*DomainResult) bool { return true }

	results := s.Scan(scanCtx(t), hosted)
	for i, r := range results {
		if !r.Responsive() {
			t.Fatalf("%s not responsive: %+v", hosted[i], r)
		}
	}

	st := it.Stats()
	// The only glue-less hosts in these walks are ns1/ns2.provider.com:
	// exactly one full lookup each, no matter how many domains share them.
	if st.HostCacheMisses != 2 {
		t.Errorf("HostCacheMisses = %d, want 2 (shared provider hosts resolved once)", st.HostCacheMisses)
	}
	waits := map[string]uint64{}
	for _, dt := range s.Trace.Retained() {
		if dt.DroppedSpans > 0 {
			t.Fatalf("%s: %d spans dropped", dt.Domain, dt.DroppedSpans)
		}
		for _, sp := range dt.Spans {
			for _, a := range sp.Attrs {
				if sp.Kind == trace.KindFlightWait && a.Key == "layer" {
					waits[a.Str]++
				}
			}
		}
	}
	if got := waits["host"] + waits["zone"]; got != st.CoalescedWaits {
		t.Errorf("flight-wait events %v sum to %d, CoalescedWaits = %d", waits, got, st.CoalescedWaits)
	}
	// Each of the 12 domains resolves both hosts: 24 requests total, 2 of
	// which did the work; the other 22 hit the cache or coalesced.
	want := uint64(2*len(hosted) - 2)
	if got := st.HostCacheHits + waits["host"]; got != want {
		t.Errorf("host hits+coalesced = %d, want %d", got, want)
	}
}

// TestFanOutPreservesOrdering runs the same scan serially and with the
// full per-domain fan-out and checks that Servers and Addrs come out
// identical: the concurrency must be invisible in the results.
func TestFanOutPreservesOrdering(t *testing.T) {
	scan := func(fanout int) []*DomainResult {
		w := miniworld.Build()
		c := resolver.NewClient(w.Net)
		c.Timeout = 20 * time.Millisecond
		c.Retries = 1
		s := NewScanner(resolver.NewIterator(c, w.Roots))
		s.Concurrency = 4
		s.PerDomainParallelism = fanout
		return s.Scan(scanCtx(t), miniworld.Domains())
	}
	serial := scan(1)
	parallel := scan(DefaultPerDomainParallelism)

	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Domain != b.Domain {
			t.Fatalf("result %d domain mismatch: %s vs %s", i, a.Domain, b.Domain)
		}
		if len(a.Servers) != len(b.Servers) {
			t.Fatalf("%s: server count %d vs %d", a.Domain, len(a.Servers), len(b.Servers))
		}
		for j := range a.Servers {
			sa, sb := &a.Servers[j], &b.Servers[j]
			if sa.Host != sb.Host || sa.Addr != sb.Addr {
				t.Errorf("%s server %d: (%s,%s) vs (%s,%s)",
					a.Domain, j, sa.Host, sa.Addr, sb.Host, sb.Addr)
			}
			if sa.OK != sb.OK || sa.RCode != sb.RCode || sa.Authoritative != sb.Authoritative {
				t.Errorf("%s server %d outcome differs: %+v vs %+v", a.Domain, j, sa, sb)
			}
			if len(sa.NS) != len(sb.NS) {
				t.Errorf("%s server %d NS sets differ", a.Domain, j)
				continue
			}
			for k := range sa.NS {
				if sa.NS[k] != sb.NS[k] {
					t.Errorf("%s server %d NS[%d]: %s vs %s", a.Domain, j, k, sa.NS[k], sb.NS[k])
				}
			}
		}
		if len(a.Addrs) != len(b.Addrs) {
			t.Fatalf("%s: addr list size %d vs %d", a.Domain, len(a.Addrs), len(b.Addrs))
		}
		for j, h := range a.Addrs {
			host, aa, ba := h.Host, h.Addrs, b.Addrs[j].Addrs
			if b.Addrs[j].Host != host || len(aa) != len(ba) {
				t.Errorf("%s: addrs for %s differ: %v vs %v", a.Domain, host, aa, ba)
				continue
			}
			for k := range aa {
				if aa[k] != ba[k] {
					t.Errorf("%s: addrs[%s][%d]: %s vs %s", a.Domain, host, k, aa[k], ba[k])
				}
			}
		}
	}
}

// TestScanCancelledCarriesContextError verifies that unprocessed slots
// report the context's actual error, distinguishing cancel from deadline.
func TestScanCancelledCarriesContextError(t *testing.T) {
	domains := []dnsname.Name{"city.gov.br.", "lame.gov.br."}

	_, s := newScanner(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range s.Scan(ctx, domains) {
		if !strings.Contains(r.Err, context.Canceled.Error()) {
			t.Errorf("cancelled scan Err = %q, want it to mention %q", r.Err, context.Canceled)
		}
	}

	_, s = newScanner(t)
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	for _, r := range s.Scan(dctx, domains) {
		if !strings.Contains(r.Err, context.DeadlineExceeded.Error()) {
			t.Errorf("deadline scan Err = %q, want it to mention %q", r.Err, context.DeadlineExceeded)
		}
	}
}

// cancelAfter cancels a scan from inside: the n-th exchange cancels the
// context while other workers' domains are mid-measurement.
type cancelAfter struct {
	inner  resolver.Transport
	left   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.inner.Exchange(ctx, server, query)
}

// TestScanMidCancelKeepsNoHalfMeasuredDomain: after a mid-scan cancel
// every slot holds either the result the uncancelled scan produces for
// that domain or the wrapped "scan cancelled:" fill — never whatever
// ScanDomain managed to assemble under a dead context.
func TestScanMidCancelKeepsNoHalfMeasuredDomain(t *testing.T) {
	active := streamWorld(t)
	want := scanTuned(t, active.Net, active.Roots, active.QueryList, 8, 2, false, worldDeadline, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelAfter{inner: active.Net, cancel: cancel}
	tr.left.Store(200)
	got := streamScanner(tr, active.Roots, 8, 2).Scan(ctx, active.QueryList)
	assertResultInvariants(t, got)

	measured, filled := 0, 0
	for i, r := range got {
		switch {
		case strings.HasPrefix(r.Err, "scan cancelled: "+context.Canceled.Error()):
			filled++
		case Digest(got[i:i+1]) == Digest(want[i:i+1]):
			measured++
		default:
			t.Errorf("%s: half-measured result kept after cancel (err %q)", r.Domain, r.Err)
		}
	}
	if measured == 0 || filled == 0 {
		t.Fatalf("cancel was not mid-scan: %d measured, %d filled", measured, filled)
	}
}
