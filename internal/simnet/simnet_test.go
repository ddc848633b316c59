package simnet

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"govdns/internal/authserver"
	"govdns/internal/deadline"
	"govdns/internal/dnswire"
	"govdns/internal/zone"
)

var (
	testAddr  = netip.MustParseAddr("9.0.0.1")
	otherAddr = netip.MustParseAddr("9.0.0.2")
)

func newTestServer(t *testing.T) *authserver.Server {
	t.Helper()
	z := zone.NewBuilder("example.")
	z.MustAdd(dnswire.RR{Name: "example.", Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.SOAData{MName: "ns.example.", RName: "h.example."}})
	z.MustAdd(dnswire.RR{Name: "example.", Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.NSData{Host: "ns.example."}})
	z.MustAdd(dnswire.RR{Name: "www.example.", Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.AData{Addr: netip.MustParseAddr("192.0.2.1")}})
	s := authserver.New("ns.example.")
	s.AddZone(z.Freeze())
	return s
}

func wireQuery(t *testing.T) []byte {
	t.Helper()
	w, err := dnswire.Encode(dnswire.NewQuery(1, "www.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func shortCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

func TestExchangeDelivers(t *testing.T) {
	n := New()
	n.Attach(testAddr, newTestServer(t))
	respWire, err := n.Exchange(shortCtx(t), testAddr, wireQuery(t))
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	resp, err := dnswire.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %d, want 1", len(resp.Answers))
	}
}

func TestExchangeNoRouteTimesOut(t *testing.T) {
	n := New()
	start := time.Now()
	_, err := n.Exchange(shortCtx(t), otherAddr, wireQuery(t))
	if err == nil {
		t.Fatal("Exchange to empty address succeeded")
	}
	if !errors.Is(err, ErrDropped) && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("Exchange returned before the deadline; should block like a UDP timeout")
	}
}

func TestBlackhole(t *testing.T) {
	n := New()
	n.Attach(testAddr, newTestServer(t))
	n.Blackhole(testAddr)
	if !n.IsBlackholed(testAddr) {
		t.Fatal("IsBlackholed = false after Blackhole")
	}
	if _, err := n.Exchange(shortCtx(t), testAddr, wireQuery(t)); err == nil {
		t.Fatal("blackholed exchange succeeded")
	}
	n.Unblackhole(testAddr)
	if _, err := n.Exchange(shortCtx(t), testAddr, wireQuery(t)); err != nil {
		t.Fatalf("Exchange after Unblackhole: %v", err)
	}
}

func TestUnresponsiveServerTimesOut(t *testing.T) {
	n := New()
	s := newTestServer(t)
	s.SetBehavior(authserver.BehaviorUnresponsive)
	n.Attach(testAddr, s)
	if _, err := n.Exchange(shortCtx(t), testAddr, wireQuery(t)); err == nil {
		t.Fatal("unresponsive server produced a response")
	}
}

func TestExchangeHonorsCancelledContext(t *testing.T) {
	n := New()
	n.Attach(testAddr, newTestServer(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Exchange(ctx, testAddr, wireQuery(t)); !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}

// cancelledOnWait is a context that is live when the exchange checks
// it and cancelled by the time the exchange waits on it: a caller
// giving up on a query the network will never answer.
type cancelledOnWait struct {
	context.Context
	checked bool
}

func (c *cancelledOnWait) Err() error {
	if !c.checked {
		c.checked = true
		return nil
	}
	return context.Canceled
}

func (c *cancelledOnWait) Done() <-chan struct{} {
	done := make(chan struct{})
	close(done)
	return done
}

// TestDropErrors pins the error a dropped exchange fails with, by how
// its context ended, byte for byte: the texts reach recorded scan
// results.
func TestDropErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() context.Context
		want string
	}{
		{"attempt deadline", func() context.Context {
			c := deadline.New(context.Background(), time.Hour)
			t.Cleanup(c.Release)
			return c
		}, "simnet: packet dropped: context deadline exceeded"},
		{"caller cancelled", func() context.Context {
			return &cancelledOnWait{Context: context.Background()}
		}, "simnet: packet dropped: context canceled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New()
			n.Attach(testAddr, newTestServer(t))
			n.Blackhole(testAddr)
			_, err := n.Exchange(tc.ctx(), testAddr, wireQuery(t))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
			if !errors.Is(err, ErrDropped) {
				t.Errorf("error %v is not ErrDropped", err)
			}
		})
	}
}
