package udpx

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govdns/internal/deadline"
	"govdns/internal/pktbuf"
	"govdns/internal/trace"
)

// srvIP is the nominal (simulated-topology) server address tests query;
// AddrOverride routes it to whatever loopback socket a test stands up,
// the same pattern the e2e serving suite uses.
var srvIP = netip.MustParseAddr("192.0.2.10")

// startUDP binds a loopback UDP socket, runs handler over it until the
// socket closes, and returns the bound address.
func startUDP(t testing.TB, handler func(*net.UDPConn)) netip.AddrPort {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("bind responder: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	go handler(conn)
	return conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// echoLoop answers every datagram with its own bytes — transaction ID
// preserved, which is all the demux layer needs from a peer. The loop
// is deliberately allocation-free so the zero-alloc gate can run it in
// the background.
func echoLoop(conn *net.UDPConn) {
	var buf [pktbuf.Size]byte
	for {
		n, src, err := conn.ReadFromUDPAddrPort(buf[:])
		if err != nil {
			return
		}
		_, _ = conn.WriteToUDPAddrPort(buf[:n], src)
	}
}

// blackholeLoop consumes datagrams and never answers.
func blackholeLoop(conn *net.UDPConn) {
	var buf [pktbuf.Size]byte
	for {
		if _, _, err := conn.ReadFromUDPAddrPort(buf[:]); err != nil {
			return
		}
	}
}

func newTest(t testing.TB, cfg Config) *BatchTransport {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// testQuery builds a minimal 16-byte datagram: caller transaction ID in
// the header slot, the QR bit set so an echo of it reads as an answer,
// and a nonce in the payload so responses can be matched to the
// exchange that sent them.
func testQuery(id uint16, nonce uint32) []byte {
	q := make([]byte, 16)
	binary.BigEndian.PutUint16(q, id)
	q[2] = 0x80
	binary.BigEndian.PutUint32(q[12:], nonce)
	return q
}

// TestBatchExchangeEcho runs a concurrent exchange storm against an
// echo server on both I/O paths and checks every response comes back on
// the exchange that sent its query, with the caller's transaction ID
// restored — the demux table, QID rewriting, and buffer pooling all in
// one pass.
func TestBatchExchangeEcho(t *testing.T) {
	for _, portable := range []bool{false, true} {
		name := "os"
		if portable {
			name = "portable"
		}
		t.Run(name, func(t *testing.T) {
			echo := startUDP(t, echoLoop)
			tr := newTest(t, Config{
				AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: echo},
				Portable:     portable,
			})
			const workers, perWorker = 32, 50
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						// Deliberately colliding caller IDs: every worker
						// uses the same ones, so only the transport's own
						// per-socket allocation keeps the wire sane.
						id := uint16(i)
						nonce := uint32(g)<<16 | uint32(i)
						q := testQuery(id, nonce)
						resp, err := tr.Exchange(context.Background(), srvIP, q)
						if err != nil {
							errs <- fmt.Errorf("worker %d query %d: %v", g, i, err)
							return
						}
						if got := binary.BigEndian.Uint16(resp); got != id {
							errs <- fmt.Errorf("worker %d query %d: transaction ID %d, want %d", g, i, got, id)
							return
						}
						if got := binary.BigEndian.Uint32(resp[12:]); got != nonce {
							errs <- fmt.Errorf("worker %d query %d: nonce %#x, want %#x (cross-delivered response)", g, i, got, nonce)
							return
						}
						tr.ReleaseResponse(resp)
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if n := tr.pending(); n != 0 {
				t.Errorf("demux table holds %d entries after all exchanges returned", n)
			}
			st := tr.Stats()
			if st.Exchanges != workers*perWorker {
				t.Errorf("Exchanges = %d, want %d", st.Exchanges, workers*perWorker)
			}
			if !portable && osBatchSupported && st.SyscallsSaved == 0 {
				t.Errorf("OS batch path saved no syscalls across %d concurrent exchanges", workers*perWorker)
			}
		})
	}
}

// TestQIDExhaustion pins the loud-failure contract: the 65537th
// concurrent reservation on one socket must fail with ErrQIDExhausted,
// not silently reuse a live ID.
func TestQIDExhaustion(t *testing.T) {
	tr := newTest(t, Config{Sockets: 2})
	dest := netip.MustParseAddrPort("192.0.2.1:53")
	for i := 0; i < maxInflightPerSock; i++ {
		w, gen := tr.getWaiter()
		if err := tr.reserve(tr.socks[0], dest, w, gen); err != nil {
			t.Fatalf("reservation %d failed early: %v", i, err)
		}
	}
	w, gen := tr.getWaiter()
	if err := tr.reserve(tr.socks[0], dest, w, gen); !errors.Is(err, ErrQIDExhausted) {
		t.Fatalf("reservation %d: err = %v, want ErrQIDExhausted", maxInflightPerSock, err)
	}
	if n := tr.pending(); n != maxInflightPerSock {
		t.Fatalf("table holds %d entries, want %d", n, maxInflightPerSock)
	}
	// The pool's other socket still has a free ID space.
	w2, gen2 := tr.getWaiter()
	if err := tr.reserve(tr.socks[1], dest, w2, gen2); err != nil {
		t.Fatalf("other socket refused: %v", err)
	}
}

// TestResponseOnWrongSocketOrSourceIsAMiss pins what a datagram is
// matched on: the socket it arrived on, its transaction ID, and its
// source address. A decoy carrying a live exchange's ID but a different
// payload — sent from another address, or sent by the real server to a
// pool socket other than the one the query left from — must count as a
// demux miss, and the exchange must still complete with the real
// answer, which the responder holds back until the miss has registered.
func TestResponseOnWrongSocketOrSourceIsAMiss(t *testing.T) {
	for _, wrongSocket := range []bool{false, true} {
		name := "source"
		if wrongSocket {
			name = "socket"
		}
		t.Run(name, func(t *testing.T) {
			other, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatalf("bind decoy sender: %v", err)
			}
			defer other.Close()
			trCh := make(chan *BatchTransport, 1)
			srv := startUDP(t, func(conn *net.UDPConn) {
				tr := <-trCh
				var buf [pktbuf.Size]byte
				n, src, err := conn.ReadFromUDPAddrPort(buf[:])
				if err != nil {
					return
				}
				decoy := append([]byte(nil), buf[:n]...)
				binary.BigEndian.PutUint32(decoy[12:], 0xdeadbeef)
				if wrongSocket {
					for _, s := range tr.socks {
						if port := s.conn.LocalAddr().(*net.UDPAddr).AddrPort().Port(); port != src.Port() {
							_, _ = conn.WriteToUDPAddrPort(decoy, netip.AddrPortFrom(src.Addr(), port))
						}
					}
				} else {
					_, _ = other.WriteToUDPAddrPort(decoy, src)
				}
				deadline := time.Now().Add(2 * time.Second)
				for tr.Stats().DemuxMisses == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				_, _ = conn.WriteToUDPAddrPort(buf[:n], src)
			})
			tr := newTest(t, Config{
				AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: srv},
				Sockets:      2,
			})
			trCh <- tr
			const nonce = 0x5eed
			resp, err := tr.Exchange(context.Background(), srvIP, testQuery(9, nonce))
			if err != nil {
				t.Fatalf("exchange: %v", err)
			}
			if got := binary.BigEndian.Uint32(resp[12:]); got != nonce {
				t.Fatalf("nonce %#x, want %#x (decoy delivered)", got, nonce)
			}
			tr.ReleaseResponse(resp)
			if st := tr.Stats(); st.DemuxMisses != 1 {
				t.Fatalf("DemuxMisses = %d, want 1", st.DemuxMisses)
			}
		})
	}
}

// TestQRClearDatagramIsNotAnAnswer: a datagram with the QR bit clear
// that carries a pending exchange's wire ID, from the address its query
// went to, is counted malformed and dropped — a query, or debris, is no
// answer — and the exchange keeps waiting for the real reply after it.
func TestQRClearDatagramIsNotAnAnswer(t *testing.T) {
	tr := &BatchTransport{}
	s := &sock{t: tr, rbufs: make([][]byte, 1), raddrs: make([]netip.AddrPort, 1)}
	dest := netip.MustParseAddrPort("192.0.2.1:53")
	w, gen := tr.getWaiter()
	w.origID = 0x1234
	if err := tr.reserve(s, dest, w, gen); err != nil {
		t.Fatal(err)
	}
	arrive := func(flags byte) {
		buf := pktbuf.Get()[:12]
		clear(buf)
		binary.BigEndian.PutUint16(buf, w.wireID)
		buf[2] = flags
		s.rbufs[0], s.raddrs[0] = buf, dest
		s.dispatch(1)
	}

	arrive(0x01) // RD set, QR clear
	select {
	case res := <-w.ch:
		t.Fatalf("a QR-clear datagram ended the exchange (%x, %v)", res.buf, res.err)
	default:
	}
	if st := tr.Stats(); st.Malformed != 1 || st.DemuxMisses != 0 {
		t.Errorf("Malformed = %d, DemuxMisses = %d; want 1 and 0", st.Malformed, st.DemuxMisses)
	}

	arrive(0x81) // the answer
	select {
	case res := <-w.ch:
		if res.err != nil || binary.BigEndian.Uint16(res.buf) != w.origID {
			t.Errorf("reply = %x (err %v), want ID %#x restored", res.buf, res.err, w.origID)
		}
		pktbuf.Put(res.buf)
	default:
		t.Fatal("the real reply after the QR-clear datagram was not delivered")
	}
	tr.putWaiter(w)
}

// TestIDWrapSkipsLiveSlot pins the allocator across a wrap of the
// 16-bit cursor: with one blackholed exchange holding its ID for the
// whole test, more than 65536 further exchanges on the same socket must
// each get their own answer, and none of them may be sent under the
// held ID.
func TestIDWrapSkipsLiveSlot(t *testing.T) {
	heldID := make(chan uint16, 1)
	hole := startUDP(t, func(conn *net.UDPConn) {
		var buf [pktbuf.Size]byte
		if n, _, err := conn.ReadFromUDPAddrPort(buf[:]); err == nil && n >= 2 {
			heldID <- binary.BigEndian.Uint16(buf[:])
		}
		blackholeLoop(conn)
	})
	// seen counts, per wire ID, the queries the echo server received.
	var seen [maxInflightPerSock]atomic.Uint32
	echo := startUDP(t, func(conn *net.UDPConn) {
		var buf [pktbuf.Size]byte
		for {
			n, src, err := conn.ReadFromUDPAddrPort(buf[:])
			if err != nil {
				return
			}
			seen[binary.BigEndian.Uint16(buf[:])].Add(1)
			_, _ = conn.WriteToUDPAddrPort(buf[:n], src)
		}
	})
	deadIP := netip.MustParseAddr("192.0.2.66")
	tr := newTest(t, Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: echo, deadIP: hole},
		Timeout:      time.Minute,
		Sockets:      1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	held := make(chan error, 1)
	go func() {
		_, err := tr.Exchange(ctx, deadIP, testQuery(1, 1))
		held <- err
	}()
	var pinned uint16
	select {
	case pinned = <-heldID:
	case <-time.After(2 * time.Second):
		t.Fatal("blackholed query never reached its server")
	}

	const workers = 32
	const perWorker = (maxInflightPerSock + 1024) / workers
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				nonce := uint32(g)<<16 | uint32(i)
				resp, err := tr.Exchange(context.Background(), srvIP, testQuery(uint16(i), nonce))
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %v", g, i, err)
					return
				}
				if got := binary.BigEndian.Uint32(resp[12:]); got != nonce {
					errs <- fmt.Errorf("worker %d query %d: nonce %#x, want %#x (cross-delivered response)", g, i, got, nonce)
					return
				}
				tr.ReleaseResponse(resp)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := seen[pinned].Load(); n != 0 {
		t.Errorf("wire ID %d reused %d times while its exchange was still in flight", pinned, n)
	}
	wrapped := false
	for i := range seen {
		wrapped = wrapped || seen[i].Load() > 1
	}
	if !wrapped {
		t.Errorf("no wire ID used twice across %d exchanges: the cursor never wrapped", workers*perWorker)
	}
	if n := tr.pending(); n != 1 {
		t.Errorf("table holds %d entries, want only the blackholed exchange", n)
	}
	cancel()
	if err := <-held; !errors.Is(err, context.Canceled) {
		t.Errorf("blackholed exchange: err = %v, want context.Canceled", err)
	}
}

// TestCancelChurnNoLeak cancels a storm of exchanges against a server
// that never answers and asserts the demux table drains to empty — a
// leaked entry would pin its transaction ID forever. Half the contexts
// are cancelled outright; the other half carry a deadline, which the
// exchange's own timer races the context's for.
func TestCancelChurnNoLeak(t *testing.T) {
	hole := startUDP(t, blackholeLoop)
	tr := newTest(t, Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: hole},
		Timeout:      time.Minute, // the transport's deadline must not be the one cleaning up
	})
	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				after := time.Duration(1+i%5) * time.Millisecond
				ctx, cancel := context.WithTimeout(context.Background(), after)
				if i%2 == 0 {
					ctx, cancel = context.WithCancel(context.Background())
					time.AfterFunc(after, cancel)
				}
				_, err := tr.Exchange(ctx, srvIP, testQuery(uint16(i), uint32(g)))
				cancel()
				if err == nil {
					t.Errorf("worker %d query %d: blackholed exchange succeeded", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := tr.pending(); n != 0 {
		t.Fatalf("demux table holds %d entries after cancel churn, want 0", n)
	}
	if st := tr.Stats(); st.Cancels == 0 {
		t.Fatalf("no cancellations recorded across %d cancelled exchanges", workers*perWorker)
	}
	if st := tr.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight gauge = %d after churn, want 0", st.Inflight)
	}
}

// stormLoop is a hostile responder: echoes each query a seeded-random
// 1–3 times and sprays stray datagrams with random transaction IDs at
// the client between answers. The duplicates and strays must all land
// as demux misses, never as cross-delivered responses; run under -race
// this doubles as the deliver/cancel race exercise.
func stormLoop(seed int64) func(*net.UDPConn) {
	return func(conn *net.UDPConn) {
		rng := rand.New(rand.NewSource(seed))
		var buf [pktbuf.Size]byte
		var stray [12]byte
		for {
			n, src, err := conn.ReadFromUDPAddrPort(buf[:])
			if err != nil {
				return
			}
			copies := 1 + rng.Intn(3)
			for c := 0; c < copies; c++ {
				_, _ = conn.WriteToUDPAddrPort(buf[:n], src)
			}
			for s := rng.Intn(3); s > 0; s-- {
				binary.BigEndian.PutUint16(stray[:], uint16(rng.Intn(1<<16)))
				_, _ = conn.WriteToUDPAddrPort(stray[:], src)
			}
		}
	}
}

// TestStrayDuplicateStorm drives exchanges through the hostile
// responder above: every exchange must still get exactly its own
// answer, the debris must show up in the miss counter, and the table
// must drain.
func TestStrayDuplicateStorm(t *testing.T) {
	storm := startUDP(t, stormLoop(42))
	tr := newTest(t, Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: storm},
	})
	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				nonce := uint32(g)<<16 | uint32(i)
				resp, err := tr.Exchange(context.Background(), srvIP, testQuery(uint16(i), nonce))
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %v", g, i, err)
					return
				}
				if got := binary.BigEndian.Uint32(resp[12:]); got != nonce {
					errs <- fmt.Errorf("worker %d query %d: nonce %#x, want %#x (storm cross-delivery)", g, i, got, nonce)
					return
				}
				tr.ReleaseResponse(resp)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Give the last round of duplicates a moment to land as misses.
	for end := time.Now().Add(2 * time.Second); tr.Stats().DemuxMisses == 0 && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if n := tr.pending(); n != 0 {
		t.Errorf("demux table holds %d entries after storm", n)
	}
	if st := tr.Stats(); st.DemuxMisses == 0 {
		t.Errorf("storm produced no demux misses; responder not hostile enough or misses misrouted")
	}
}

// controlTimer arms a timer for at and returns a function that waits
// for it and reports how late it fired: the delay the scheduler alone
// adds at that moment, which a lateness bound on a transport deadline
// subtracts so that it measures only the transport's own delay, however
// busy the machine is.
func controlTimer(at time.Time) (lateness func() time.Duration) {
	fired := make(chan time.Time, 1)
	time.AfterFunc(time.Until(at), func() { fired <- time.Now() })
	return func() time.Duration { return (<-fired).Sub(at) }
}

// TestTimeoutNeverEarly: with a context carrying no deadline, the
// transport's own timeout ends the exchange with ErrTimeout — never
// before the deadline, and within scheduler slack after it (beyond
// what a control timer for the same deadline was late by).
func TestTimeoutNeverEarly(t *testing.T) {
	hole := startUDP(t, blackholeLoop)
	const timeout = 100 * time.Millisecond
	tr := newTest(t, Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: hole},
		Timeout:      timeout,
	})
	start := time.Now()
	control := controlTimer(start.Add(timeout))
	_, err := tr.Exchange(context.Background(), srvIP, testQuery(1, 1))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed < timeout {
		t.Fatalf("timeout fired after %v, before the %v deadline", elapsed, timeout)
	}
	slack := control()
	if limit := timeout + 50*time.Millisecond; elapsed-slack > limit {
		t.Fatalf("timeout fired after %v, %v less a control timer's lateness (%v); want within %v",
			elapsed, elapsed-slack, slack, limit)
	}
	if st := tr.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// TestContextDeadlineNeverEarly covers a deadline the exchange takes
// from its context: the resolver's attempt context (internal/deadline)
// arms no timer of its own, so the exchange's timer alone ends the
// exchange. It must do so never before the deadline — whose caller
// reads the clock to tell its own expiry from the transport's — and
// report context.DeadlineExceeded, as the expired context would. The
// deadlines are deliberately off the 5 ms grid a coarse timer would
// round them to. Every other exchange is given its deadline as the
// resolver gives an attempt's: over a live, cancellable scan context,
// under the exchange stage's trace scope. That is the context a
// simulated transport ends at once (deadline.Expire); the real one must
// wait it out. Lateness is counted beyond a control timer's for the
// same deadline.
func TestContextDeadlineNeverEarly(t *testing.T) {
	hole := startUDP(t, blackholeLoop)
	tr := newTest(t, Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: hole},
		Timeout:      time.Minute,
	})
	scan, cancelScan := context.WithCancel(context.Background())
	defer cancelScan()
	rec := trace.NewRecorder("example.gov.", 0)
	const exchanges = 6
	for i := 0; i < exchanges; i++ {
		timeout := 17*time.Millisecond + time.Duration(i)*time.Millisecond
		var ctx *deadline.Context
		var exCtx context.Context
		if i%2 == 0 {
			ctx = deadline.New(context.Background(), timeout)
			exCtx = ctx
		} else {
			ctx = deadline.New(scan, timeout)
			exCtx, _ = rec.Begin(ctx, trace.KindExchange, srvIP.String(), nil)
		}
		at, _ := ctx.Deadline()
		control := controlTimer(at)
		_, err := tr.Exchange(exCtx, srvIP, testQuery(uint16(i), uint32(i)))
		now := time.Now()
		ctx.Release()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("exchange %d: err = %v, want context.DeadlineExceeded", i, err)
		}
		if now.Before(at) {
			t.Fatalf("exchange %d: the deadline fired %v before the context deadline", i, at.Sub(now))
		}
		if late, slack := now.Sub(at), control(); late-slack > 50*time.Millisecond {
			t.Fatalf("exchange %d: the deadline fired %v after the context deadline (a control timer %v after it)",
				i, late, slack)
		}
	}
	if st := tr.Stats(); st.Timeouts != exchanges || st.Cancels != 0 {
		t.Fatalf("Timeouts = %d, Cancels = %d; want %d and 0", st.Timeouts, st.Cancels, exchanges)
	}
}

// TestDeadlineAnswerRace lets answers and deadlines race both ways: the
// responder holds each reply until about the exchange's deadline, a few
// milliseconds either side, so some answers beat the timer and some
// lose to it, under the transport's own timeout and a context's. Every
// exchange must end with its own answer or a timeout no earlier than
// its deadline, none may hang, and the slot tables must drain. A batch
// against an echo server afterwards reuses the same pooled waiters and
// must see no timeout before its deadline: a timer value left in a
// pooled waiter's channel would end its next exchange at once.
func TestDeadlineAnswerRace(t *testing.T) {
	const timeout = 30 * time.Millisecond
	rng := rand.New(rand.NewSource(34))
	var rngMu sync.Mutex
	late := startUDP(t, func(conn *net.UDPConn) {
		var buf [pktbuf.Size]byte
		for {
			n, src, err := conn.ReadFromUDPAddrPort(buf[:])
			if err != nil {
				return
			}
			reply := append([]byte(nil), buf[:n]...)
			rngMu.Lock()
			hold := timeout + time.Duration(rng.Intn(10_000)-5_000)*time.Microsecond
			rngMu.Unlock()
			time.AfterFunc(hold, func() { _, _ = conn.WriteToUDPAddrPort(reply, src) })
		}
	})
	echo := startUDP(t, echoLoop)
	lateIP := netip.MustParseAddr("192.0.2.77")
	tr := newTest(t, Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{lateIP: late, srvIP: echo},
		Timeout:      timeout,
	})

	// run drives workers×perWorker exchanges against server, odd ones
	// under a context deadline just inside the transport's, and returns
	// how many were answered and how many timed out.
	run := func(server netip.Addr, workers, perWorker int) (answered, timedOut int) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					nonce := uint32(g)<<16 | uint32(i)
					// due is no later than the exchange's deadline: the
					// transport's runs from the send, after this clock read.
					ctx, want, due := context.Context(context.Background()), ErrTimeout, time.Now().Add(timeout)
					var dctx *deadline.Context
					if i%2 == 1 {
						dctx = deadline.New(ctx, timeout-time.Millisecond)
						ctx, want = dctx, context.DeadlineExceeded
						due, _ = dctx.Deadline()
					}
					resp, err := tr.Exchange(ctx, server, testQuery(uint16(i), nonce))
					early := time.Now().Before(due)
					if dctx != nil {
						dctx.Release()
					}
					mu.Lock()
					switch {
					case err == nil && binary.BigEndian.Uint32(resp[12:]) == nonce:
						answered++
						tr.ReleaseResponse(resp)
					case err == nil:
						t.Errorf("worker %d exchange %d: nonce %#x, want %#x", g, i, binary.BigEndian.Uint32(resp[12:]), nonce)
					case !errors.Is(err, want):
						t.Errorf("worker %d exchange %d: err = %v, want %v", g, i, err, want)
					case early:
						t.Errorf("worker %d exchange %d: timed out before its deadline", g, i)
					default:
						timedOut++
					}
					mu.Unlock()
				}
			}(g)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("exchanges against %s still running after 30s", server)
		}
		if n := tr.pending(); n != 0 {
			t.Errorf("slot tables hold %d entries after the batch against %s", n, server)
		}
		return answered, timedOut
	}

	answered, timedOut := run(lateIP, 32, 16)
	t.Logf("deadline race: %d answered, %d timed out", answered, timedOut)
	if answered == 0 || timedOut == 0 {
		t.Errorf("the race went one way only (%d answered, %d timed out)", answered, timedOut)
	}
	if answered, _ := run(srvIP, 32, 16); answered == 0 {
		t.Error("no exchange against the echo server was answered")
	}
}

// TestTransportGoroutines bounds the transport's goroutines: one sender
// and one receiver per socket while open, and none left after Close.
func TestTransportGoroutines(t *testing.T) {
	// settle waits out goroutines earlier tests left exiting, and
	// returns the count once it holds still.
	settle := func() int {
		n := runtime.NumGoroutine()
		for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
			time.Sleep(5 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	base := settle()
	tr, err := New(Config{Sockets: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if n := settle(); n != base+4 {
		t.Errorf("an open 2-socket transport runs %d goroutines, want 4", n-base)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := settle(); n != base {
		t.Errorf("Close left %d goroutines running", n-base)
	}
}

// TestBlackholeIsolation pins why each exchange owns its deadline: one
// dead server's queries time out on their own schedule while a live server
// sharing the transport (and possibly the socket) answers at full
// speed throughout.
func TestBlackholeIsolation(t *testing.T) {
	echo := startUDP(t, echoLoop)
	hole := startUDP(t, blackholeLoop)
	deadIP := netip.MustParseAddr("192.0.2.66")
	const timeout = 500 * time.Millisecond
	tr := newTest(t, Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: echo, deadIP: hole},
		Timeout:      timeout,
		Sockets:      1, // force both servers onto one socket
	})
	const n = 20
	var wg sync.WaitGroup
	liveDur := make([]time.Duration, n)
	liveErr := make([]error, n)
	deadErr := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := tr.Exchange(context.Background(), srvIP, testQuery(uint16(i), uint32(i)))
			liveDur[i] = time.Since(start)
			liveErr[i] = err
			if err == nil {
				tr.ReleaseResponse(resp)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			_, err := tr.Exchange(context.Background(), deadIP, testQuery(uint16(i), uint32(i)))
			deadErr[i] = err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if liveErr[i] != nil {
			t.Errorf("live query %d failed: %v", i, liveErr[i])
		} else if liveDur[i] > timeout/2 {
			t.Errorf("live query %d took %v — stalled behind the blackholed server", i, liveDur[i])
		}
		if !errors.Is(deadErr[i], ErrTimeout) {
			t.Errorf("blackholed query %d: err = %v, want ErrTimeout", i, deadErr[i])
		}
	}
}

// TestCloseFailsPending verifies Close resolves every in-flight
// exchange with ErrClosed and leaves the table empty, and that the
// transport refuses new exchanges afterwards.
func TestCloseFailsPending(t *testing.T) {
	hole := startUDP(t, blackholeLoop)
	tr := newTest(t, Config{
		AddrOverride: map[netip.Addr]netip.AddrPort{srvIP: hole},
		Timeout:      time.Minute,
	})
	const n = 8
	var wg sync.WaitGroup
	errsArr := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errsArr[i] = tr.Exchange(context.Background(), srvIP, testQuery(uint16(i), uint32(i)))
		}(i)
	}
	// Let the exchanges register before closing.
	deadline := time.Now().Add(2 * time.Second)
	for tr.pending() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for i, err := range errsArr {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("exchange %d: err = %v, want ErrClosed", i, err)
		}
	}
	if n := tr.pending(); n != 0 {
		t.Errorf("table holds %d entries after Close", n)
	}
	if _, err := tr.Exchange(context.Background(), srvIP, testQuery(0, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close Exchange: err = %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestWaiterGenerationReuse pins the packed gen+state CAS: a stale
// completion attempt from a waiter's previous life must lose against
// the recycled waiter's new generation.
func TestWaiterGenerationReuse(t *testing.T) {
	w := &waiter{ch: make(chan wresult, 1)}
	gen1 := w.nextGen()
	if !w.complete(gen1, stDelivered) {
		t.Fatal("fresh generation failed to complete")
	}
	gen2 := w.nextGen()
	if w.complete(gen1, stTimedOut) {
		t.Fatal("stale generation completed a recycled waiter")
	}
	if !w.complete(gen2, stTimedOut) {
		t.Fatal("current generation blocked by stale attempt")
	}
}

// TestWireIDPermutation pins the keyed wire-ID map: over all 65,536
// cursor values it is a bijection — every cursor names its own slot, so
// the occupancy probe still reaches each one — and two sockets, keyed
// independently, send different first 1,024 IDs.
func TestWireIDPermutation(t *testing.T) {
	tr := newTest(t, Config{Sockets: 2})
	a, b := tr.socks[0], tr.socks[1]
	var seen [maxInflightPerSock]bool
	for c := 0; c < maxInflightPerSock; c++ {
		id := a.permuteID(uint16(c))
		if seen[id] {
			t.Fatalf("cursor %d maps to wire ID %d, already taken", c, id)
		}
		seen[id] = true
	}
	same := true
	for c := 0; c < 1024 && same; c++ {
		same = a.permuteID(uint16(c)) == b.permuteID(uint16(c))
	}
	if same {
		t.Error("two sockets' first 1024 wire IDs are identical")
	}
}
