package udpx

import (
	"net"
	"net/netip"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"govdns/internal/pktbuf"
)

// loopbackConn binds a loopback socket whose blocked reads fail after a
// few seconds instead of hanging the test.
func loopbackConn(t *testing.T) (*net.UDPConn, netip.AddrPort) {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn, conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// readAll collects want datagrams from pc, offering slots receive
// slots per ReadBatch call, and returns payload -> source. No call may
// report more datagrams than it was given slots for.
func readAll(t *testing.T, pc *PacketConn, want, slots int) map[string]netip.AddrPort {
	t.Helper()
	bufs := make([][]byte, slots)
	addrs := make([]netip.AddrPort, slots)
	seen := make(map[string]netip.AddrPort, want)
	for len(seen) < want {
		n, err := pc.ReadBatch(bufs, addrs)
		if err != nil {
			t.Fatalf("ReadBatch after %d of %d datagrams: %v", len(seen), want, err)
		}
		if n > slots {
			t.Fatalf("ReadBatch filled %d datagrams into %d slots", n, slots)
		}
		for i := 0; i < n; i++ {
			seen[string(bufs[i])] = addrs[i]
			pktbuf.Put(bufs[i])
			bufs[i] = nil
		}
	}
	return seen
}

// TestPacketConnBatchRoundTrip drives the shared batched-datagram path
// directly, in both modes: a batch written with one WriteBatch arrives
// intact — payload, length, and source — through ReadBatch calls that
// were handed fewer slots than the batch (a short bufs slice caps the
// round), and the echo comes back the same way through full-size ones.
func TestPacketConnBatchRoundTrip(t *testing.T) {
	for _, portable := range []bool{false, true} {
		name := "os"
		if portable {
			name = "portable"
		}
		t.Run(name, func(t *testing.T) {
			const batch = 8
			connA, addrA := loopbackConn(t)
			connB, addrB := loopbackConn(t)
			a := NewPacketConn(connA, batch, portable)
			b := NewPacketConn(connB, batch, portable)

			payloads := [][]byte{[]byte("q0"), []byte("query-1"), []byte("q2"), make([]byte, 1200), []byte("q4")}
			payloads[3][0] = 'L'
			toB := make([]netip.AddrPort, len(payloads))
			for i := range toB {
				toB[i] = addrB
			}
			syscalls := a.WriteBatch(payloads, toB)
			switch {
			case portable && syscalls != len(payloads):
				t.Errorf("portable WriteBatch used %d syscalls for %d datagrams", syscalls, len(payloads))
			case !portable && osBatchSupported && syscalls >= len(payloads):
				t.Errorf("OS WriteBatch used %d syscalls for %d datagrams: nothing batched", syscalls, len(payloads))
			}

			atB := readAll(t, b, len(payloads), 2)
			echo := make([][]byte, 0, len(payloads))
			back := make([]netip.AddrPort, 0, len(payloads))
			for _, p := range payloads {
				src, ok := atB[string(p)]
				if !ok {
					t.Fatalf("datagram %q (%d bytes) never arrived", p[:2], len(p))
				}
				if src != addrA {
					t.Errorf("datagram %q: source %s, want %s", p[:2], src, addrA)
				}
				echo = append(echo, p)
				back = append(back, src)
			}
			b.WriteBatch(echo, back)
			atA := readAll(t, a, len(payloads), batch)
			for _, p := range payloads {
				if src := atA[string(p)]; src != addrB {
					t.Errorf("echo of %q: source %s, want %s", p[:2], src, addrB)
				}
			}
		})
	}
}

// sendN writes n distinct datagrams from a fresh socket to dst, one
// WriteBatch; loopback queues them at dst before the call returns.
func sendN(t *testing.T, dst netip.AddrPort, n int) {
	t.Helper()
	conn, _ := loopbackConn(t)
	payloads := make([][]byte, n)
	to := make([]netip.AddrPort, n)
	for i := range payloads {
		payloads[i] = []byte{'d', byte('0' + i)}
		to[i] = dst
	}
	NewPacketConn(conn, n, false).WriteBatch(payloads, to)
}

// TestReadBatchLendsOnlyFilledBuffers: with 3 datagrams queued and 8
// buffers to lend, ReadBatch hands back exactly the filled ones — each a
// full-capacity pool buffer on its own array, sliced to the datagram —
// and every slot it lent but the kernel did not fill is empty again.
// The batched path reads all 3 in one round; the portable path lends
// one buffer per read.
func TestReadBatchLendsOnlyFilledBuffers(t *testing.T) {
	for _, portable := range []bool{false, true} {
		name := "os"
		if portable {
			name = "portable"
		}
		t.Run(name, func(t *testing.T) {
			const lend = 8
			conn, addr := loopbackConn(t)
			pc := NewPacketConn(conn, lend, portable)
			pc.lend = lend
			sendN(t, addr, 3)
			bufs := make([][]byte, lend)
			addrs := make([]netip.AddrPort, lend)
			arrays := map[*byte]bool{}
			var got []byte
			for len(got) < 3 {
				n, err := pc.ReadBatch(bufs, addrs)
				if err != nil {
					t.Fatalf("ReadBatch: %v", err)
				}
				if want := 3 - len(got); pc.useOS && n != want {
					t.Fatalf("batched ReadBatch read %d datagrams, want all %d queued", n, want)
				}
				if !pc.useOS && n != 1 {
					t.Fatalf("portable ReadBatch read %d datagrams, want 1", n)
				}
				for i, b := range bufs {
					if i >= n {
						if b != nil {
							t.Errorf("slot %d past the %d read still holds a buffer", i, n)
						}
						continue
					}
					if cap(b) != pktbuf.Size || len(b) != 2 {
						t.Errorf("slot %d: len %d cap %d, want 2 and %d", i, len(b), cap(b), pktbuf.Size)
					}
					if p := unsafe.SliceData(b); arrays[p] {
						t.Errorf("slot %d shares its array with another returned buffer", i)
					} else {
						arrays[p] = true
					}
					got = append(got, b[1])
				}
				for i := 0; i < n; i++ {
					bufs[i] = nil // held until the end, so arrays stay distinct
				}
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if string(got) != "012" {
				t.Errorf("read payloads %q, want the 3 sent", got)
			}
		})
	}
}

// TestReadBatchLendAdapts pins the lend rule, min(batch, max(1, 2×the
// last count)): a fresh PacketConn lends one buffer, each full read
// doubles the lend up to the batch bound, and a short read shrinks it.
func TestReadBatchLendAdapts(t *testing.T) {
	if !osBatchSupported {
		t.Skip("the portable path lends one buffer per read")
	}
	const batch = 8
	conn, addr := loopbackConn(t)
	pc := NewPacketConn(conn, batch, false)
	bufs := make([][]byte, batch)
	addrs := make([]netip.AddrPort, batch)
	for _, step := range []struct{ queued, read, lendAfter int }{
		{1, 1, 2}, // lend 1, full
		{2, 2, 4}, // lend 2, full
		{4, 4, 8}, // lend 4, full
		{8, 8, 8}, // lend 8, full: capped at the batch
		{1, 1, 2}, // lend 8, short
	} {
		lendBefore := pc.lend
		sendN(t, addr, step.queued)
		n, err := pc.ReadBatch(bufs, addrs)
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		if n != step.read || pc.lend != step.lendAfter {
			t.Errorf("lend %d, %d queued: read %d and next lend %d, want %d and %d",
				lendBefore, step.queued, n, pc.lend, step.read, step.lendAfter)
		}
		for i := 0; i < n; i++ {
			pktbuf.Put(bufs[i])
			bufs[i] = nil
		}
	}
}

// TestDispatchSkipsInvalidSource: a receive slot whose source address
// ReadBatch could not decode is counted malformed and skipped — its
// buffer goes back to the packet pool and its slot is left empty —
// while its neighbour is delivered.
func TestDispatchSkipsInvalidSource(t *testing.T) {
	// One P, so the pool's per-P private slot is the one both the skip
	// and the check below use, and a bare transport: no socket loops
	// running to check buffers in and out between the two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := &BatchTransport{}
	s := &sock{
		t:      tr,
		rbufs:  [][]byte{pktbuf.Get()[:16], pktbuf.Get()[:16]},
		raddrs: []netip.AddrPort{{}, netip.MustParseAddrPort("127.0.0.1:5353")},
	}
	s.rbufs[1][2] = 0x80 // QR set: an answer, which only the demux rejects
	skipped := unsafe.SliceData(s.rbufs[0])
	s.dispatch(2)
	st := tr.Stats()
	if st.Malformed != 1 || st.RecvDatagrams != 1 {
		t.Errorf("Malformed = %d, RecvDatagrams = %d; want 1 and 1", st.Malformed, st.RecvDatagrams)
	}
	if s.rbufs[0] != nil || s.rbufs[1] != nil {
		t.Error("dispatch left a buffer in a receive slot")
	}
	// The skipped buffer was the first one returned, so it sits in the
	// P's private pool slot and is the next checkout. The race
	// detector's pool drops a random share of returns, so only a plain
	// build can check this.
	if !raceEnabled {
		if b := pktbuf.Get(); unsafe.SliceData(b) != skipped {
			t.Error("the skipped datagram's buffer did not go back to the pool")
		}
	}
}
