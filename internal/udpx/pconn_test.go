package udpx

import (
	"net"
	"net/netip"
	"testing"
	"time"
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

// readAll collects want datagrams from pc, slots receive buffers per
// ReadBatch call, and returns payload -> source. No call may report
// more datagrams than it was given buffers for.
func readAll(t *testing.T, pc *PacketConn, want, slots int) map[string]netip.AddrPort {
	t.Helper()
	bufs := make([][]byte, slots)
	for i := range bufs {
		bufs[i] = make([]byte, bufSize)
	}
	sizes := make([]int, slots)
	addrs := make([]netip.AddrPort, slots)
	seen := make(map[string]netip.AddrPort, want)
	for len(seen) < want {
		n, err := pc.ReadBatch(bufs, sizes, addrs)
		if err != nil {
			t.Fatalf("ReadBatch after %d of %d datagrams: %v", len(seen), want, err)
		}
		if n > slots {
			t.Fatalf("ReadBatch filled %d datagrams into %d buffers", n, slots)
		}
		for i := 0; i < n; i++ {
			seen[string(bufs[i][:sizes[i]])] = addrs[i]
		}
	}
	return seen
}

// TestPacketConnBatchRoundTrip drives the shared batched-datagram path
// directly, in both modes: a batch written with one WriteBatch arrives
// intact — payload, length, and source — through ReadBatch calls that
// were handed fewer buffers than the batch (a short bufs slice caps the
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

// TestDispatchSkipsInvalidSource: a receive slot whose source address
// ReadBatch could not decode is counted malformed and skipped — its
// buffer stays in the slot — while its neighbour is delivered.
func TestDispatchSkipsInvalidSource(t *testing.T) {
	tr := newTest(t, Config{Sockets: 1})
	s := &sock{
		t:      tr,
		rbufs:  [][]byte{GetBuf(), GetBuf()},
		rsizes: []int{16, 16},
		raddrs: []netip.AddrPort{{}, netip.MustParseAddrPort("127.0.0.1:5353")},
	}
	kept := &s.rbufs[0][0]
	s.dispatch(2)
	st := tr.Stats()
	if st.Malformed != 1 || st.RecvDatagrams != 1 {
		t.Errorf("Malformed = %d, RecvDatagrams = %d; want 1 and 1", st.Malformed, st.RecvDatagrams)
	}
	if &s.rbufs[0][0] != kept {
		t.Error("skipped slot lost its buffer")
	}
}
