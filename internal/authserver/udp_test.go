package authserver

import (
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"govdns/internal/dnswire"
	"govdns/internal/pktbuf"
)

func TestUDPServerEndToEnd(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	udp, err := ListenUDP("127.0.0.1:0", s)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer func() {
		if err := udp.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	conn, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	wire, err := dnswire.Encode(dnswire.NewQuery(7, "www.gov.br.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatalf("send: %v", err)
	}
	buf := make([]byte, pktbuf.Size)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	resp, err := dnswire.Decode(buf[:n])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if resp.Header.ID != 7 || len(resp.Answers) != 1 {
		t.Errorf("unexpected response: %s", resp)
	}
}

func TestUDPServerCloseIsIdempotent(t *testing.T) {
	s := New("ns1.example.")
	udp, err := ListenUDP("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := udp.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := udp.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestUDPServerLoopZeroAlloc is the allocs/op regression gate for the
// UDP read loop: once the datagram pool, the loop-owned response
// buffer, and the server's cache/arena pools have warmed up, a full
// client round trip over a real loopback socket must not allocate.
// AllocsPerRun counts process-wide mallocs, so the gate holds only
// because every party — the read loop (pooled receive buffers, reused
// response buffer, AddrPort read/write APIs), the cached serving path,
// and the probe client below — is allocation-free in steady state.
func TestUDPServerLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	s.SetCache(NewResponseCache())
	udp, err := ListenUDP("127.0.0.1:0", s)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer func() { _ = udp.Close() }()
	srv, err := netip.ParseAddrPort(udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	wire := confWire(t, "www.gov.br.", dnswire.TypeA, 42, true, 1232)
	resp := make([]byte, pktbuf.Size)
	roundTrip := func() {
		if _, err := conn.WriteToUDPAddrPort(wire, srv); err != nil {
			t.Fatalf("send: %v", err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := conn.ReadFromUDPAddrPort(resp)
		if err != nil {
			t.Fatalf("receive: %v", err)
		}
		if n < 12 || resp[0] != wire[0] || resp[1] != wire[1] {
			t.Fatalf("bad response: %d bytes", n)
		}
	}
	for i := 0; i < 50; i++ { // warm: datagram pool, response buffer, cache entry
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("UDP serving loop allocates %.2f/op in steady state, want 0", allocs)
	}
}

// TestUDPListenerFootprint gates what a listener holds once it has
// served: 256 listeners each answer one query, and after a GC the heap
// they keep must come to under 8 KiB per listener. A read loop that
// owned a batch of 4 KiB query buffers for its life held over 128 KiB;
// with buffers lent only while the socket is readable, an idle loop
// keeps its slot slices, the response it last encoded and a few
// batched-syscall headers. Goroutine stacks are not heap and are not
// counted.
func TestUDPListenerFootprint(t *testing.T) {
	const listeners = 256
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	client, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	wire := confWire(t, "www.gov.br.", dnswire.TypeA, 42, true, 1232)
	resp := make([]byte, pktbuf.Size)
	servers := make([]*UDPServer, 0, listeners)
	defer func() {
		for _, u := range servers {
			_ = u.Close()
		}
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < listeners; i++ {
		u, err := ListenUDP("127.0.0.1:0", s)
		if err != nil {
			t.Fatalf("listener %d: %v", i, err)
		}
		servers = append(servers, u)
		if _, err := client.WriteToUDPAddrPort(wire, u.Addr().(*net.UDPAddr).AddrPort()); err != nil {
			t.Fatalf("send to listener %d: %v", i, err)
		}
		_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, _, err := client.ReadFromUDPAddrPort(resp); err != nil || n < 12 || resp[0] != wire[0] || resp[1] != wire[1] {
			t.Fatalf("listener %d: %d-byte response, err %v", i, n, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perListener := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / listeners
	t.Logf("heap per served listener: %.1f KiB (stacks in use: %d KiB total)", perListener/1024, after.StackInuse/1024)
	if perListener >= 8<<10 {
		t.Errorf("a served listener holds %.1f KiB of heap, want < 8 KiB", perListener/1024)
	}
}
