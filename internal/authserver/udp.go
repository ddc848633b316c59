package authserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"govdns/internal/pktbuf"
	"govdns/internal/udpx"
)

// UDPServer serves one authoritative Server over a real UDP socket. It is
// used by cmd/dnsserver, the live-resolution example, and the loopback
// serving tier behind the e2e differentials and the bench/ workloads
// scan_udp_loopback and serve_zipf; the bulk study runs over the
// in-memory network instead.
type UDPServer struct {
	server *Server
	conn   *net.UDPConn

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// ListenUDP binds addr (e.g. "127.0.0.1:5353") and starts answering
// queries with s until Close is called.
func ListenUDP(addr string, s *Server) (*UDPServer, error) {
	return ListenUDPReaders(addr, s, 1)
}

// ListenUDPReaders is ListenUDP with an explicit read-loop count. One
// loop is plenty for the study's own serving needs; the transport
// benchmarks raise it so the serving side is not the bottleneck being
// measured when a batched client slams one socket.
func ListenUDPReaders(addr string, s *Server, readers int) (*UDPServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("authserver: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("authserver: listen %s: %w", addr, err)
	}
	_ = conn.SetReadBuffer(1 << 20)
	if readers < 1 {
		readers = 1
	}
	u := &UDPServer{server: s, conn: conn}
	u.wg.Add(readers)
	for i := 0; i < readers; i++ {
		go u.loop()
	}
	return u, nil
}

// Addr returns the bound address, useful when listening on port 0.
func (u *UDPServer) Addr() net.Addr { return u.conn.LocalAddr() }

// Close stops the server and waits for the read loops to exit.
func (u *UDPServer) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	err := u.conn.Close()
	u.wg.Wait()
	return err
}

// udpServeBatch is the serving loop's batch bound: queries in per
// recvmmsg round, responses out per sendmmsg round (udpx.PacketConn
// degrades both to one datagram per syscall where the batched calls
// are unavailable).
const udpServeBatch = 32

// loop is one read loop: whole batches of queries come up in one
// batched receive into buffers udpx lends from the packet pool, each
// query is answered (the handler decodes onto a pooled codec arena;
// responses land in loop-owned buffers reused across rounds) and its
// buffer goes back to the pool, so a listener holds no query buffer
// while it waits, and the batch of responses goes out in one batched
// send. Steady state is allocation-free, gated by
// TestUDPServerLoopZeroAlloc; the AddrPort-based fallbacks keep even
// the portable path free of the per-datagram net.Addr allocation the
// net.PacketConn interface forces.
func (u *UDPServer) loop() {
	defer u.wg.Done()
	pc := udpx.NewPacketConn(u.conn, udpServeBatch, false)
	bufs := make([][]byte, udpServeBatch)
	addrs := make([]netip.AddrPort, udpServeBatch)
	resps := make([][]byte, udpServeBatch)
	outAddrs := make([]netip.AddrPort, udpServeBatch)
	for {
		n, err := pc.ReadBatch(bufs, addrs)
		if err != nil {
			u.mu.Lock()
			closed := u.closed
			u.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		m := 0
		for i := 0; i < n; i++ {
			if addrs[i].IsValid() {
				if out, ok := u.server.HandleWireAppend(resps[m][:0], bufs[i]); ok {
					resps[m] = out
					outAddrs[m] = addrs[i]
					m++
				}
			}
			pktbuf.Put(bufs[i])
			bufs[i] = nil
		}
		if m > 0 {
			// Best effort; a lost response is a normal UDP condition.
			pc.WriteBatch(resps[:m], outAddrs[:m])
		}
	}
}

// UDPTransport is a resolver transport that sends queries over real UDP
// sockets, one dialed socket per exchange. It is the slow, portable
// reference path: every query pays socket setup and teardown and a
// connect/send/recv syscall sequence, which is exactly why it makes a
// trustworthy oracle for udpx.BatchTransport — the e2e differential
// suite pins the batched path's scan digests against this one's
// (TestScanDigestBatchVsDial in internal/measure). No command
// constructs it: real-network scans always run over udpx, and this type
// stays for that differential and this package's own tests.
//
// Queries go to port 53 unless the server's IP has an entry in
// AddrOverride; tests run UDPServer instances on loopback high ports
// while the resolver keeps addressing servers by their nominal
// (possibly simulated-topology) IPs.
type UDPTransport struct {
	// AddrOverride maps a server IP to the socket actually serving it.
	AddrOverride map[netip.Addr]netip.AddrPort
}

// Exchange implements the resolver transport over UDP. The returned
// buffer comes from the shared datagram pool; the resolver returns it
// through ReleaseResponse once decoded.
func (t *UDPTransport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	target, ok := t.AddrOverride[server]
	if !ok {
		target = netip.AddrPortFrom(server, 53)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", target.String())
	if err != nil {
		return nil, fmt.Errorf("authserver: dial %s: %w", server, err)
	}
	defer func() { _ = conn.Close() }()

	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(deadline); err != nil {
			return nil, fmt.Errorf("authserver: set deadline: %w", err)
		}
	}
	if _, err := conn.Write(query); err != nil {
		return nil, fmt.Errorf("authserver: send: %w", err)
	}
	buf := pktbuf.Get()
	n, err := conn.Read(buf)
	if err != nil {
		pktbuf.Put(buf)
		return nil, fmt.Errorf("authserver: receive: %w", err)
	}
	return buf[:n], nil
}

// ReleaseResponse returns a buffer handed out by Exchange to the
// datagram pool (resolver.ResponseReleaser). Foreign buffers are
// recognized by capacity and left to the GC.
func (t *UDPTransport) ReleaseResponse(buf []byte) { pktbuf.Put(buf) }
