package authserver

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"govdns/internal/pktbuf"
	"govdns/internal/udpx"
)

// UDPServer serves one authoritative Server over a real UDP socket. It is
// used by cmd/dnsserver and the loopback serving tier behind the e2e
// differentials and the bench/ workloads
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
