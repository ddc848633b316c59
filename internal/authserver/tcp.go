package authserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"govdns/internal/dnswire"
)

// DefaultTCPIdleTimeout bounds how long a TCP connection may sit between
// frames (and how long one response write may take) before the server
// hangs up. Real deployments close idle DNS/TCP connections aggressively;
// the scanner's fallback exchanges are one-shot anyway.
const DefaultTCPIdleTimeout = 10 * time.Second

// TCPServer serves one authoritative Server over a real TCP listener
// with RFC 1035 §4.2.2 length-prefixed framing. It is the transport the
// scanner falls back to when a UDP answer arrives truncated, and the
// transport zone transfers require.
type TCPServer struct {
	server *Server
	ln     net.Listener
	idle   time.Duration

	mu     sync.Mutex
	closed bool
	done   chan struct{} // closed by Close: ends an accept backoff
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ListenTCP binds addr (e.g. "127.0.0.1:5353") and starts answering
// framed queries with s until Close is called.
func ListenTCP(addr string, s *Server) (*TCPServer, error) {
	return ListenTCPIdle(addr, s, DefaultTCPIdleTimeout)
}

// ListenTCPIdle is ListenTCP with an explicit per-connection idle
// timeout; 0 disables the deadline entirely (useful for debugging, never
// for production — a stalled peer then holds its goroutine forever).
func ListenTCPIdle(addr string, s *Server, idle time.Duration) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("authserver: listen tcp %s: %w", addr, err)
	}
	return serveTCP(ln, s, idle), nil
}

// serveTCP starts answering framed queries accepted from ln.
func serveTCP(ln net.Listener, s *Server, idle time.Duration) *TCPServer {
	t := &TCPServer{
		server: s,
		ln:     ln,
		idle:   idle,
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Addr returns the bound address, useful when listening on port 0.
func (t *TCPServer) Addr() net.Addr { return t.ln.Addr() }

// Close stops accepting, hangs up every live connection, and waits for
// all serving goroutines to exit.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	for c := range t.conns {
		_ = c.Close()
	}
	t.mu.Unlock()
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

// acceptLoop accepts until Close. An Accept error that is not the close
// (EMFILE under FD exhaustion, say) is retried after a pause that
// doubles from 5 ms to 1 s and resets on success, as net/http's Serve
// does, so the loop does not spin while the error lasts; Close ends the
// pause.
func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	var delay time.Duration
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > time.Second {
				delay = time.Second
			}
			pause := time.NewTimer(delay)
			select {
			case <-pause.C:
			case <-t.done:
				pause.Stop()
				return
			}
			continue
		}
		delay = 0
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go func() {
			defer t.wg.Done()
			t.server.ServeTCPConn(conn, t.idle)
			t.mu.Lock()
			delete(t.conns, conn)
			t.mu.Unlock()
			_ = conn.Close()
		}()
	}
}

// ServeTCPConn answers length-prefixed DNS queries on conn until the
// peer hangs up, a frame read stalls past idle (0 disables deadlines),
// or the stream turns into something unanswerable. Frames are processed
// strictly in arrival order, so pipelined clients get responses in query
// order; reading the next frame never waits for the peer to drain the
// previous response beyond the kernel's send buffer.
//
// Framing discipline: the two-byte prefix is always trusted for
// resynchronization, so mid-stream garbage costs at most one FORMERR
// (when a 12-byte header was readable) or one silently dropped frame —
// never a desynchronized pipeline. Zero-length frames are skipped.
// AXFR queries divert to the streaming transfer path.
func (s *Server) ServeTCPConn(conn net.Conn, idle time.Duration) {
	var (
		hdr   [2]byte
		frame []byte
		resp  = make([]byte, 2, 4096)
	)
	for {
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := int(hdr[0])<<8 | int(hdr[1])
		if n == 0 {
			// A dead frame; the prefix kept us aligned, keep reading.
			continue
		}
		if cap(frame) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		if q, ok := dnswire.PeekQuestion(frame); ok && q.Type == dnswire.TypeAXFR {
			if !s.serveAXFR(conn, frame, idle) {
				return
			}
			continue
		}
		out, ok := s.serveWire(resp[:2], frame, TransportTCP)
		if !ok {
			// Dropped (behaviour or sub-header garbage): no response
			// frame, but the stream stays aligned for the next query.
			continue
		}
		resp = out
		m := len(resp) - 2
		resp[0], resp[1] = byte(m>>8), byte(m)
		if idle > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(idle))
		}
		if _, err := conn.Write(resp); err != nil {
			return
		}
	}
}

// TCPTransport is a resolver transport that sends queries over real TCP
// connections with length-prefixed framing — the fallback transport for
// truncated UDP answers. Queries go to port 53 unless the server's IP
// has an entry in PortOverride.
type TCPTransport struct {
	// PortOverride maps a server IP to the TCP port serving it.
	PortOverride map[netip.Addr]int
}

// Exchange implements the resolver transport over TCP: one connection,
// one framed query, one framed response.
func (t *TCPTransport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	if len(query) > dnswire.MaxTCPPayload {
		return nil, fmt.Errorf("authserver: query exceeds TCP frame limit: %d bytes", len(query))
	}
	port := 53
	if p, ok := t.PortOverride[server]; ok {
		port = p
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", net.JoinHostPort(server.String(), fmt.Sprint(port)))
	if err != nil {
		return nil, fmt.Errorf("authserver: dial tcp %s: %w", server, err)
	}
	defer func() { _ = conn.Close() }()
	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(deadline); err != nil {
			return nil, fmt.Errorf("authserver: set deadline: %w", err)
		}
	}
	buf := make([]byte, 0, 2+len(query))
	buf = append(buf, byte(len(query)>>8), byte(len(query)))
	buf = append(buf, query...)
	if _, err := conn.Write(buf); err != nil {
		return nil, fmt.Errorf("authserver: send: %w", err)
	}
	return readFrame(conn, nil)
}

// readFrame reads one length-prefixed DNS message from r into buf
// (grown as needed) and returns the message bytes.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("authserver: read frame length: %w", err)
	}
	n := int(hdr[0])<<8 | int(hdr[1])
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("authserver: read frame body: %w", err)
	}
	return buf, nil
}
