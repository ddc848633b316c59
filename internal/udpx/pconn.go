package udpx

import (
	"net"
	"net/netip"

	"govdns/internal/pktbuf"
)

// PacketConn is the one batched-datagram I/O path: it wraps a shared
// *net.UDPConn with whole-batch receive and send calls, so a loop moves
// one recvmmsg/sendmmsg round per batch of datagrams instead of one
// read or write syscall each. Both ends use it — the transport's
// per-socket loops (socket.go) and the serving-side UDP read loop
// (authserver). On platforms without the batched syscalls (or when
// portable is set) the same API degrades to one datagram per call
// through the AddrPort read/write paths, which keeps callers free of
// build tags.
//
// Receive buffers are lent, not owned: on the batched path ReadBatch
// checks them out of the packet pool only once the socket is readable
// and returns every one the kernel did not fill before it returns, so
// a reader parked waiting for traffic holds no datagram buffer and a
// socket costs what it serves, not its batch bound. (The portable path
// lends one buffer before its blocking read.)
//
// ReadBatch and WriteBatch keep disjoint state, so one goroutine may
// read while another writes; each side is owned by one goroutine at a
// time. Concurrent readers each construct their own PacketConn over the
// same socket (the fd's internal read lock serializes the actual
// syscalls).
type PacketConn struct {
	conn  *net.UDPConn
	batch int
	// lend is how many buffers the next batched read arms:
	// min(batch, max(1, 2×the last read's count)), so an idle socket
	// lends one and a busy one grows to the batch bound in a few rounds.
	lend  int
	useOS bool
	os    osSock
}

// NewPacketConn wraps conn for batched I/O with the given maximum
// batch size. portable forces the one-datagram-per-syscall fallback.
func NewPacketConn(conn *net.UDPConn, batch int, portable bool) *PacketConn {
	if batch < 1 {
		batch = DefaultBatch
	}
	pc := &PacketConn{conn: conn, batch: batch, lend: 1}
	if osBatchSupported && !portable {
		if err := initOSState(&pc.os, conn); err == nil {
			pc.useOS = true
		}
	}
	return pc
}

// ReadBatch blocks until at least one datagram can be read and returns
// how many it read, n. Each bufs[i], i < n, is then a buffer from the
// packet pool sliced to the datagram's length, and addrs[i] its source
// (invalid if the kernel's could not be decoded, for the caller to
// skip). The caller owns bufs[:n]: it returns each through pktbuf.Put or
// hands it on. Buffers are lent only while the socket is readable — at
// most min(len(bufs), lend) per batched round, one on the portable
// path — and every one not filled is back in the pool, its slot nil,
// before ReadBatch returns. A count of zero with a nil error is a
// transient kernel condition and the caller should retry.
func (pc *PacketConn) ReadBatch(bufs [][]byte, addrs []netip.AddrPort) (int, error) {
	if pc.useOS {
		return pc.readBatchOS(bufs, addrs)
	}
	buf := pktbuf.Get()
	n, src, err := pc.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		pktbuf.Put(buf)
		return 0, err
	}
	bufs[0] = buf[:n]
	addrs[0] = src
	return 1, nil
}

// WriteBatch sends bufs[i] to addrs[i], coalescing into as few
// sendmmsg calls as the kernel allows, and returns the number of
// syscalls that took. Send failures drop the unsent tail — the same
// semantics as datagram loss, which every UDP caller already
// tolerates.
func (pc *PacketConn) WriteBatch(bufs [][]byte, addrs []netip.AddrPort) int {
	if pc.useOS {
		return pc.writeBatchOS(bufs, addrs)
	}
	for i := range bufs {
		_, _ = pc.conn.WriteToUDPAddrPort(bufs[i], addrs[i])
	}
	return len(bufs)
}
