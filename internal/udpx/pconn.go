package udpx

import (
	"net"
	"net/netip"
)

// PacketConn is the one batched-datagram I/O path: it wraps a shared
// *net.UDPConn with whole-batch receive and send calls over
// caller-owned buffers, so a loop moves one recvmmsg/sendmmsg round per
// batch of datagrams instead of one read or write syscall each. Both
// ends use it — the transport's per-socket loops (socket.go) and the
// serving-side UDP read loop (authserver). On platforms without the
// batched syscalls (or when portable is set) the same API degrades to
// one datagram per call through the AddrPort read/write paths, which
// keeps callers free of build tags.
//
// ReadBatch and WriteBatch keep disjoint state, so one goroutine may
// read while another writes; each side is owned by one goroutine at a
// time. Concurrent readers each construct their own PacketConn over the
// same socket (the fd's internal read lock serializes the actual
// syscalls).
type PacketConn struct {
	conn  *net.UDPConn
	useOS bool
	os    osSock
}

// NewPacketConn wraps conn for batched I/O with the given maximum
// batch size. portable forces the one-datagram-per-syscall fallback.
func NewPacketConn(conn *net.UDPConn, batch int, portable bool) *PacketConn {
	if batch < 1 {
		batch = DefaultBatch
	}
	pc := &PacketConn{conn: conn}
	if osBatchSupported && !portable {
		if err := initOSState(&pc.os, conn, batch); err == nil {
			pc.useOS = true
		}
	}
	return pc
}

// ReadBatch blocks for at least one datagram and fills up to
// min(len(bufs), batch) of them: payload into bufs[i] (caller-owned,
// reused across calls), length into sizes[i], source into addrs[i]. It
// returns the datagram count; a count of zero with a nil error is a
// transient kernel condition and the caller should retry. A datagram
// whose source address cannot be decoded reports an invalid addrs[i]
// for the caller to skip.
func (pc *PacketConn) ReadBatch(bufs [][]byte, sizes []int, addrs []netip.AddrPort) (int, error) {
	if pc.useOS {
		return pc.readBatchOS(bufs, sizes, addrs)
	}
	n, src, err := pc.conn.ReadFromUDPAddrPort(bufs[0])
	if err != nil {
		return 0, err
	}
	sizes[0] = n
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
