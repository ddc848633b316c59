//go:build !linux || (!amd64 && !arm64)

// Platforms without the batched-syscall path: PacketConn moves one
// datagram per syscall via the AddrPort read/write APIs, and everything
// above it — ring drain, per-socket loops, shared sockets, per-exchange
// deadline timers — runs unchanged. See DESIGN.md § 14 for the matrix.
package udpx

import (
	"errors"
	"net"
	"net/netip"
)

const osBatchSupported = false

type osSock struct{}

func initOSState(*osSock, *net.UDPConn) error {
	return errors.New("udpx: batched syscalls unsupported on this platform")
}

func (pc *PacketConn) readBatchOS([][]byte, []netip.AddrPort) (int, error) {
	return 0, nil
}

func (pc *PacketConn) writeBatchOS([][]byte, []netip.AddrPort) int { return 0 }
