//go:build linux && (amd64 || arm64)

// Batched UDP syscalls via sendmmsg(2)/recvmmsg(2). The module has no
// dependencies, so this speaks raw syscall numbers through the stdlib
// syscall package instead of x/sys/unix; the numbers and the mmsghdr
// layout are per-arch (mmsg_linux_amd64.go / mmsg_linux_arm64.go carry
// the syscall numbers; Msghdr.Iovlen is uint64 on both, which the build
// tag guarantees). The RawConn Read/Write callbacks integrate with the
// runtime netpoller: the syscalls run MSG_DONTWAIT and return false on
// EAGAIN, parking the goroutine until the socket is ready instead of
// spinning.
package udpx

import (
	"encoding/binary"
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"govdns/internal/pktbuf"
)

const osBatchSupported = true

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// datagram length. Go pads the struct to 64 bytes on amd64/arm64,
// matching the C layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// osSock is a PacketConn's batched-syscall state. The header, iovec
// and sockaddr arrays are allocated on first need, sized to the largest
// round seen and never past the batch bound, so a socket that reads one
// datagram at a time never pays for a full batch of them; arming a
// round of a size already seen writes fields but never allocates.
type osSock struct {
	rc syscall.RawConn

	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames []syscall.RawSockaddrInet6

	shdrs  []mmsghdr
	siovs  []syscall.Iovec
	snames []syscall.RawSockaddrInet6

	// The RawConn callbacks are built once here and communicate through
	// the fields below — a fresh closure per batch would put one heap
	// allocation on the steady-state hot path. recvFn/rbufs/got belong
	// to the goroutine in ReadBatch, sendFn/sendOff/sendN/sn to the one
	// in WriteBatch.
	recvFn             func(fd uintptr) bool
	rbufs              [][]byte
	got                int
	sendFn             func(fd uintptr) bool
	sendOff, sendN, sn int
}

// initOSState builds the batched-syscall state over conn.
func initOSState(os *osSock, conn *net.UDPConn) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	*os = osSock{rc: rc}
	// recvFn runs only once the netpoller reports the socket readable
	// (or on the first, optimistic try): it lends a pooled buffer to
	// each of the len(rbufs) slots, reads, and returns every buffer the
	// kernel did not fill — all of them on EAGAIN or an error — so a
	// goroutine parked between tries holds none.
	os.recvFn = func(fd uintptr) bool {
		bufs := os.rbufs
		for i := range bufs {
			bufs[i] = pktbuf.Get()
			os.riovs[i] = syscall.Iovec{Base: &bufs[i][0], Len: pktbuf.Size}
			os.rhdrs[i] = mmsghdr{hdr: syscall.Msghdr{
				Name:    (*byte)(unsafe.Pointer(&os.rnames[i])),
				Namelen: syscall.SizeofSockaddrInet6,
				Iov:     &os.riovs[i],
				Iovlen:  1,
			}}
		}
		var r1 uintptr
		var errno syscall.Errno
		for {
			r1, _, errno = syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&os.rhdrs[0])), uintptr(len(bufs)),
				syscall.MSG_DONTWAIT, 0, 0)
			if errno != syscall.EINTR {
				break
			}
		}
		os.got = 0
		if errno == 0 {
			os.got = int(r1)
		}
		for i := range bufs {
			// A stale iovec would keep its buffer reachable after the
			// pool has let it go.
			os.riovs[i].Base = nil
			if i >= os.got {
				pktbuf.Put(bufs[i])
				bufs[i] = nil
			}
		}
		// Any other error reports ready with nothing read: ReadBatch's
		// transient zero.
		return errno != syscall.EAGAIN
	}
	os.sendFn = func(fd uintptr) bool {
		for {
			r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&os.shdrs[os.sendOff])), uintptr(os.sendN-os.sendOff),
				syscall.MSG_DONTWAIT, 0, 0)
			switch errno {
			case 0:
				os.sn = int(r1)
				return true
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			default:
				os.sn = -1
				return true
			}
		}
	}
	return nil
}

// putSockaddr encodes dest into the raw sockaddr slot (the Inet6
// storage is large enough for both families) and returns the length
// the kernel expects. Port is big-endian in raw sockaddrs.
func putSockaddr(sa *syscall.RawSockaddrInet6, dest netip.AddrPort) uint32 {
	if a := dest.Addr(); a.Is4() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa4.Port))[:], dest.Port())
		return syscall.SizeofSockaddrInet4
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: dest.Addr().As16()}
	binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], dest.Port())
	return syscall.SizeofSockaddrInet6
}

// getSockaddr decodes a kernel-filled raw sockaddr into a netip
// address (deliver unmaps v4-in-v6 for consistent demux keys).
func getSockaddr(sa *syscall.RawSockaddrInet6) (netip.AddrPort, bool) {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		port := binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa4.Port))[:])
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port), true
	case syscall.AF_INET6:
		port := binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:])
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), port), true
	}
	return netip.AddrPort{}, false
}
