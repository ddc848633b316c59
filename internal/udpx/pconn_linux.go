//go:build linux && (amd64 || arm64)

package udpx

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// readBatchOS is ReadBatch over recvmmsg: one netpoller-integrated
// syscall round fills up to min(len(bufs), batch) caller buffers.
// Arming writes preallocated header/iovec/sockaddr slots, so the
// steady state allocates nothing.
func (pc *PacketConn) readBatchOS(bufs [][]byte, sizes []int, addrs []netip.AddrPort) (int, error) {
	os := &pc.os
	b := len(bufs)
	if b > len(os.rhdrs) {
		b = len(os.rhdrs)
	}
	for i := 0; i < b; i++ {
		os.riovs[i].Base = &bufs[i][0]
		os.riovs[i].Len = uint64(len(bufs[i]))
		h := &os.rhdrs[i]
		h.hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&os.rnames[i])),
			Namelen: syscall.SizeofSockaddrInet6,
			Iov:     &os.riovs[i],
			Iovlen:  1,
		}
		h.n = 0
	}
	os.rwant = b
	if err := os.rc.Read(os.recvFn); err != nil {
		return 0, err
	}
	got := os.got
	if got <= 0 {
		return 0, nil // transient; caller retries
	}
	for i := 0; i < got; i++ {
		sizes[i] = int(os.rhdrs[i].n)
		src, ok := getSockaddr(&os.rnames[i])
		if !ok {
			src = netip.AddrPort{}
		}
		addrs[i] = src
	}
	return got, nil
}

// writeBatchOS is WriteBatch over sendmmsg, chunked to the armed batch
// capacity. A persistent kernel error drops everything still unsent.
func (pc *PacketConn) writeBatchOS(bufs [][]byte, addrs []netip.AddrPort) int {
	os := &pc.os
	syscalls := 0
	for off := 0; off < len(bufs); off += len(os.shdrs) {
		end := off + len(os.shdrs)
		if end > len(bufs) {
			end = len(bufs)
		}
		n := end - off
		for i := 0; i < n; i++ {
			os.siovs[i].Base = &bufs[off+i][0]
			os.siovs[i].Len = uint64(len(bufs[off+i]))
			nameLen := putSockaddr(&os.snames[i], addrs[off+i])
			h := &os.shdrs[i]
			h.hdr = syscall.Msghdr{
				Name:    (*byte)(unsafe.Pointer(&os.snames[i])),
				Namelen: nameLen,
				Iov:     &os.siovs[i],
				Iovlen:  1,
			}
			h.n = 0
		}
		os.sendN = n
		os.sendOff = 0
		for os.sendOff < n {
			err := os.rc.Write(os.sendFn)
			syscalls++
			if err != nil || os.sn <= 0 {
				return syscalls
			}
			os.sendOff += os.sn
		}
	}
	return syscalls
}
