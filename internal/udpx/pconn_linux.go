//go:build linux && (amd64 || arm64)

package udpx

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// readBatchOS is ReadBatch over recvmmsg: one netpoller-integrated
// syscall round into min(len(bufs), lend) buffers lent by recvFn.
func (pc *PacketConn) readBatchOS(bufs [][]byte, addrs []netip.AddrPort) (int, error) {
	os := &pc.os
	os.armRead(bufs[:min(len(bufs), pc.lend)])
	err := os.rc.Read(os.recvFn)
	os.rbufs = nil
	if err != nil {
		return 0, err
	}
	got := os.got
	pc.lend = min(pc.batch, max(1, 2*got))
	for i := 0; i < got; i++ {
		bufs[i] = bufs[i][:os.rhdrs[i].n]
		src, ok := getSockaddr(&os.rnames[i])
		if !ok {
			src = netip.AddrPort{}
		}
		addrs[i] = src
	}
	return got, nil // zero is transient; caller retries
}

// armRead points the next recvFn round at slots, first growing the
// receive header, iovec and sockaddr arrays if no round this large has
// been armed before.
func (os *osSock) armRead(slots [][]byte) {
	if b := len(slots); b > len(os.rhdrs) {
		os.rhdrs = make([]mmsghdr, b)
		os.riovs = make([]syscall.Iovec, b)
		os.rnames = make([]syscall.RawSockaddrInet6, b)
	}
	os.rbufs = slots
}

// writeBatchOS is WriteBatch over sendmmsg, chunked to the batch
// bound. A persistent kernel error drops everything still unsent.
func (pc *PacketConn) writeBatchOS(bufs [][]byte, addrs []netip.AddrPort) int {
	os := &pc.os
	if b := min(len(bufs), pc.batch); b > len(os.shdrs) {
		os.shdrs = make([]mmsghdr, b)
		os.siovs = make([]syscall.Iovec, b)
		os.snames = make([]syscall.RawSockaddrInet6, b)
	}
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
