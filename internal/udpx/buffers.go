package udpx

import (
	"net/netip"
	"sync"
	"unsafe"
)

// bufSize is the datagram buffer size: the de-facto EDNS0 practical
// ceiling, matching the dial transport and UDPServer.
const bufSize = 4096

// packetBuf is the pooled receive-buffer type. Pooling a pointer to a
// fixed-size array (rather than a *[]byte) keeps checkout and return
// allocation-free: the handed-out slice is (*arr)[:n], and return
// recovers the array pointer from the slice's data pointer.
type packetBuf [bufSize]byte

var bufPool = sync.Pool{New: func() any { return new(packetBuf) }}

// GetBuf checks a full-capacity buffer out of the packet pool: the
// datagram buffer PacketConn.ReadBatch lends (to this package's sockets
// and authserver's read loop) and authserver's dial transport reads
// into.
func GetBuf() []byte {
	arr := bufPool.Get().(*packetBuf)
	return arr[:bufSize]
}

// PutBuf returns a buffer obtained from GetBuf to the pool. Buffers of
// any other capacity — a chaos replay copy, a caller-owned slice, a
// sub-slice — are recognized by capacity and left to the GC; only
// slices still spanning their original array are reclaimed, so the
// pointer recovery below is sound.
func PutBuf(buf []byte) {
	if cap(buf) != bufSize {
		return
	}
	arr := (*packetBuf)(unsafe.Pointer(unsafe.SliceData(buf[:bufSize])))
	bufPool.Put(arr)
}

// sendReq is one queued datagram on a socket's send ring: the
// destination and a private copy of the query bytes (the transport
// patches its own transaction ID into the copy, never the caller's
// slice, which the resolver's arena owns and may reuse on retry).
type sendReq struct {
	dest netip.AddrPort
	n    int
	b    packetBuf
}

var sendReqPool = sync.Pool{New: func() any { return new(sendReq) }}

func getSendReq() *sendReq  { return sendReqPool.Get().(*sendReq) }
func putSendReq(r *sendReq) { sendReqPool.Put(r) }
