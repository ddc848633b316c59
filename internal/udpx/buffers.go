package udpx

import (
	"net/netip"
	"sync"

	"govdns/internal/pktbuf"
)

// sendReq is one queued datagram on a socket's send ring: the
// destination and a private copy of the query bytes (the transport
// patches its own transaction ID into the copy, never the caller's
// slice, which the resolver's arena owns and may reuse on retry).
type sendReq struct {
	dest netip.AddrPort
	n    int
	b    pktbuf.Array
}

var sendReqPool = sync.Pool{New: func() any { return new(sendReq) }}

func getSendReq() *sendReq  { return sendReqPool.Get().(*sendReq) }
func putSendReq(r *sendReq) { sendReqPool.Put(r) }
