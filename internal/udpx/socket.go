package udpx

import (
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"

	"govdns/internal/pktbuf"
)

// slot is one wire transaction ID's entry in a socket's demux table:
// the waiter of the exchange that holds the ID, plus the generation it
// registered under, so a reader that copied the slot just before the
// waiter was completed and recycled can never complete its next life.
// The zero slot is a free ID.
type slot struct {
	w   *waiter
	gen uint32
}

// idStripes is the number of mutexes guarding one socket's slots; an ID
// is guarded by lock ID mod idStripes. IDs come out of the socket's
// permutation scattered over the space, so concurrent exchanges land on
// the same lock no more often than chance.
const idStripes = 64

// permuteID maps a cursor value c to a wire transaction ID through a
// keyed bijection of the 16-bit space: a four-round Feistel network over
// c's two bytes, one round per 32-bit word of the socket's key. Every
// cursor value still names its own slot, so the occupancy probe works as
// before, but successive cursor values no longer give successive IDs:
// without the key, an off-path attacker cannot predict the next ID.
func (s *sock) permuteID(c uint16) uint16 {
	l, r := uint8(c>>8), uint8(c)
	for _, rk := range s.key {
		l, r = r, l^uint8((uint32(r)^rk)*0x9E3779B1>>24)
	}
	return uint16(l)<<8 | uint16(r)
}

// sock is one pooled socket: the connection, its slot table, its
// bounded send ring, and the batch scratch its two loops hand to the
// PacketConn. Each sock owns two goroutines — sendLoop drains the ring,
// recvLoop drains the wire — for the transport's lifetime.
type sock struct {
	t    *BatchTransport
	conn *net.UDPConn
	pc   *PacketConn
	ring chan *sendReq

	// slots is indexed by wire transaction ID (1 MiB). reserve probes
	// next at permuteID(cursor), under a key New draws from crypto/rand;
	// live counts filled slots plus reservations still probing, which is
	// what bounds them at len(slots).
	slots  [maxInflightPerSock]slot
	locks  [idStripes]sync.Mutex
	key    [4]uint32
	cursor atomic.Uint32
	live   atomic.Int32

	// batch is sendLoop's drain scratch, capacity DefaultBatch; sbufs and
	// saddrs are the same requests as WriteBatch wants them.
	batch  []*sendReq
	sbufs  [][]byte
	saddrs []netip.AddrPort

	// rbufs are ReadBatch's slots, filled with buffers it lends from the
	// packet pool; dispatch hands each on to deliver, which takes
	// ownership. raddrs are the datagrams' sources.
	rbufs  [][]byte
	raddrs []netip.AddrPort
}

func newSock(t *BatchTransport, conn *net.UDPConn, key [4]uint32) *sock {
	// A shared socket absorbs whole batches of responses between
	// scheduler slots; a deep kernel buffer is what keeps burst loss
	// out of the loopback differential. Best-effort (capped by
	// net.core.rmem_max unless privileged).
	_ = conn.SetReadBuffer(1 << 20)
	_ = conn.SetWriteBuffer(1 << 20)
	return &sock{
		t:      t,
		conn:   conn,
		key:    key,
		pc:     NewPacketConn(conn, DefaultBatch, t.cfg.Portable),
		ring:   make(chan *sendReq, DefaultRing),
		batch:  make([]*sendReq, 0, DefaultBatch),
		sbufs:  make([][]byte, DefaultBatch),
		saddrs: make([]netip.AddrPort, DefaultBatch),
		rbufs:  make([][]byte, DefaultBatch),
		raddrs: make([]netip.AddrPort, DefaultBatch),
	}
}

// stripe returns the mutex guarding slots[id].
func (s *sock) stripe(id uint16) *sync.Mutex { return &s.locks[id%idStripes] }

// sendLoop drains the ring: block for the first request, opportunistic
// drain up to the batch bound, one WriteBatch for the lot. Send errors
// are swallowed — an unreachable destination's query times out on its
// own deadline exactly as a datagram lost in the network would, which
// is the semantics the resolver's retry loop is built for.
func (s *sock) sendLoop() {
	for {
		var first *sendReq
		select {
		case <-s.t.done:
			return
		case first = <-s.ring:
		}
		s.batch = append(s.batch[:0], first)
		// One yield between the blocking receive and the drain: on a
		// loaded scheduler the enqueuing workers run and the ring fills,
		// so the drain below collects a real batch instead of the lone
		// request that woke us (the hot sendLoop otherwise wins the race
		// to the ring every time and degrades to one datagram per
		// syscall). Under light load the yield is a no-op returning
		// immediately, and latency is unaffected.
		runtime.Gosched()
	fill:
		for len(s.batch) < cap(s.batch) {
			select {
			case r := <-s.ring:
				s.batch = append(s.batch, r)
			default:
				break fill
			}
		}
		n := len(s.batch)
		for i, r := range s.batch {
			s.sbufs[i] = r.b[:r.n]
			s.saddrs[i] = r.dest
		}
		syscalls := s.pc.WriteBatch(s.sbufs[:n], s.saddrs[:n])
		for i, r := range s.batch {
			putSendReq(r)
			s.batch[i] = nil
		}
		// Bound at the first batch, not at start: New starts this loop,
		// and the caller's AttachRegistry must still win.
		m := s.t.metrics()
		m.sendBatch.Inc()
		m.sendDgrams.Add(uint64(n))
		if n > syscalls {
			m.sysSaved.Add(uint64(n - syscalls))
		}
	}
}

// recvLoop drains the socket until it is closed: one ReadBatch per
// round, then dispatch.
func (s *sock) recvLoop() {
	for {
		got, err := s.pc.ReadBatch(s.rbufs, s.raddrs)
		if err != nil {
			if s.t.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient (an ICMP bounce cannot reach an unconnected
			// socket, but be safe): keep reading.
			continue
		}
		if got > 0 {
			s.dispatch(got)
		}
	}
}

// dispatch demuxes the first got receive slots through deliver, each
// datagram in the buffer ReadBatch lent it: deliver takes ownership, so
// the hand-off copies nothing, and the slot is left empty. A datagram
// whose source the kernel could not name is counted and its buffer
// goes back to the pool.
func (s *sock) dispatch(got int) {
	m := s.t.metrics()
	m.recvBatch.Inc()
	if got > 1 {
		m.sysSaved.Add(uint64(got - 1))
	}
	for i := 0; i < got; i++ {
		buf := s.rbufs[i]
		s.rbufs[i] = nil
		if !s.raddrs[i].IsValid() {
			m.malformed.Inc()
			pktbuf.Put(buf)
			continue
		}
		s.t.deliver(s, buf, s.raddrs[i])
	}
}
