package udpx

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"unsafe"

	"govdns/internal/pktbuf"
)

// FuzzDispatch feeds arbitrary datagrams from arbitrary sources through
// the receive demux (dispatch → deliver) of two sockets, each holding
// registered exchanges. The input is a sequence of records, each a
// selector byte, a length byte and that many payload bytes. The
// selector picks the socket the datagram arrives on (bit 0), its source
// (bits 1–3: a registered destination, its v4-mapped form, a wrong port,
// a stranger, or one the kernel could not name) and, when bit 4 is set,
// overwrites the payload's ID with the wire ID of waiter bits 5–7, so
// the fuzzer reaches live slots without guessing 16-bit IDs.
//
// Nothing may panic; a datagram completes an exchange exactly when it
// is a DNS answer (12 bytes or more, QR bit set) and its (socket, ID,
// source) matches one still pending, which then receives
// that datagram's own lent buffer with its caller's ID restored; and
// every other lent buffer is counted as a miss or as malformed — the
// two paths that return it to the pool — with no receive slot left
// holding one.
func FuzzDispatch(f *testing.F) {
	f.Add([]byte{0x10, 12, 0, 0, 0x81, 0, 0, 1, 0, 0, 0, 0, 0, 0})                                                  // answers waiter 0
	f.Add([]byte{0x10, 12, 0, 0, 0x81, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x10, 12, 0, 0, 0x81, 0, 0, 1, 0, 0, 0, 0, 0, 0}) // and a duplicate
	f.Add([]byte{0x73, 14, 0, 0, 0x81, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xab, 0xcd})                                      // waiter 3, other socket
	f.Add([]byte{0x11, 12, 0, 0, 0x81, 0, 0, 1, 0, 0, 0, 0, 0, 0})                                                  // waiter 0's ID, wrong socket
	f.Add([]byte{0x16, 12, 0, 0, 0x81, 0, 0, 1, 0, 0, 0, 0, 0, 0})                                                  // wrong port
	f.Add([]byte{0x14, 12, 0, 0, 0x81, 0, 0, 1, 0, 0, 0, 0, 0, 0})                                                  // v4-mapped source
	f.Add([]byte{0x18, 12, 0, 0, 0x81, 0, 0, 1, 0, 0, 0, 0, 0, 0})                                                  // unnamed source
	f.Add([]byte{0x10, 12, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x10, 12, 0, 0, 0x81, 0, 0, 1, 0, 0, 0, 0, 0, 0})    // QR clear, then the answer
	f.Add([]byte{0x10, 5, 1, 2, 3, 4, 5})                                                                           // runt

	tr := &BatchTransport{}
	var socks [2]*sock
	for i := range socks {
		socks[i] = &sock{
			t:      tr,
			key:    [4]uint32{uint32(i) + 1}, // distinct keys: distinct wire IDs
			rbufs:  make([][]byte, DefaultBatch),
			raddrs: make([]netip.AddrPort, DefaultBatch),
		}
	}
	dests := [2]netip.AddrPort{netip.MustParseAddrPort("192.0.2.1:53"), netip.MustParseAddrPort("192.0.2.2:5353")}
	sources := [8]netip.AddrPort{
		dests[0],
		dests[1],
		netip.AddrPortFrom(netip.AddrFrom16(dests[0].Addr().As16()), dests[0].Port()),
		netip.AddrPortFrom(dests[0].Addr(), dests[0].Port()+1),
		{},
		netip.MustParseAddrPort("198.51.100.7:53"),
		netip.AddrPortFrom(netip.AddrFrom16(dests[1].Addr().As16()), dests[1].Port()),
		{},
	}
	const nWaiters = 8

	f.Fuzz(func(t *testing.T, data []byte) {
		type exchange struct {
			w       *waiter
			gen     uint32
			s       *sock
			pending bool
			want    []byte // expected response bytes, nil if none
			wantBuf *byte  // the lent array the response must arrive in
		}
		var ex [nWaiters]exchange
		for k := range ex {
			s := socks[k&1]
			w, gen := tr.getWaiter()
			w.origID = uint16(0xA000 + k)
			if err := tr.reserve(s, dests[(k>>1)&1], w, gen); err != nil {
				t.Fatal(err)
			}
			ex[k] = exchange{w: w, gen: gen, s: s, pending: true}
		}

		var got [2]int
		var wantMisses, wantMalformed, wantRecv uint64
		for len(data) >= 2 {
			sel, n := data[0], int(data[1])
			data = data[2:]
			n = min(n, len(data))
			payload := data[:n]
			data = data[n:]
			si := int(sel & 1)
			s := socks[si]
			if got[si] == DefaultBatch {
				continue
			}
			buf := pktbuf.Get()[:n]
			copy(buf, payload)
			if sel&0x10 != 0 && n >= 2 {
				binary.BigEndian.PutUint16(buf, ex[sel>>5].w.wireID)
			}
			src := sources[(sel>>1)&7]
			s.rbufs[got[si]], s.raddrs[got[si]] = buf, src
			got[si]++

			// The oracle: what this datagram should do.
			if !src.IsValid() {
				wantMalformed++
				continue
			}
			wantRecv++
			if n < 12 || buf[2]&0x80 == 0 { // a runt, or QR clear: no answer
				wantMalformed++
				continue
			}
			matched := false
			id := binary.BigEndian.Uint16(buf)
			for k := range ex {
				e := &ex[k]
				if e.pending && e.s == s && e.w.wireID == id && e.w.dest == netip.AddrPortFrom(src.Addr().Unmap(), src.Port()) {
					e.pending = false
					e.want = append([]byte(nil), buf...)
					binary.BigEndian.PutUint16(e.want, e.w.origID)
					e.wantBuf = unsafe.SliceData(buf)
					matched = true
					break
				}
			}
			if !matched {
				wantMisses++
			}
		}

		m := tr.metrics()
		misses0, malformed0, recv0 := m.misses.Load(), m.malformed.Load(), m.recvDgrams.Load()
		for si, s := range socks {
			if got[si] > 0 {
				s.dispatch(got[si])
			}
			for i, b := range s.rbufs {
				if b != nil {
					t.Fatalf("socket %d: receive slot %d still holds a buffer after dispatch", si, i)
				}
			}
		}
		if d := m.misses.Load() - misses0; d != wantMisses {
			t.Errorf("demux misses %d, want %d", d, wantMisses)
		}
		if d := m.malformed.Load() - malformed0; d != wantMalformed {
			t.Errorf("malformed %d, want %d", d, wantMalformed)
		}
		if d := m.recvDgrams.Load() - recv0; d != wantRecv {
			t.Errorf("received %d, want %d", d, wantRecv)
		}

		for k := range ex {
			e := &ex[k]
			select {
			case res := <-e.w.ch:
				switch {
				case e.want == nil:
					t.Errorf("waiter %d completed by a datagram that does not match it", k)
				case res.err != nil || !bytes.Equal(res.buf, e.want):
					t.Errorf("waiter %d got %x (err %v), want %x", k, res.buf, res.err, e.want)
				case unsafe.SliceData(res.buf) != e.wantBuf:
					t.Errorf("waiter %d got its datagram in another buffer than the one lent for it", k)
				}
				pktbuf.Put(res.buf)
			default:
				if e.want != nil {
					t.Errorf("waiter %d never got the datagram matching it", k)
				}
				if !e.w.complete(e.gen, stCancelled) {
					t.Fatalf("waiter %d completed without a result", k)
				}
				tr.unregister(e.w, e.gen)
			}
			tr.putWaiter(e.w)
		}
		for si, s := range socks {
			if n := s.live.Load(); n != 0 {
				t.Fatalf("socket %d holds %d registrations after cleanup", si, n)
			}
			s.cursor.Store(0) // the next input sees the same wire IDs
		}
	})
}
