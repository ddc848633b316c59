//go:build linux && (amd64 || arm64)

package udpx

import "testing"

// TestRecvFnReturnsLentBuffersOnEAGAIN calls the read callback directly
// on an empty socket, as the netpoller's optimistic first try does: the
// read reports EAGAIN (not ready), and every buffer it lent is back in
// the pool — no slot holds one and no iovec still points at one — so a
// goroutine parked on an idle socket holds no datagram buffer.
func TestRecvFnReturnsLentBuffersOnEAGAIN(t *testing.T) {
	conn, _ := loopbackConn(t)
	pc := NewPacketConn(conn, 8, false)
	if !pc.useOS {
		t.Fatal("batched syscalls unavailable on a platform that builds them")
	}
	slots := make([][]byte, 4)
	pc.os.armRead(slots)
	var ready bool
	if err := pc.os.rc.Control(func(fd uintptr) { ready = pc.os.recvFn(fd) }); err != nil {
		t.Fatal(err)
	}
	if ready {
		t.Fatal("read callback on an empty socket reported ready")
	}
	for i, b := range slots {
		if b != nil {
			t.Errorf("slot %d still holds a lent buffer after EAGAIN", i)
		}
		if pc.os.riovs[i].Base != nil {
			t.Errorf("iovec %d still points at a lent buffer after EAGAIN", i)
		}
	}
}
