package authserver

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// failingListener fails every Accept, as a listener does while the
// process is out of file descriptors.
type failingListener struct {
	accepts atomic.Int64
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	return nil, errors.New("accept: too many open files")
}

func (l *failingListener) Close() error   { return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestTCPAcceptErrorBacksOff: a listener whose Accept keeps failing is
// retried after a growing pause instead of in a tight loop (which makes
// hundreds of thousands of calls in 100 ms), and Close ends the pause:
// it returns only once the loop has exited.
func TestTCPAcceptErrorBacksOff(t *testing.T) {
	ln := &failingListener{}
	srv := serveTCP(ln, New("ns1.gov.br."), DefaultTCPIdleTimeout)
	time.Sleep(100 * time.Millisecond)
	// Pauses of 5, 10, 20 and 40 ms fit in the window: 5 calls, or fewer
	// on a slow machine.
	if n := ln.accepts.Load(); n < 1 || n > 10 {
		t.Errorf("Accept called %d times in 100 ms, want a handful", n)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while the accept loop was backing off")
	}
}
