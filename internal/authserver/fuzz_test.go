package authserver

// FuzzTCPFraming throws arbitrary byte streams at the TCP serving loop:
// torn length prefixes, zero-length messages, oversized frames cut off
// by EOF, mid-stream garbage between valid queries. Whatever arrives,
// the server must not panic, must return every pooled arena, and must
// keep its output stream well-framed (each response a length-prefixed
// message that decodes) — the pipeline never desynchronizes.

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"govdns/internal/dnswire"
)

// streamConn is a deterministic net.Conn for fuzzing: reads drain a
// fixed input, writes accumulate in a buffer, deadlines no-op, and
// everything runs synchronously on the calling goroutine — no pipe
// half-close semantics to make iteration order matter.
type streamConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *streamConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *streamConn) Close() error                { return nil }

type streamAddr struct{}

func (streamAddr) Network() string { return "stream" }
func (streamAddr) String() string  { return "stream" }

func (c *streamConn) LocalAddr() net.Addr              { return streamAddr{} }
func (c *streamConn) RemoteAddr() net.Addr             { return streamAddr{} }
func (c *streamConn) SetDeadline(time.Time) error      { return nil }
func (c *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (c *streamConn) SetWriteDeadline(time.Time) error { return nil }

// frame wraps msg in a 2-byte length prefix.
func frame(msg []byte) []byte {
	out := make([]byte, 0, 2+len(msg))
	out = append(out, byte(len(msg)>>8), byte(len(msg)))
	return append(out, msg...)
}

func FuzzTCPFraming(f *testing.F) {
	valid, err := dnswire.Encode(dnswire.NewQuery(7, "www.gov.br.", dnswire.TypeA))
	if err != nil {
		f.Fatal(err)
	}
	axfr, err := dnswire.Encode(dnswire.NewQuery(8, "gov.br.", dnswire.TypeAXFR))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(valid))
	f.Add(append(frame(valid), frame(valid)...))               // pipelined pair
	f.Add(frame(valid)[:1])                                    // torn prefix
	f.Add(frame(valid)[:5])                                    // torn body
	f.Add([]byte{0x00, 0x00})                                  // zero-length frame
	f.Add(append([]byte{0x00, 0x00}, frame(valid)...))         // dead frame, then live query
	f.Add([]byte{0xFF, 0xFF, 0xDE, 0xAD})                      // oversized claim, tiny body
	f.Add(frame([]byte{0xAB}))                                 // sub-header garbage frame
	f.Add(frame(make([]byte, 20)))                             // header-shaped zeros
	f.Add(frame(axfr))                                         // zone transfer
	f.Add(append(frame([]byte("garbage!!")), frame(valid)...)) // garbage, then live query

	f.Fuzz(func(t *testing.T, stream []byte) {
		pool := dnswire.NewPool()
		s := New("ns1.gov.br.")
		z := testZone(t)
		s.AddZone(z)
		s.pool = pool
		s.SetCache(NewResponseCache())

		conn := &streamConn{in: bytes.NewReader(stream)}
		s.ServeTCPConn(conn, 0)

		// Every arena checked out during the stream came back.
		st := pool.Stats()
		if st.Checkouts != st.Recycles+st.Discards {
			t.Fatalf("arena leak: %d checkouts vs %d recycles + %d discards",
				st.Checkouts, st.Recycles, st.Discards)
		}

		// The output is a clean sequence of length-prefixed messages that
		// decode — a desynchronized pipeline would break the framing or
		// emit undecodable bytes.
		out := conn.out.Bytes()
		for len(out) > 0 {
			if len(out) < 2 {
				t.Fatalf("trailing partial length prefix: % x", out)
			}
			n := int(out[0])<<8 | int(out[1])
			if len(out) < 2+n {
				t.Fatalf("frame claims %d bytes, only %d remain", n, len(out)-2)
			}
			msg, err := dnswire.Decode(out[2 : 2+n])
			if err != nil {
				t.Fatalf("response frame does not decode: %v", err)
			}
			if !msg.Header.Response {
				t.Fatal("response frame without QR bit")
			}
			out = out[2+n:]
		}
	})
}

// TestTCPFramingSeedsDirect runs the fuzz scenarios that pin exact
// expectations tighter than the fuzz invariants: dead frames and garbage
// must not poison subsequent pipelined queries.
func TestTCPFramingResyncAfterGarbage(t *testing.T) {
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))

	valid, err := dnswire.Encode(dnswire.NewQuery(7, "www.gov.br.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	badHeader := make([]byte, 12)
	badHeader[0], badHeader[1] = 0xBE, 0xEF
	badHeader[5] = 1 // claims one question, carries none: decode fails past the header

	var stream []byte
	stream = append(stream, 0x00, 0x00)                    // zero-length frame
	stream = append(stream, frame([]byte("garbage!!"))...) // framed garbage (<12 B: dropped)
	stream = append(stream, frame(badHeader)...)           // readable header, torn body (FORMERR)
	stream = append(stream, frame(valid)...)               // live query must still answer

	conn := &streamConn{in: bytes.NewReader(stream)}
	s.ServeTCPConn(conn, 0)

	var msgs []*dnswire.Message
	r := bytes.NewReader(conn.out.Bytes())
	for {
		buf, err := readFrame(r, nil)
		if err != nil {
			if r.Len() == 0 {
				break
			}
			t.Fatalf("readFrame: %v", err)
		}
		m, err := dnswire.Decode(buf)
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		msgs = append(msgs, m)
		if r.Len() == 0 {
			break
		}
	}
	if len(msgs) != 2 {
		t.Fatalf("responses = %d, want 2 (FORMERR + answer)", len(msgs))
	}
	if msgs[0].Header.RCode != dnswire.RCodeFormErr {
		t.Errorf("first response RCode = %s, want FORMERR", msgs[0].Header.RCode)
	}
	if msgs[1].Header.ID != 7 || msgs[1].Header.RCode != dnswire.RCodeNoError || len(msgs[1].Answers) != 1 {
		t.Errorf("post-garbage query answered wrong: %s", msgs[1])
	}
}

// FuzzFetchZone plays a hostile primary to the AXFR client: a loopback
// listener takes FetchZone's query and answers with the fuzzed bytes as
// the length-prefixed reply stream, then hangs up. Whatever it sends,
// FetchZone must not panic, must return before its context's deadline,
// and a zone it accepts must hold only records inside the origin it
// asked for.
func FuzzFetchZone(f *testing.F) {
	// The seeds are a real transfer of the test zone — the server's own
	// AXFR stream — and cuts of it.
	axfr, err := dnswire.Encode(dnswire.NewQuery(1, "gov.br.", dnswire.TypeAXFR))
	if err != nil {
		f.Fatal(err)
	}
	s := New("ns1.gov.br.")
	s.AddZone(testZone(f))
	conn := &streamConn{in: bytes.NewReader(frame(axfr))}
	s.ServeTCPConn(conn, 0)
	transfer := conn.out.Bytes()
	f.Add(transfer)
	f.Add(transfer[:len(transfer)/2])
	f.Add(append(append([]byte(nil), transfer...), transfer...))
	f.Add([]byte{})

	// One listener serves every input: binding a fresh port per input
	// runs the host out of ports it will bind while earlier ones sit in
	// TIME_WAIT.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })

	f.Fuzz(func(t *testing.T, stream []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		deadline, _ := ctx.Deadline()
		// Inputs run one at a time, so the one connection Accept sees
		// is this input's; the deadline frees it if the dial never came.
		if err := ln.(*net.TCPListener).SetDeadline(deadline); err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			_ = conn.SetDeadline(deadline)
			if _, err := readFrame(conn, nil); err == nil {
				_, _ = conn.Write(stream)
			}
		}()
		defer func() { <-served }()

		z, err := FetchZone(ctx, ln.Addr().String(), "gov.br.")
		if !time.Now().Before(deadline) {
			t.Fatalf("FetchZone returned at its deadline (err %v)", err)
		}
		if err != nil {
			return
		}
		for _, rr := range z.Records() {
			if !rr.Name.IsSubdomainOf("gov.br.") {
				t.Fatalf("accepted zone holds %s, outside gov.br.", rr)
			}
		}
	})
}
