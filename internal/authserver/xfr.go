package authserver

import (
	"context"
	"fmt"
	"net"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/zone"
)

// axfrBatch is how many records ride one AXFR response message. Batching
// keeps messages far below the 64 KiB frame ceiling for the record
// shapes the study's zones hold, while amortizing per-message framing.
const axfrBatch = 64

// serveAXFR streams a full zone transfer for the AXFR query in frame:
// an initial message carrying the question and the zone's SOA, batches
// of the remaining records in the zone's canonical order, and a closing
// SOA that marks the transfer complete (RFC 5936 shape, as coredns's
// transfer middleware implements it). Transfers require an exactly
// hosted origin on a healthy server; anything else gets the ordinary
// single-response treatment (REFUSED, a parking answer, or a drop).
//
// The return value reports whether the connection is still usable; a
// failed write means the peer is gone and the serving loop should exit.
func (s *Server) serveAXFR(conn net.Conn, frame []byte, idle time.Duration) bool {
	s.mu.RLock()
	behavior := s.behavior
	pool := s.pool
	s.mu.RUnlock()
	if pool == nil {
		pool = wirePool
	}
	a := pool.Get()
	defer a.Finish()

	query, err := a.Decode(frame)
	if err != nil || len(query.Questions) != 1 {
		return s.writeSingle(conn, frame, idle)
	}
	q := query.Question()
	var z *zone.Zone
	if behavior == BehaviorHealthy && q.Class == dnswire.ClassIN {
		z, _ = s.ZoneByOrigin(q.Name)
	}
	if z == nil {
		return s.writeSingle(conn, frame, idle)
	}
	soa, err := z.SOA()
	if err != nil {
		// A zone without a SOA cannot delimit a transfer; refuse it.
		return s.writeSingle(conn, frame, idle)
	}

	// One output buffer per transfer; each message encodes on the arena
	// (Encode resets only the output region, so the decoded query keeps
	// its storage) and is framed+written before the next encode reuses it.
	var out []byte
	flush := func(m *dnswire.Message) bool {
		enc, err := a.Encode(m)
		if err != nil || len(enc) > dnswire.MaxTCPPayload {
			return false
		}
		out = append(out[:0], byte(len(enc)>>8), byte(len(enc)))
		out = append(out, enc...)
		if idle > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(idle))
		}
		_, err = conn.Write(out)
		return err == nil
	}

	msg := dnswire.Message{
		Header: dnswire.Header{
			ID:            query.Header.ID,
			Response:      true,
			Opcode:        query.Header.Opcode,
			Authoritative: true,
		},
	}
	// Opening message: question echoed, SOA first.
	msg.Questions = query.Questions
	msg.Answers = []dnswire.RR{soa}
	if !flush(&msg) {
		return false
	}
	msg.Questions = nil

	// Middle messages: every record but the SOA, in Records()' canonical
	// (name, type, rdata) order — the order the conformance suite pins.
	records := z.Records()
	batch := make([]dnswire.RR, 0, axfrBatch)
	for _, rr := range records {
		if rr.Type() == dnswire.TypeSOA && rr.Name == z.Origin() {
			continue
		}
		batch = append(batch, rr)
		if len(batch) == axfrBatch {
			msg.Answers = batch
			if !flush(&msg) {
				return false
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		msg.Answers = batch
		if !flush(&msg) {
			return false
		}
	}

	// Closing SOA delimits the transfer.
	msg.Answers = []dnswire.RR{soa}
	return flush(&msg)
}

// writeSingle answers frame with the ordinary single-response pipeline
// (which REFUSES AXFR qtypes) and writes it framed. It reports whether
// the connection is still usable.
func (s *Server) writeSingle(conn net.Conn, frame []byte, idle time.Duration) bool {
	out, ok := s.serveWire(make([]byte, 2, 512), frame, TransportTCP)
	if !ok {
		return true // dropped: no response, stream still aligned
	}
	n := len(out) - 2
	out[0], out[1] = byte(n>>8), byte(n)
	if idle > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(idle))
	}
	_, err := conn.Write(out)
	return err == nil
}

// FetchZone performs an AXFR of origin from the primary at addr
// ("host:port") and returns the transferred zone. The transfer is
// complete when the SOA record repeats; the fetched zone carries the
// leading SOA and every record in between.
func FetchZone(ctx context.Context, addr string, origin dnsname.Name) (*zone.Zone, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("authserver: axfr dial %s: %w", addr, err)
	}
	defer func() { _ = conn.Close() }()
	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(deadline); err != nil {
			return nil, fmt.Errorf("authserver: axfr set deadline: %w", err)
		}
	}

	query := dnswire.NewQuery(1, origin, dnswire.TypeAXFR)
	wire, err := dnswire.Encode(query)
	if err != nil {
		return nil, fmt.Errorf("authserver: axfr encode: %w", err)
	}
	framed := make([]byte, 0, 2+len(wire))
	framed = append(framed, byte(len(wire)>>8), byte(len(wire)))
	framed = append(framed, wire...)
	if _, err := conn.Write(framed); err != nil {
		return nil, fmt.Errorf("authserver: axfr send: %w", err)
	}

	z := zone.NewBuilder(origin)
	soaSeen := 0
	var buf []byte
	for soaSeen < 2 {
		buf, err = readFrame(conn, buf)
		if err != nil {
			return nil, fmt.Errorf("authserver: axfr %s: %w", origin, err)
		}
		m, err := dnswire.Decode(buf)
		if err != nil {
			return nil, fmt.Errorf("authserver: axfr %s: bad message: %w", origin, err)
		}
		if m.Header.RCode != dnswire.RCodeNoError {
			return nil, fmt.Errorf("authserver: axfr %s: %s", origin, m.Header.RCode)
		}
		if len(m.Answers) == 0 {
			return nil, fmt.Errorf("authserver: axfr %s: empty transfer message", origin)
		}
		for _, rr := range m.Answers {
			if rr.Type() == dnswire.TypeSOA && rr.Name == origin {
				soaSeen++
				if soaSeen == 2 {
					break // trailing SOA: transfer complete
				}
			}
			if err := z.Add(rr); err != nil {
				return nil, fmt.Errorf("authserver: axfr %s: %w", origin, err)
			}
		}
	}
	return z.Freeze(), nil
}

// SyncZone bootstraps secondary as a replica of origin from the primary
// at addr: one AXFR, then an atomic zone install. Re-syncing later
// replaces the copy, so replication lag is however long the caller waits
// between syncs — a measurable quantity, not an assumption.
func SyncZone(ctx context.Context, addr string, origin dnsname.Name, secondary *Server) error {
	z, err := FetchZone(ctx, addr, origin)
	if err != nil {
		return err
	}
	secondary.AddZone(z)
	return nil
}
