package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"govdns/internal/dnsname"
)

// Encoding errors.
var (
	// ErrMessageTooLarge indicates the encoded message would exceed the
	// 64 KiB DNS message limit even before UDP truncation.
	ErrMessageTooLarge = errors.New("dnswire: message exceeds 64KiB")
	// ErrBadRecord indicates a record that cannot be encoded (e.g. nil
	// payload).
	ErrBadRecord = errors.New("dnswire: unencodable record")
)

// compSlots sizes the flat compression table. Each stored suffix is
// followed by at least two emitted bytes (its length octet and first
// label byte), so any message the serving tier can actually send over
// UDP (≤ MaxUDPPayload before truncation handling) stores at most ~256
// suffixes — the table cannot fill on those, keeping output
// byte-identical to the unbounded map it replaces. Must be a power of
// two.
const compSlots = 512

type compEntry struct {
	gen  uint64
	off  uint16
	name dnsname.Name
}

// compTable is a linear-probe map from canonical name suffix to the
// offset of its first occurrence, the compression-pointer target of
// RFC 1035 §4.1.4. Reset is O(1): bumping gen invalidates every entry
// without clearing it. Stale entries may pin arena-borrowed names from
// a previous message; they are never read (the generation check runs
// first) and the bytes they alias stay allocated with the arena, so the
// dangling references are memory-safe by construction.
type compTable struct {
	gen     uint64
	entries [compSlots]compEntry
}

// reset invalidates all entries. The zero table has gen 0, matching the
// zero entries, so the first reset must run before any lookup — Encode
// always resets up front.
func (t *compTable) reset() { t.gen++ }

// find probes for n. It returns its stored offset if present; otherwise
// slot is the insertion slot for n, or -1 when the table is full.
func (t *compTable) find(n dnsname.Name) (off int, found bool, slot int) {
	h := hashName(n)
	for i := 0; i < compSlots; i++ {
		idx := (h + uint32(i)) & (compSlots - 1)
		e := &t.entries[idx]
		if e.gen != t.gen {
			return 0, false, int(idx)
		}
		if e.name == n {
			return int(e.off), true, -1
		}
	}
	return 0, false, -1
}

// store records n at slot, as returned by find.
func (t *compTable) store(slot int, n dnsname.Name, off int) {
	t.entries[slot] = compEntry{gen: t.gen, off: uint16(off), name: n}
}

// hashName is FNV-1a over the name bytes.
func hashName(n dnsname.Name) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(n); i++ {
		h ^= uint32(n[i])
		h *= 16777619
	}
	return h
}

// encoder serialises a message with RFC 1035 §4.1.4 name compression,
// writing into its arena's output buffer.
type encoder struct {
	a *Arena
}

// Encode serialises m into an owned buffer. It is the allocating
// convenience form of Arena.Encode; hot paths encode on a pooled arena.
// The result may exceed MaxUDPPayload; callers sending over UDP should
// use Arena.EncodeLimit.
func Encode(m *Message) ([]byte, error) {
	a := DefaultPool.Get()
	defer a.Finish()
	wire, err := a.Encode(m)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), wire...), nil
}

// Encode serialises m into the arena's output buffer. The result aliases
// the arena and is valid until the next Encode on this arena or Finish
// (sending it on the wire or hashing it is fine; retaining it is not).
// The result may exceed MaxUDPPayload; callers sending over UDP should
// use EncodeUDP.
func (a *Arena) Encode(m *Message) ([]byte, error) {
	a.out = a.out[:0]
	a.comp.reset()
	e := encoder{a: a}
	if err := e.message(m); err != nil {
		return nil, err
	}
	if len(a.out) > 0xFFFF {
		return nil, ErrMessageTooLarge
	}
	return a.out, nil
}

// EncodeUDP serialises m for a UDP datagram on the arena. If the full
// encoding exceeds MaxUDPPayload, the answer/authority/additional
// sections are emptied and the TC bit is set, as an RFC 1035 server
// would. The result borrows the arena like Encode's.
func (a *Arena) EncodeUDP(m *Message) ([]byte, error) {
	wire, err := a.Encode(m)
	if err != nil {
		return nil, err
	}
	if len(wire) <= MaxUDPPayload {
		return wire, nil
	}
	truncated := Message{Header: m.Header, Questions: m.Questions}
	truncated.Header.Truncated = true
	return a.Encode(&truncated)
}

// EncodeLimit serialises m for a transport whose payload limit is max
// bytes. A message that fits encodes bit-identically to Encode.
// Otherwise the TC bit is set and whole records are dropped — the
// additional section first, then authority, then answers, each losing
// records from its tail — until the message fits, so the truncated
// output still decodes cleanly and every surviving RRset prefix is
// intact. A trailing OPT pseudo-record survives truncation (the client
// must still learn the responder's EDNS0 buffer size); the question
// section is never dropped, which cannot overflow any max >=
// MaxUDPPayload. The result borrows the arena like Encode's.
//
// This is the RFC-faithful alternative to EncodeUDP's empty-all-sections
// truncation, and the encoder of every served answer: the serving
// tier's negotiated EDNS0 limits and TCP, and every scan exchange (the
// simulated network answers through the same serving path), so the
// scan digests pin EncodeLimit's output.
func (a *Arena) EncodeLimit(m *Message, max int) ([]byte, error) {
	wire, err := a.Encode(m)
	if err != nil || len(wire) <= max {
		return wire, err
	}

	// Split a trailing OPT off the additional section so it can be
	// re-appended after the droppable records. (The serving tier always
	// places its OPT last; an OPT anywhere else is droppable like any
	// other additional record.)
	var opt []RR
	add := m.Additional
	if n := len(add); n > 0 && add[n-1].Type() == TypeOPT {
		opt = add[n-1 : n : n]
		add = add[: n-1 : n-1]
	}

	// encodeKept serialises m with only the first k records (in
	// answer/authority/additional section order) plus the OPT tail.
	// Dropping from the tail keeps every surviving record's compression
	// context intact, so encoded size is monotone in k.
	encodeKept := func(k int) ([]byte, error) {
		t := Message{Header: m.Header, Questions: m.Questions}
		t.Header.Truncated = true
		na := min(k, len(m.Answers))
		k -= na
		nu := min(k, len(m.Authority))
		k -= nu
		nd := min(k, len(add))
		t.Answers = m.Answers[:na]
		t.Authority = m.Authority[:nu]
		switch {
		case opt == nil:
			t.Additional = add[:nd]
		case nd == len(add):
			t.Additional = m.Additional // contiguous: plain records + OPT
		case nd == 0:
			t.Additional = opt
		default:
			t.Additional = append(append([]RR(nil), add[:nd]...), opt...)
		}
		return a.Encode(&t)
	}

	// Binary-search the largest record count that fits. lo is always a
	// known-fitting count (0 fits for any practical limit; if even the
	// header+question+OPT overflow max, best effort returns that).
	total := len(m.Answers) + len(m.Authority) + len(add)
	lo, hi := 0, total
	for lo < hi {
		mid := (lo + hi + 1) / 2
		w, err := encodeKept(mid)
		if err != nil {
			return nil, err
		}
		if len(w) <= max {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return encodeKept(lo)
}

func (e *encoder) message(m *Message) error {
	e.header(m)
	for _, q := range m.Questions {
		if err := e.question(q); err != nil {
			return err
		}
	}
	for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if err := e.record(rr); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *encoder) header(m *Message) {
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.Opcode&0xF) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode & 0xF)

	e.uint16(m.Header.ID)
	e.uint16(flags)
	e.uint16(uint16(len(m.Questions)))
	e.uint16(uint16(len(m.Answers)))
	e.uint16(uint16(len(m.Authority)))
	e.uint16(uint16(len(m.Additional)))
}

func (e *encoder) question(q Question) error {
	if err := e.name(q.Name); err != nil {
		return err
	}
	e.uint16(uint16(q.Type))
	e.uint16(uint16(q.Class))
	return nil
}

func (e *encoder) record(rr RR) error {
	if rr.Data == nil {
		return fmt.Errorf("%w: nil RDATA for %q", ErrBadRecord, rr.Name)
	}
	if err := e.name(rr.Name); err != nil {
		return err
	}
	e.uint16(uint16(rr.Type()))
	e.uint16(uint16(rr.Class))
	e.uint32(rr.TTL)

	// Reserve RDLENGTH, encode RDATA, then patch the length in.
	lenAt := len(e.a.out)
	e.uint16(0)
	start := len(e.a.out)
	if err := e.rdata(rr.Data); err != nil {
		return err
	}
	rdlen := len(e.a.out) - start
	if rdlen > 0xFFFF {
		return fmt.Errorf("%w: RDATA of %q is %d bytes", ErrBadRecord, rr.Name, rdlen)
	}
	binary.BigEndian.PutUint16(e.a.out[lenAt:], uint16(rdlen))
	return nil
}

func (e *encoder) rdata(data RData) error {
	switch d := data.(type) {
	case NSData:
		return e.name(d.Host)
	case CNAMEData:
		return e.name(d.Target)
	case PTRData:
		return e.name(d.Target)
	case AData:
		if !d.Addr.Is4() {
			return fmt.Errorf("%w: A record with non-IPv4 address %s", ErrBadRecord, d.Addr)
		}
		a4 := d.Addr.As4()
		e.a.out = append(e.a.out, a4[:]...)
		return nil
	case AAAAData:
		if !d.Addr.Is6() || d.Addr.Is4() {
			return fmt.Errorf("%w: AAAA record with non-IPv6 address %s", ErrBadRecord, d.Addr)
		}
		a16 := d.Addr.As16()
		e.a.out = append(e.a.out, a16[:]...)
		return nil
	case MXData:
		e.uint16(d.Preference)
		return e.name(d.Exchange)
	case TXTData:
		if len(d.Strings) == 0 {
			return fmt.Errorf("%w: TXT record with no strings", ErrBadRecord)
		}
		for _, s := range d.Strings {
			if len(s) > 255 {
				return fmt.Errorf("%w: TXT string of %d bytes", ErrBadRecord, len(s))
			}
			e.a.out = append(e.a.out, byte(len(s)))
			e.a.out = append(e.a.out, s...)
		}
		return nil
	case SOAData:
		if err := e.name(d.MName); err != nil {
			return err
		}
		if err := e.name(d.RName); err != nil {
			return err
		}
		e.uint32(d.Serial)
		e.uint32(d.Refresh)
		e.uint32(d.Retry)
		e.uint32(d.Expire)
		e.uint32(d.Minimum)
		return nil
	case CSYNCData:
		return e.encodeCSYNC(d)
	case OpaqueData:
		e.a.out = append(e.a.out, d.Bytes...)
		return nil
	default:
		return fmt.Errorf("%w: unsupported RDATA type %T", ErrBadRecord, data)
	}
}

// name encodes a domain name with compression: the longest previously
// emitted suffix is replaced by a two-byte pointer.
func (e *encoder) name(n dnsname.Name) error {
	if n == "" {
		return fmt.Errorf("%w: empty name", ErrBadRecord)
	}
	for !n.IsRoot() {
		off, found, slot := e.a.comp.find(n)
		if found {
			e.uint16(0xC000 | uint16(off))
			return nil
		}
		// Only offsets below 0x3FFF fit in a pointer; beyond that the
		// suffix is emitted but not remembered, as the map did.
		if slot >= 0 && len(e.a.out) < 0x3FFF {
			e.a.comp.store(slot, n, len(e.a.out))
		}
		label := string(n)[:strings.IndexByte(string(n), '.')]
		e.a.out = append(e.a.out, byte(len(label)))
		e.a.out = append(e.a.out, label...)
		n = n.Parent()
	}
	e.a.out = append(e.a.out, 0)
	return nil
}

func (e *encoder) uint16(v uint16) {
	e.a.out = binary.BigEndian.AppendUint16(e.a.out, v)
}

func (e *encoder) uint32(v uint32) {
	e.a.out = binary.BigEndian.AppendUint32(e.a.out, v)
}
