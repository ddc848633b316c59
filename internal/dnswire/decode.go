package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
	"strings"

	"govdns/internal/dnsname"
)

// Decoding errors.
var (
	// ErrTruncatedMessage indicates the buffer ended before a complete
	// message was read.
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	// ErrBadPointer indicates a compression pointer that is forward,
	// self-referential, or forms a loop.
	ErrBadPointer = errors.New("dnswire: bad compression pointer")
	// ErrBadName indicates a wire-format name that does not decode to a
	// valid domain name.
	ErrBadName = errors.New("dnswire: bad name")
)

// decoder walks a wire-format message, building names and opaque RDATA
// into the arena scratch.
type decoder struct {
	a   *Arena
	buf []byte
	pos int
}

// Decode parses a wire-format DNS message into an owned Message, safe to
// retain indefinitely: it decodes onto a fresh arena that never goes back
// to a pool, so nothing ever reuses the storage the message borrows. It
// is the allocating convenience form of Arena.Decode; hot paths check an
// arena out of a Pool and decode onto it directly.
func Decode(wire []byte) (*Message, error) {
	return new(Arena).Decode(wire)
}

// Decode parses a wire-format DNS message into the arena. The returned
// message borrows the arena: its names alias the arena scratch and its
// sections alias the arena record array, so it is valid only until the
// next Decode on this arena or Finish. Retain names with Name.Own and
// payload fields by value.
//
// An arena holds one decoded message at a time; Decode invalidates the
// previous one.
func (a *Arena) Decode(wire []byte) (*Message, error) {
	a.scratch = a.scratch[:0]
	a.rrsHigh = max(a.rrsHigh, len(a.rrs))
	a.qsHigh = max(a.qsHigh, len(a.qs))
	a.rrs = a.rrs[:0]
	a.qs = a.qs[:0]
	a.slabs.reset()
	a.rslot = Message{}
	m := &a.rslot

	d := decoder{a: a, buf: wire}
	qd, an, ns, ar, err := d.header(&m.Header)
	if err != nil {
		return nil, err
	}
	// Section counts are attacker-controlled; append rather than
	// preallocating so a forged header cannot demand gigantic arrays.
	for i := 0; i < int(qd); i++ {
		q, err := d.question()
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		a.qs = append(a.qs, q)
	}
	anEnd, err := d.section(int(an), "answer")
	if err != nil {
		return nil, err
	}
	nsEnd, err := d.section(int(ns), "authority")
	if err != nil {
		return nil, err
	}
	arEnd, err := d.section(int(ar), "additional")
	if err != nil {
		return nil, err
	}
	// Slice the sections only now: the append loops may have grown the
	// backing arrays. Capacities are clamped so an append on one section
	// can never clobber the next.
	if len(a.qs) > 0 {
		m.Questions = a.qs[0:len(a.qs):len(a.qs)]
	}
	m.Answers = sectionSlice(a.rrs, 0, anEnd)
	m.Authority = sectionSlice(a.rrs, anEnd, nsEnd)
	m.Additional = sectionSlice(a.rrs, nsEnd, arEnd)
	return m, nil
}

// section decodes count records into the arena record array, returning
// the end index of this section.
func (d *decoder) section(count int, name string) (int, error) {
	for i := 0; i < count; i++ {
		rr, err := d.record()
		if err != nil {
			return 0, fmt.Errorf("%s %d: %w", name, i, err)
		}
		d.a.rrs = append(d.a.rrs, rr)
	}
	return len(d.a.rrs), nil
}

func sectionSlice(rrs []RR, start, end int) []RR {
	if start == end {
		return nil
	}
	return rrs[start:end:end]
}

// PeekQuestion decodes wire on a pooled arena and returns an owned copy
// of its first question. ok is false when wire does not decode as a full
// message or carries no question; the decode outcome is identical to
// Decode's, so callers keying behaviour on the question (the chaos
// transport) classify exactly the packets Decode would accept.
func PeekQuestion(wire []byte) (Question, bool) {
	a := DefaultPool.Get()
	defer a.Finish()
	m, err := a.Decode(wire)
	if err != nil || len(m.Questions) == 0 {
		return Question{}, false
	}
	q := m.Questions[0]
	q.Name = q.Name.Own()
	return q, true
}

func (d *decoder) header(h *Header) (qd, an, ns, ar uint16, err error) {
	if len(d.buf) < 12 {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d-byte header", ErrTruncatedMessage, len(d.buf))
	}
	h.ID = binary.BigEndian.Uint16(d.buf[0:])
	flags := binary.BigEndian.Uint16(d.buf[2:])
	h.Response = flags&(1<<15) != 0
	h.Opcode = Opcode(flags >> 11 & 0xF)
	h.Authoritative = flags&(1<<10) != 0
	h.Truncated = flags&(1<<9) != 0
	h.RecursionDesired = flags&(1<<8) != 0
	h.RecursionAvailable = flags&(1<<7) != 0
	h.RCode = RCode(flags & 0xF)

	qd = binary.BigEndian.Uint16(d.buf[4:])
	an = binary.BigEndian.Uint16(d.buf[6:])
	ns = binary.BigEndian.Uint16(d.buf[8:])
	ar = binary.BigEndian.Uint16(d.buf[10:])
	d.pos = 12
	return qd, an, ns, ar, nil
}

func (d *decoder) question() (Question, error) {
	name, err := d.name()
	if err != nil {
		return Question{}, err
	}
	t, err := d.uint16()
	if err != nil {
		return Question{}, err
	}
	c, err := d.uint16()
	if err != nil {
		return Question{}, err
	}
	return Question{Name: name, Type: Type(t), Class: Class(c)}, nil
}

func (d *decoder) record() (RR, error) {
	name, err := d.name()
	if err != nil {
		return RR{}, err
	}
	t, err := d.uint16()
	if err != nil {
		return RR{}, err
	}
	c, err := d.uint16()
	if err != nil {
		return RR{}, err
	}
	ttl, err := d.uint32()
	if err != nil {
		return RR{}, err
	}
	rdlen, err := d.uint16()
	if err != nil {
		return RR{}, err
	}
	end := d.pos + int(rdlen)
	if end > len(d.buf) {
		return RR{}, fmt.Errorf("%w: RDATA of %d bytes at offset %d", ErrTruncatedMessage, rdlen, d.pos)
	}
	data, err := d.rdata(Type(t), end)
	if err != nil {
		return RR{}, err
	}
	if d.pos != end {
		return RR{}, fmt.Errorf("%w: RDATA for %s under-read (%d of %d bytes)",
			ErrTruncatedMessage, Type(t), d.pos-(end-int(rdlen)), rdlen)
	}
	return RR{Name: name, Class: Class(c), TTL: ttl, Data: data}, nil
}

func (d *decoder) rdata(t Type, end int) (RData, error) {
	slabs := &d.a.slabs
	switch t {
	case TypeNS:
		host, err := d.name()
		return boxInto(&slabs.ns, nsItab, NSData{Host: host}), err
	case TypeCNAME:
		target, err := d.name()
		return boxInto(&slabs.cname, cnameItab, CNAMEData{Target: target}), err
	case TypePTR:
		target, err := d.name()
		return boxInto(&slabs.ptr, ptrItab, PTRData{Target: target}), err
	case TypeA:
		if end-d.pos != 4 {
			return nil, fmt.Errorf("%w: A RDATA of %d bytes", ErrTruncatedMessage, end-d.pos)
		}
		var a4 [4]byte
		copy(a4[:], d.buf[d.pos:])
		d.pos += 4
		return boxInto(&slabs.a, aItab, AData{Addr: netip.AddrFrom4(a4)}), nil
	case TypeAAAA:
		if end-d.pos != 16 {
			return nil, fmt.Errorf("%w: AAAA RDATA of %d bytes", ErrTruncatedMessage, end-d.pos)
		}
		var a16 [16]byte
		copy(a16[:], d.buf[d.pos:])
		d.pos += 16
		return boxInto(&slabs.aaaa, aaaaItab, AAAAData{Addr: netip.AddrFrom16(a16)}), nil
	case TypeMX:
		pref, err := d.uint16()
		if err != nil {
			return nil, err
		}
		exch, err := d.name()
		return boxInto(&slabs.mx, mxItab, MXData{Preference: pref, Exchange: exch}), err
	case TypeTXT:
		// TXT strings stay individually heap-owned: they are rare on the
		// scan path and borrowing them would push per-element clone
		// obligations into every retainer.
		var strs []string
		for d.pos < end {
			slen := int(d.buf[d.pos])
			d.pos++
			if d.pos+slen > end {
				return nil, fmt.Errorf("%w: TXT string of %d bytes", ErrTruncatedMessage, slen)
			}
			strs = append(strs, string(d.buf[d.pos:d.pos+slen]))
			d.pos += slen
		}
		return boxInto(&slabs.txt, txtItab, TXTData{Strings: strs}), nil
	case TypeSOA:
		mname, err := d.name()
		if err != nil {
			return nil, err
		}
		rname, err := d.name()
		if err != nil {
			return nil, err
		}
		var vals [5]uint32
		for i := range vals {
			vals[i], err = d.uint32()
			if err != nil {
				return nil, err
			}
		}
		return boxInto(&slabs.soa, soaItab, SOAData{
			MName: mname, RName: rname,
			Serial: vals[0], Refresh: vals[1], Retry: vals[2],
			Expire: vals[3], Minimum: vals[4],
		}), nil
	case TypeCSYNC:
		data, err := d.decodeCSYNC(end)
		if err != nil {
			return nil, err
		}
		return boxInto(&slabs.csync, csyncItab, data), nil
	default:
		off := len(d.a.scratch)
		d.a.scratch = append(d.a.scratch, d.buf[d.pos:end]...)
		d.pos = end
		return boxInto(&slabs.opaque, opaqueItab, OpaqueData{
			RRType: t,
			Bytes:  d.a.scratch[off:len(d.a.scratch):len(d.a.scratch)],
		}), nil
	}
}

// name decodes a possibly-compressed domain name starting at d.pos,
// leaving d.pos just past the name's in-place bytes. The canonical bytes
// land in the arena scratch and the returned Name borrows them. Inputs
// the fast path cannot canonicalise byte-for-byte — any character
// outside the LDH+underscore set (dots inside wire labels, arbitrary
// binary) or a name over the length limit — are re-decoded through the
// original strings.Join/Parse pipeline, so accepted names and error text
// stay bit-identical with the pre-arena decoder.
func (d *decoder) name() (dnsname.Name, error) {
	start := len(d.a.scratch)
	startPos := d.pos
	clean := true
	labels := 0
	pos := d.pos
	followed := false // whether we have jumped through a pointer yet
	jumps := 0

	for {
		if pos >= len(d.buf) {
			return "", fmt.Errorf("%w: name runs past buffer", ErrTruncatedMessage)
		}
		b := d.buf[pos]
		switch {
		case b == 0:
			if !followed {
				d.pos = pos + 1
			}
			return d.finishName(start, startPos, labels, clean)
		case b&0xC0 == 0xC0:
			if pos+1 >= len(d.buf) {
				return "", fmt.Errorf("%w: pointer at end of buffer", ErrTruncatedMessage)
			}
			target := int(binary.BigEndian.Uint16(d.buf[pos:]) & 0x3FFF)
			if target >= pos {
				return "", fmt.Errorf("%w: forward pointer %d at offset %d", ErrBadPointer, target, pos)
			}
			if jumps++; jumps > 32 {
				return "", fmt.Errorf("%w: >32 jumps", ErrBadPointer)
			}
			if !followed {
				d.pos = pos + 2
				followed = true
			}
			pos = target
		case b&0xC0 != 0:
			return "", fmt.Errorf("%w: reserved label type %#x", ErrBadName, b&0xC0)
		default:
			if pos+1+int(b) > len(d.buf) {
				return "", fmt.Errorf("%w: label of %d bytes", ErrTruncatedMessage, b)
			}
			lab := d.buf[pos+1 : pos+1+int(b)]
			if len(lab) == 1 && lab[0] == '*' {
				// The wildcard is valid only as a whole label.
				d.a.scratch = append(d.a.scratch, '*', '.')
			} else {
				for _, c := range lab {
					cc, ok := dnsname.CanonicalLabelByte(c)
					if !ok {
						clean = false
					}
					d.a.scratch = append(d.a.scratch, cc)
				}
				d.a.scratch = append(d.a.scratch, '.')
			}
			labels++
			if labels > 127 {
				return "", fmt.Errorf("%w: too many labels", ErrBadName)
			}
			pos += 1 + int(b)
		}
	}
}

// finishName turns the canonical bytes accumulated since start into a
// borrowed Name, or falls back to the legacy parse for inputs the fast
// path could not canonicalise.
func (d *decoder) finishName(start, startPos, labels int, clean bool) (dnsname.Name, error) {
	if labels == 0 {
		return dnsname.Root, nil
	}
	nb := d.a.scratch[start:]
	// len(nb)-1 strips the trailing dot, matching Parse's length check.
	if clean && len(nb)-1 <= dnsname.MaxNameLen {
		return dnsname.BorrowCanonical(nb), nil
	}
	d.a.scratch = d.a.scratch[:start]
	return nameSlow(d.buf, startPos)
}

// nameSlow is the pre-arena name decoder's label collection, kept as the
// fallback for names outside the fast path's charset or length, so that
// accepted names and error text stay byte-identical with the legacy
// decoder. It runs only after decoder.name has walked the same bytes
// without error — every pointer backward, every label in bounds, at most
// 32 jumps and 127 labels — so it repeats none of those checks.
func nameSlow(buf []byte, pos int) (dnsname.Name, error) {
	var labels []string
	for b := buf[pos]; b != 0; b = buf[pos] {
		if b&0xC0 == 0xC0 {
			pos = int(binary.BigEndian.Uint16(buf[pos:]) & 0x3FFF)
			continue
		}
		labels = append(labels, string(buf[pos+1:pos+1+int(b)]))
		pos += 1 + int(b)
	}
	return joinLabels(labels)
}

func joinLabels(labels []string) (dnsname.Name, error) {
	if len(labels) == 0 {
		return dnsname.Root, nil
	}
	n, err := dnsname.Parse(strings.Join(labels, "."))
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadName, err)
	}
	return n, nil
}

func (d *decoder) uint16() (uint16, error) {
	if d.pos+2 > len(d.buf) {
		return 0, fmt.Errorf("%w: reading uint16 at %d", ErrTruncatedMessage, d.pos)
	}
	v := binary.BigEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *decoder) uint32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, fmt.Errorf("%w: reading uint32 at %d", ErrTruncatedMessage, d.pos)
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// decodeCSYNC parses a CSYNC RDATA ending at end. The bitmap is walked
// twice: a validating pass that counts set bits (so Types is allocated
// exactly once, at size), then the collection pass.
func (d *decoder) decodeCSYNC(end int) (CSYNCData, error) {
	serial, err := d.uint32()
	if err != nil {
		return CSYNCData{}, err
	}
	flags, err := d.uint16()
	if err != nil {
		return CSYNCData{}, err
	}
	data := CSYNCData{Serial: serial, Flags: flags}
	n := 0
	for pos := d.pos; pos < end; {
		if pos+2 > end {
			return CSYNCData{}, fmt.Errorf("%w: CSYNC bitmap header", ErrTruncatedMessage)
		}
		window := d.buf[pos]
		length := int(d.buf[pos+1])
		pos += 2
		if length == 0 || length > 32 || pos+length > end {
			return CSYNCData{}, fmt.Errorf("%w: CSYNC bitmap window %d length %d", ErrTruncatedMessage, window, length)
		}
		for octet := 0; octet < length; octet++ {
			n += bits.OnesCount8(d.buf[pos+octet])
		}
		pos += length
	}
	if n > 0 {
		data.Types = make([]Type, 0, n)
	}
	for d.pos < end {
		window := d.buf[d.pos]
		length := int(d.buf[d.pos+1])
		d.pos += 2
		for octet := 0; octet < length; octet++ {
			b := d.buf[d.pos+octet]
			for bit := 0; bit < 8; bit++ {
				if b&(0x80>>bit) != 0 {
					data.Types = append(data.Types,
						Type(uint16(window)<<8|uint16(octet*8+bit)))
				}
			}
		}
		d.pos += length
	}
	return data, nil
}
