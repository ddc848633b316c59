package pdns

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"unsafe"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

// WriteJSONL streams the store as JSON lines (one record set per line),
// in deterministic order.
func (s *Store) WriteJSONL(w io.Writer) error {
	sets := s.Snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range sets {
		if err := enc.Encode(&sets[i]); err != nil {
			return fmt.Errorf("pdns: encoding record set %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads a store from a stream of JSON record sets, as
// WriteJSONL writes them; record sets with the same key are merged. The
// stream is read a line at a time. A line in exactly WriteJSONL's form —
//
//	{"rrname":"…","rrtype":N,"rdata":"…","time_first":N,"time_last":N,"count":N}
//
// keys in that order, no whitespace, strings of unescaped printable
// ASCII, plain decimal integers in range — is decoded in place.
// Anything else (escapes, non-ASCII, other key orders or keys, padding,
// an object spanning lines or several sharing one, malformed input) is
// handed, from the first byte of that line, to encoding/json, which
// decodes the next value and decides what is an error; reading goes on
// line by line behind that value, so one odd line costs one json.Decoder
// and the lines after it are decoded in place again. The result, errors
// included, is the one a json.Decoder loop over the whole stream gives.
//
// The owner names and rdata of lines decoded in place are copied into
// shared blocks of stringBlockSize bytes, not into a string each, so a
// read allocates per block rather than per record set. A string kept
// from the store keeps its whole block alive.
func ReadJSONL(r io.Reader) (*Store, error) {
	s := NewStore()
	in := &dumpReader{src: r}
	var strs stringBlocks
	var rs RecordSet
	for n := 1; ; {
		line := in.line()
		if len(line) == 0 {
			break
		}
		if line[0] == '\n' {
			// Nothing between two values: a blank line, or the end of a
			// line whose value encoding/json decoded.
			in.pos++
			continue
		}
		// A sorted dump repeats each owner name on consecutive lines;
		// parseLine reuses the previous line's string for those.
		if parseLine(line, &rs, &strs) {
			in.pos += len(line)
		} else {
			rs = RecordSet{}
			more, err := in.decodeValue(&rs)
			if err != nil && in.err == nil {
				return nil, fmt.Errorf("pdns: decoding record set %d: %w", n, err)
			}
			if !more || err != nil {
				break
			}
		}
		s.merge(rs)
		n++
	}
	if in.err != nil {
		return nil, fmt.Errorf("pdns: reading dump: %w", in.err)
	}
	return s, nil
}

// dumpReader buffers a dump so that ReadJSONL can look at whole lines
// and, for a line it does not decode itself, let a json.Decoder read
// from that line's first byte and take back what the decoder read
// ahead.
type dumpReader struct {
	src  io.Reader
	buf  []byte // read from src; buf[pos:] is not yet consumed
	pos  int
	mark int   // start of the line last asked for: fill keeps buf[mark:]
	eof  bool  // src is exhausted or failed
	err  error // the failure, if it was not io.EOF
}

// line returns, without consuming it, the unread input up to and
// including the next newline — or all of it when the input ends first,
// which is empty only at the end of input.
func (d *dumpReader) line() []byte {
	d.mark = d.pos
	searched := 0
	for {
		unread := d.buf[d.pos:]
		if i := bytes.IndexByte(unread[searched:], '\n'); i >= 0 {
			return unread[:searched+i+1]
		}
		if d.eof {
			return unread
		}
		searched = len(unread)
		d.fill()
	}
}

// Read consumes unread input on behalf of a json.Decoder.
func (d *dumpReader) Read(p []byte) (int, error) {
	if d.pos == len(d.buf) && !d.eof {
		d.fill()
	}
	n := copy(p, d.buf[d.pos:])
	d.pos += n
	if n == 0 && d.err != nil {
		return 0, d.err
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// fill moves the bytes from mark on to the front of the buffer,
// doubling it when they fill it (a line, or a value handed to
// encoding/json, longer than the buffer), and reads more behind them.
func (d *dumpReader) fill() {
	d.buf = d.buf[:copy(d.buf, d.buf[d.mark:])]
	d.pos -= d.mark
	d.mark = 0
	if len(d.buf) == cap(d.buf) {
		grown := make([]byte, len(d.buf), max(2*cap(d.buf), 64<<10))
		copy(grown, d.buf)
		d.buf = grown
	}
	// Like bufio, give up on a source that keeps returning nothing.
	for tries := 0; tries < 100; tries++ {
		n, err := d.src.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			d.eof = true
			if err != io.EOF {
				d.err = err
			}
		}
		if n > 0 || d.eof {
			return
		}
	}
	d.eof, d.err = true, io.ErrNoProgress
}

// decodeValue has encoding/json decode the next value of the stream,
// starting at the line last asked for, into rs. It reports whether there
// was a value: none at the end of input, or where a json.Decoder's More
// says the stream stops (a stray closing bracket). The unread position
// moves to just behind the value: the decoder reads ahead of it, but
// fill has kept everything from the start of the line, so stepping back
// over the read-ahead is enough.
func (d *dumpReader) decodeValue(rs *RecordSet) (bool, error) {
	dec := json.NewDecoder(d)
	if !dec.More() {
		return false, nil
	}
	if err := dec.Decode(rs); err != nil {
		return true, err
	}
	ahead, _ := io.Copy(io.Discard, dec.Buffered())
	d.pos -= int(ahead)
	return true, nil
}

// stringBlockSize is the size of the blocks stringBlocks copies into.
const stringBlockSize = 16 << 10

// stringBlocks hands out strings copied into append-only blocks. Bytes
// once handed out are never written again, which is what makes the
// unsafe.String views immutable strings.
type stringBlocks struct {
	free []byte // the current block; free[len(free):] is unused
}

// of returns a string equal to b. One longer than a quarter block gets
// an allocation of its own, so that a block wastes at most a quarter.
func (sb *stringBlocks) of(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > cap(sb.free)-len(sb.free) {
		if len(b) > stringBlockSize/4 {
			return string(b)
		}
		sb.free = make([]byte, 0, stringBlockSize)
	}
	n := len(sb.free)
	sb.free = append(sb.free, b...)
	return unsafe.String(&sb.free[n], len(b))
}

// parseLine decodes a line in exactly the form WriteJSONL emits (see
// ReadJSONL) into rs and reports whether it was one. An owner name
// equal to the one rs already holds keeps that string; other strings
// are copied into strs.
func parseLine(line []byte, rs *RecordSet, strs *stringBlocks) bool {
	c := lineCursor{rest: line, ok: true}
	c.literal(`{"rrname":"`)
	name := c.plainString()
	c.literal(`,"rrtype":`)
	rtype := c.number(1<<16 - 1)
	c.literal(`,"rdata":"`)
	rdata := c.plainString()
	c.literal(`,"time_first":`)
	first := c.day()
	c.literal(`,"time_last":`)
	last := c.day()
	c.literal(`,"count":`)
	count := c.number(1<<64 - 1)
	c.literal(`}`)
	if !c.ok || !(len(c.rest) == 0 || len(c.rest) == 1 && c.rest[0] == '\n') {
		return false
	}
	if string(name) != string(rs.RRName) {
		rs.RRName = dnsname.Name(strs.of(name))
	}
	rs.RRType, rs.RData = dnswire.Type(rtype), strs.of(rdata)
	rs.FirstSeen, rs.LastSeen, rs.Count = first, last, count
	return true
}

// lineCursor consumes a line piece by piece; the first piece that is
// not what parseLine expects clears ok, and the rest do nothing.
type lineCursor struct {
	rest []byte
	ok   bool
}

func (c *lineCursor) literal(s string) {
	if c.ok = c.ok && len(c.rest) >= len(s) && string(c.rest[:len(s)]) == s; c.ok {
		c.rest = c.rest[len(s):]
	}
}

// plainString consumes a string's contents and closing quote. Only
// printable ASCII without backslashes qualifies: those bytes are the
// string's value as they stand.
func (c *lineCursor) plainString() []byte {
	for i := 0; c.ok && i < len(c.rest); i++ {
		switch b := c.rest[i]; {
		case b == '"':
			s := c.rest[:i]
			c.rest = c.rest[i+1:]
			return s
		case b < 0x20 || b >= 0x7f || b == '\\':
			c.ok = false
		}
	}
	c.ok = false
	return nil
}

// number consumes a decimal integer in [0, limit] written the one way
// JSON allows: digits only, no leading zero.
func (c *lineCursor) number(limit uint64) uint64 {
	var v uint64
	i := 0
	for ; i < len(c.rest) && c.rest[i]-'0' <= 9; i++ {
		v = v*10 + uint64(c.rest[i]-'0')
	}
	// Up to 19 digits cannot overflow a uint64; longer is not ours.
	if i == 0 || i > 19 || (i > 1 && c.rest[0] == '0') || v > limit {
		c.ok = false
		return 0
	}
	if c.ok {
		c.rest = c.rest[i:]
	}
	return v
}

// day consumes a Day: a number in int32 range, optionally negative.
func (c *lineCursor) day() Day {
	if len(c.rest) > 0 && c.rest[0] == '-' {
		c.rest = c.rest[1:]
		v := c.number(1 << 31)
		c.ok = c.ok && v > 0 // "-0" is legal JSON but not how a Day is written
		return Day(-int64(v))
	}
	return Day(c.number(1<<31 - 1))
}
