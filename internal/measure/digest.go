package measure

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"net/netip"
	"slices"
	"sync"

	"govdns/internal/dnsname"
)

// The digest condenses a scan's results into one SHA-256 over a
// canonical serialization. Two scans of the same world digest equal iff
// they reached the same measurement conclusions for every domain, which
// is the differential harness's equality test: results must be
// bit-identical per (seed, scale) no matter how the scan was scheduled
// (worker count, per-domain fan-out), and after transient chaos the
// recovered scan must digest equal to an undisturbed one.
//
// The digest deliberately excludes Rounds and Faults: they describe the
// *journey* (how hard the scan had to work), while the digest fixes the
// *destination*. A domain recovered in round two with a dozen discarded
// datagrams digests identically to one answered cleanly — that is the
// recovery property, not a loophole.
//
// The result count is hashed after the per-result records, not before:
// a streaming scan does not know its total until the stream ends, and
// hashing the count last is what lets DigestAccumulator compute the
// exact same digest incrementally (and checkpoint its midstream state).

// DigestAccumulator computes the canonical scan digest one result at a
// time. Add results in emission order, then Sum. The accumulator's
// state round-trips through MarshalBinary/UnmarshalBinary, which is how
// a checkpointed stream resumes digesting where it left off.
type DigestAccumulator struct {
	h hash.Hash
	n uint64

	// record and sortScratch are Add's working space, reused from result
	// to result; neither is part of the digest's state.
	record []byte
	sortScratch
}

// NewDigestAccumulator returns an empty accumulator: Sum of zero Adds
// equals Digest(nil).
func NewDigestAccumulator() *DigestAccumulator {
	return &DigestAccumulator{h: sha256.New()}
}

// Add folds one result (nil allowed, hashed as an absent record) into
// the digest.
func (a *DigestAccumulator) Add(r *DomainResult) {
	a.record = a.appendCanonical(a.record[:0], r)
	a.h.Write(a.record)
	a.n++
}

// Count returns how many results have been added.
func (a *DigestAccumulator) Count() uint64 { return a.n }

// Sum finalizes a snapshot of the digest over everything added so far.
// The accumulator itself is not consumed: more Adds may follow.
func (a *DigestAccumulator) Sum() [sha256.Size]byte {
	h := cloneSHA256(a.h)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], a.n)
	h.Write(buf[:])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// MarshalBinary captures the accumulator — result count plus the
// midstream SHA-256 state — for checkpointing.
func (a *DigestAccumulator) MarshalBinary() ([]byte, error) {
	st, err := a.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8+len(st))
	binary.BigEndian.PutUint64(out, a.n)
	copy(out[8:], st)
	return out, nil
}

// UnmarshalBinary restores a checkpointed accumulator. The SHA-256
// state carries its own magic and length checks, so torn or garbage
// states are rejected rather than silently producing a wrong digest.
func (a *DigestAccumulator) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("measure: digest state too short (%d bytes)", len(data))
	}
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(data[8:]); err != nil {
		return fmt.Errorf("measure: digest state: %w", err)
	}
	a.h = h
	a.n = binary.BigEndian.Uint64(data)
	return nil
}

// cloneSHA256 duplicates a midstream SHA-256 via its binary state, so a
// snapshot can be finalized without consuming the original.
func cloneSHA256(h hash.Hash) hash.Hash {
	st, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("measure: sha256 state marshal: " + err.Error())
	}
	c := sha256.New()
	if err := c.(encoding.BinaryUnmarshaler).UnmarshalBinary(st); err != nil {
		panic("measure: sha256 state unmarshal: " + err.Error())
	}
	return c
}

// Digest condenses a result slice into the canonical scan digest. It is
// defined as — and differentially pinned to — the accumulator run over
// the slice in order. The accumulator comes from a pool and is finished
// in place rather than through Sum's copy of the hash state, so a warm
// Digest allocates nothing: a caller that digests every result on its
// own, as a verifier comparing a scan domain by domain does, adds no
// garbage per result to the scan's.
func Digest(results []*DomainResult) [sha256.Size]byte {
	acc := digestPool.Get().(*DigestAccumulator)
	defer digestPool.Put(acc)
	acc.h.Reset()
	acc.n = 0
	for _, r := range results {
		acc.Add(r)
	}
	acc.record = binary.BigEndian.AppendUint64(acc.record[:0], acc.n)
	acc.h.Write(acc.record)
	acc.record = acc.h.Sum(acc.record[:0])
	return [sha256.Size]byte(acc.record)
}

var digestPool = sync.Pool{New: func() any { return NewDigestAccumulator() }}

// appendCanonical appends r's digest record to dst: u64 big-endian,
// length-prefixed strings, As16 addresses, bools as 0/1. Hosts go in
// dnsname.Compare order and each host's addresses in netip.Addr.Compare
// order, sorted in a's scratch. The record is written to the hash in one
// piece, and SHA-256 does not depend on how its input is split, so the
// digest is the same as writing field by field.
func (a *DigestAccumulator) appendCanonical(dst []byte, r *DomainResult) []byte {
	if r == nil {
		return binary.BigEndian.AppendUint64(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, 1)
	dst = appendDigestString(dst, string(r.Domain))
	dst = appendDigestString(dst, string(r.ParentZone))
	dst = appendDigestBool(dst, r.ParentResponded)
	dst = appendDigestBool(dst, r.ParentAuthoritative)
	dst = appendDigestNames(dst, r.ParentNS)

	hosts := a.sortedHosts(r.Addrs, dnsname.Compare)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(hosts)))
	for _, h := range hosts {
		dst = appendDigestString(dst, string(h.Host))
		addrs := a.sortedAddrs(h.Addrs)
		dst = binary.BigEndian.AppendUint64(dst, uint64(len(addrs)))
		for _, addr := range addrs {
			dst = appendDigestAddr(dst, addr)
		}
	}

	dst = binary.BigEndian.AppendUint64(dst, uint64(len(r.Servers)))
	for i := range r.Servers {
		sr := &r.Servers[i]
		dst = appendDigestString(dst, string(sr.Host))
		dst = appendDigestAddr(dst, sr.Addr)
		dst = appendDigestBool(dst, sr.OK)
		dst = binary.BigEndian.AppendUint64(dst, uint64(sr.RCode))
		dst = appendDigestBool(dst, sr.Authoritative)
		dst = appendDigestNames(dst, sr.NS)
		dst = appendDigestString(dst, sr.Err)
	}
	dst = appendDigestString(dst, r.Err)
	return appendDigestBool(dst, r.ErrTransient)
}

func appendDigestString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendDigestNames(dst []byte, ns []dnsname.Name) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(ns)))
	for _, n := range ns {
		dst = appendDigestString(dst, string(n))
	}
	return dst
}

func appendDigestBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendDigestAddr(dst []byte, a netip.Addr) []byte {
	b := a.As16()
	return append(dst, b[:]...)
}

// sortScratch is the sort space a canonical rendering of a result needs
// (its hosts, and one host's addresses, in order), kept by a renderer
// that runs over many results so that sorting allocates nothing once it
// has grown to the largest result.
type sortScratch struct {
	hosts []HostAddrs
	addrs []netip.Addr
}

// sortedHosts returns hosts in cmp order of their Host: hosts itself
// when it already is — a scanned result's Addrs are in dnsname.Compare
// order — or else a sorted copy in the scratch, valid until the next
// call.
func (s *sortScratch) sortedHosts(hosts []HostAddrs, cmp func(a, b dnsname.Name) int) []HostAddrs {
	byHost := func(a, b HostAddrs) int { return cmp(a.Host, b.Host) }
	if slices.IsSortedFunc(hosts, byHost) {
		return hosts
	}
	s.hosts = append(s.hosts[:0], hosts...)
	slices.SortFunc(s.hosts, byHost)
	return s.hosts
}

// sortedAddrs returns addrs in netip.Addr.Compare order: addrs itself
// when it already is, as the scanner holds them, or else a sorted copy
// in the scratch, valid until the next call.
func (s *sortScratch) sortedAddrs(addrs []netip.Addr) []netip.Addr {
	if slices.IsSortedFunc(addrs, netip.Addr.Compare) {
		return addrs
	}
	s.addrs = append(s.addrs[:0], addrs...)
	slices.SortFunc(s.addrs, netip.Addr.Compare)
	return s.addrs
}

// DigestHex is Digest rendered as a hex string, for logs and test
// failure messages.
func DigestHex(results []*DomainResult) string {
	d := Digest(results)
	return hex.EncodeToString(d[:])
}
