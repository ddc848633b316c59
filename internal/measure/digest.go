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
}

// NewDigestAccumulator returns an empty accumulator: Sum of zero Adds
// equals Digest(nil).
func NewDigestAccumulator() *DigestAccumulator {
	return &DigestAccumulator{h: sha256.New()}
}

// Add folds one result (nil allowed, hashed as an absent record) into
// the digest.
func (a *DigestAccumulator) Add(r *DomainResult) {
	digestResult(a.h, r)
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
// the slice in order.
func Digest(results []*DomainResult) [sha256.Size]byte {
	acc := NewDigestAccumulator()
	for _, r := range results {
		acc.Add(r)
	}
	return acc.Sum()
}

// digestResult folds one result record into h.
func digestResult(h hash.Hash, r *DomainResult) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	name := func(n dnsname.Name) { str(string(n)) }
	boolean := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	addr := func(a netip.Addr) {
		b := a.As16()
		h.Write(b[:])
	}
	names := func(ns []dnsname.Name) {
		u64(uint64(len(ns)))
		for _, n := range ns {
			name(n)
		}
	}

	if r == nil {
		u64(0)
		return
	}
	u64(1)
	name(r.Domain)
	name(r.ParentZone)
	boolean(r.ParentResponded)
	boolean(r.ParentAuthoritative)
	names(r.ParentNS)

	hosts := make([]dnsname.Name, 0, len(r.Addrs))
	for host := range r.Addrs {
		hosts = append(hosts, host)
	}
	slices.SortFunc(hosts, dnsname.Compare)
	u64(uint64(len(hosts)))
	for _, host := range hosts {
		name(host)
		addrs := append([]netip.Addr(nil), r.Addrs[host]...)
		slices.SortFunc(addrs, netip.Addr.Compare)
		u64(uint64(len(addrs)))
		for _, a := range addrs {
			addr(a)
		}
	}

	u64(uint64(len(r.Servers)))
	for i := range r.Servers {
		digestServer(h, u64, str, boolean, &r.Servers[i])
	}
	str(r.Err)
	boolean(r.ErrTransient)
}

func digestServer(h hash.Hash, u64 func(uint64), str func(string), boolean func(bool), sr *ServerResponse) {
	str(string(sr.Host))
	b := sr.Addr.As16()
	h.Write(b[:])
	boolean(sr.OK)
	u64(uint64(sr.RCode))
	boolean(sr.Authoritative)
	u64(uint64(len(sr.NS)))
	for _, n := range sr.NS {
		str(string(n))
	}
	str(sr.Err)
}

// DigestHex is Digest rendered as a hex string, for logs and test
// failure messages.
func DigestHex(results []*DomainResult) string {
	d := Digest(results)
	return hex.EncodeToString(d[:])
}
