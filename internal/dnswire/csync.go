package dnswire

import (
	"fmt"
	"slices"
	"strings"
)

// TypeCSYNC is the Child-to-Parent Synchronization record (RFC 7477),
// which the paper's § V-B discusses as a remedy for parent/child
// inconsistency: a child zone publishes which of its records the parent
// should copy.
const TypeCSYNC Type = 62

// CSYNCImmediate is the CSYNC flag bit (RFC 7477 § 2.1.1) that allows
// the parent to act without out-of-band confirmation.
const CSYNCImmediate uint16 = 1 << 0

// CSYNCData is the RDATA of a CSYNC record: the child's SOA serial at
// publication, processing flags, and the set of record types the parent
// should synchronize (typically NS, A, AAAA).
type CSYNCData struct {
	Serial uint32
	Flags  uint16
	// Types is the sorted list of types to synchronize.
	Types []Type
}

// Type implements RData.
func (CSYNCData) Type() Type { return TypeCSYNC }

// String implements RData.
func (d CSYNCData) String() string {
	parts := make([]string, 0, len(d.Types)+2)
	parts = append(parts, fmt.Sprint(d.Serial), fmt.Sprint(d.Flags))
	for _, t := range d.Types {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}

// equal compares the type lists as sets: the wire format stores them as
// a bitmap, so order carries no meaning.
func (d CSYNCData) equal(o RData) bool {
	od, ok := o.(CSYNCData)
	if !ok || od.Serial != d.Serial || od.Flags != d.Flags || len(od.Types) != len(d.Types) {
		return false
	}
	set := make(map[Type]bool, len(d.Types))
	for _, t := range d.Types {
		set[t] = true
	}
	for _, t := range od.Types {
		if !set[t] {
			return false
		}
	}
	return true
}

var _ RData = CSYNCData{}

// encodeCSYNC serialises the RDATA: serial, flags, then an RFC 4034
// § 4.1.2-style type bitmap. The sort scratch lives on the arena, and
// windows are grouped by walking consecutive runs of the sorted list —
// ascending window order, exactly the first-seen order the old
// per-record map produced from a sorted input.
func (e *encoder) encodeCSYNC(d CSYNCData) error {
	e.uint32(d.Serial)
	e.uint16(d.Flags)

	types := append(e.a.types[:0], d.Types...)
	e.a.types = types
	slices.Sort(types)
	for i := 0; i < len(types); {
		w := byte(uint16(types[i]) >> 8)
		var bitmap [32]byte
		maxOctet := 0
		j := i
		for ; j < len(types) && byte(uint16(types[j])>>8) == w; j++ {
			low := byte(uint16(types[j]) & 0xFF)
			octet := int(low / 8)
			bitmap[octet] |= 0x80 >> (low % 8)
			if octet+1 > maxOctet {
				maxOctet = octet + 1
			}
		}
		e.a.out = append(e.a.out, w, byte(maxOctet))
		e.a.out = append(e.a.out, bitmap[:maxOctet]...)
		i = j
	}
	return nil
}
