// Package nettopo builds the synthetic Internet topology underlying the
// simulated world: autonomous systems with IPv4 prefix blocks, and address
// allocation with controllable /24-prefix and AS diversity. The GeoIP
// substitute (internal/geoip) is generated from this topology, mirroring
// how the paper used MaxMind's GeoIP2 ASN database.
package nettopo

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
)

// ErrUnknownAS indicates an allocation request for an AS that was never
// registered.
var ErrUnknownAS = errors.New("nettopo: unknown AS")

// IPv4 converts a uint32 to a netip.Addr.
func IPv4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// IPv4Value converts an IPv4 netip.Addr to its uint32 value.
func IPv4Value(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Prefix24 returns the /24 prefix containing addr, as its uint32 network
// value. The paper's Table I counts distinct /24 prefixes per domain.
func Prefix24(addr netip.Addr) uint32 {
	return IPv4Value(addr) &^ 0xFF
}

// AS is an autonomous system in the synthetic topology.
type AS struct {
	Number uint32
	Org    string
	// blocks are the /16 allocations owned by this AS, as uint32 network
	// values (e.g. 0x0A010000 for 10.1.0.0/16).
	blocks []uint32
	// next is the allocation cursor: index into blocks and offset within.
	nextBlock  int
	nextOffset uint32
}

// Range is a contiguous IPv4 range owned by an AS, used to export the
// topology into the GeoIP database.
type Range struct {
	Start, End uint32 // inclusive
	ASN        uint32
	Org        string
}

// Topology is a registry of ASes and allocated addresses. It is safe for
// concurrent use.
type Topology struct {
	mu        sync.Mutex
	ases      map[uint32]*AS
	nextBlock uint32 // global /16 allocator, walks 1.0.0.0 .. 223.255.0.0
	allocated map[uint32]bool
}

// NewTopology creates an empty topology. /16 blocks are handed out
// starting from 1.0.0.0, skipping nothing else; the synthetic world never
// needs reserved-range awareness.
func NewTopology() *Topology {
	return &Topology{
		ases:      make(map[uint32]*AS),
		nextBlock: 0x01000000,
		allocated: make(map[uint32]bool),
	}
}

// AddAS registers a new AS with the given number and organisation name and
// assigns it an initial /16 block. Registering an existing AS number
// returns the existing AS.
func (t *Topology) AddAS(asn uint32, org string) *AS {
	t.mu.Lock()
	defer t.mu.Unlock()
	if as, ok := t.ases[asn]; ok {
		return as
	}
	as := &AS{Number: asn, Org: org}
	as.blocks = append(as.blocks, t.takeBlockLocked())
	t.ases[asn] = as
	return as
}

// takeBlockLocked hands out the next free /16. Requires t.mu held.
func (t *Topology) takeBlockLocked() uint32 {
	for {
		block := t.nextBlock
		t.nextBlock += 0x00010000
		if t.nextBlock >= 0xE0000000 {
			// The synthetic world is far smaller than the IPv4 space;
			// wrapping indicates a bug, so fail loudly.
			panic("nettopo: global /16 space exhausted")
		}
		if !t.allocated[block] {
			t.allocated[block] = true
			return block
		}
	}
}

// AllocIP allocates a fresh address inside the given AS. Addresses within
// an AS are handed out sequentially, so consecutive allocations tend to
// share a /24 — callers use AllocIPNew24 to force prefix diversity.
func (t *Topology) AllocIP(asn uint32) (netip.Addr, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	as, ok := t.ases[asn]
	if !ok {
		return netip.Addr{}, fmt.Errorf("%w: AS%d", ErrUnknownAS, asn)
	}
	return t.allocLocked(as, false)
}

// AllocIPNew24 allocates an address in the AS guaranteed to be in a /24
// prefix that no previous allocation in this AS used.
func (t *Topology) AllocIPNew24(asn uint32) (netip.Addr, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	as, ok := t.ases[asn]
	if !ok {
		return netip.Addr{}, fmt.Errorf("%w: AS%d", ErrUnknownAS, asn)
	}
	return t.allocLocked(as, true)
}

// allocLocked performs allocation within as. If new24 is set, the cursor
// first skips to the next /24 boundary. Requires t.mu held.
func (t *Topology) allocLocked(as *AS, new24 bool) (netip.Addr, error) {
	if new24 && as.nextOffset%256 != 0 {
		as.nextOffset = (as.nextOffset/256 + 1) * 256
	}
	// Skip .0 (network-looking) addresses for realism.
	if as.nextOffset%256 == 0 {
		as.nextOffset++
	}
	if as.nextOffset >= 0x10000 {
		as.nextBlock++
		as.nextOffset = 1
	}
	if as.nextBlock >= len(as.blocks) {
		as.blocks = append(as.blocks, t.takeBlockLocked())
	}
	addr := IPv4(as.blocks[as.nextBlock] | as.nextOffset)
	as.nextOffset++
	return addr, nil
}

// Ranges exports every allocated /16 block as a Range, sorted by start
// address. This is the input to the GeoIP database builder.
func (t *Topology) Ranges() []Range {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Range
	for _, as := range t.ases {
		for _, block := range as.blocks {
			out = append(out, Range{
				Start: block,
				End:   block | 0xFFFF,
				ASN:   as.Number,
				Org:   as.Org,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
