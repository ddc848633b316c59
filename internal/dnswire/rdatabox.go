package dnswire

import "unsafe"

// Plain interface boxing (`RData(NSData{...})`) copies the payload to a
// fresh heap cell — one allocation per decoded record, the last
// allocations on the wire path. The decoder instead appends payloads to
// per-type slabs on the arena and assembles the interface value by hand:
// the itab word is taken from a real boxed value of the same concrete
// type (itabs are canonicalized, so every (RData, NSData) pair shares
// one), and the data word points at the slab cell. To every consumer —
// type assertions, type switches, method calls, interface comparison —
// the result is indistinguishable from ordinary boxing; the only
// difference is where the cell lives, which is exactly the arena borrow
// contract: valid until the next Decode or Finish, copied out at the
// choke points (an AData asserted out of the interface is a copy).
//
// The GC treats the data word as an ordinary (interior) pointer, so a
// retained RData keeps its slab alive even after the arena moves on.

// iface mirrors the runtime layout of a non-empty interface value.
type iface struct {
	tab  unsafe.Pointer
	data unsafe.Pointer
}

// itabFor extracts the itab shared by every RData holding concrete type
// T, by boxing one zero value the ordinary way.
func itabFor[T RData]() unsafe.Pointer {
	var zero T
	var d RData = zero
	return (*iface)(unsafe.Pointer(&d)).tab
}

var (
	nsItab     = itabFor[NSData]()
	cnameItab  = itabFor[CNAMEData]()
	ptrItab    = itabFor[PTRData]()
	aItab      = itabFor[AData]()
	aaaaItab   = itabFor[AAAAData]()
	mxItab     = itabFor[MXData]()
	txtItab    = itabFor[TXTData]()
	soaItab    = itabFor[SOAData]()
	csyncItab  = itabFor[CSYNCData]()
	opaqueItab = itabFor[OpaqueData]()
)

// boxInto appends v to the slab and returns an RData for the stored
// cell, allocating only when the slab itself grows.
func boxInto[T RData](slab *[]T, tab unsafe.Pointer, v T) RData {
	*slab = append(*slab, v)
	var d RData
	e := (*iface)(unsafe.Pointer(&d))
	e.tab = tab
	e.data = unsafe.Pointer(&(*slab)[len(*slab)-1])
	return d
}

// rdataSlabs is the arena's payload storage, one slab per concrete
// payload type so every cell is a properly typed, GC-scannable object.
type rdataSlabs struct {
	ns     []NSData
	cname  []CNAMEData
	ptr    []PTRData
	a      []AData
	aaaa   []AAAAData
	mx     []MXData
	txt    []TXTData
	soa    []SOAData
	csync  []CSYNCData
	opaque []OpaqueData
}

// reset truncates every slab for the next decode. The slabs whose
// payloads hold names or slices clear their used cells first, so no
// cell past a slab's length ever pins a payload from an earlier
// message; AData and AAAAData hold only addresses, which pin nothing.
func (s *rdataSlabs) reset() {
	s.ns = clearUsed(s.ns)
	s.cname = clearUsed(s.cname)
	s.ptr = clearUsed(s.ptr)
	s.a = s.a[:0]
	s.aaaa = s.aaaa[:0]
	s.mx = clearUsed(s.mx)
	s.txt = clearUsed(s.txt)
	s.soa = clearUsed(s.soa)
	s.csync = clearUsed(s.csync)
	s.opaque = clearUsed(s.opaque)
}

// clearUsed zeroes a slab's cells and truncates it.
func clearUsed[T any](slab []T) []T {
	clear(slab)
	return slab[:0]
}

// recycle reports whether the slabs are small enough to retain and, if
// they are, resets them: every cell up to capacity is then zero, since
// reset left each earlier decode's cells cleared too.
func (s *rdataSlabs) recycle() bool {
	if cap(s.ns) > maxRetainedRRs || cap(s.cname) > maxRetainedRRs ||
		cap(s.ptr) > maxRetainedRRs || cap(s.a) > maxRetainedRRs ||
		cap(s.aaaa) > maxRetainedRRs || cap(s.mx) > maxRetainedRRs ||
		cap(s.txt) > maxRetainedRRs || cap(s.soa) > maxRetainedRRs ||
		cap(s.csync) > maxRetainedRRs || cap(s.opaque) > maxRetainedRRs {
		return false
	}
	s.reset()
	return true
}
