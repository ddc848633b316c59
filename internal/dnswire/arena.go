package dnswire

import (
	"sync"

	"govdns/internal/dnsname"
	"govdns/internal/obs"
)

// This file is the zero-alloc wire path's memory model: a recycled
// exchange Arena holding every buffer the codec needs, checked out of a
// Pool per exchange and returned with Finish. Messages decoded or built
// on an arena *borrow* it — their names alias the arena's scratch, their
// record sections alias its backing arrays — and are valid only until
// the next Decode on the same arena or Finish, whichever comes first.
// Anything that must outlive the packet is copied out at a choke point —
// names through dnsname.Name.Own, payload fields by value; Decode alone
// hands out messages that need neither, by decoding onto an arena no
// pool ever reuses. The design follows the trace flight recorder's span
// arenas; the rules are written up in DESIGN.md §10.

// Retention caps: an arena that served an unusually large message is
// discarded rather than recycled, so one 64 KiB monster doesn't pin its
// buffers in the pool forever. Typical referral exchanges sit far below
// all three.
const (
	maxRetainedBytes = 64 << 10
	maxRetainedRRs   = 512
	maxRetainedQs    = 16
)

// Arena is the reusable scratch space for one DNS exchange: the encoder
// output buffer, the decoded-name and RDATA scratch, backing arrays for
// question and record sections, two message slots (one for the query
// built with NewQuery/NewResponse, one for the message Decode fills),
// and the encoder's compression table. The zero value is usable; arenas
// obtained from a Pool recycle their buffers across exchanges.
//
// An arena is not safe for concurrent use, and holds at most one live
// decoded message at a time: Decode resets the scratch and section
// arrays, invalidating every borrowed view of the previous message.
type Arena struct {
	out     []byte // encoder output; Encode results alias this
	scratch []byte // canonical name bytes and opaque RDATA copies
	rrs     []RR   // backing array for the decoded record sections
	qs      []Question
	types   []Type     // CSYNC encode scratch
	slabs   rdataSlabs // decoded RDATA payload cells
	comp    compTable

	// rrsHigh and qsHigh are the longest rrs and qs have been since the
	// last Finish, as Decode found them before cutting them back: Finish
	// clears that far, and every element past it is already zero.
	rrsHigh, qsHigh int

	qq    [1]Question // question slot for NewQuery
	qslot Message     // NewQuery / NewResponse slot
	rslot Message     // Decode slot
	sec   [16]RR      // RRBuf's scratch for a built response's sections

	pool *Pool // recycling destination; nil after Finish
}

// Pool hands out recycled arenas via sync.Pool. The zero value works; use
// one shared Pool (or DefaultPool) per pipeline so arenas recirculate.
type Pool struct {
	// NoRecycle, when set before first use, makes every Get return a
	// fresh arena and Finish discard it. Pooling must be pure memory
	// management; the measure invariance harness scans with recycling on
	// and off and requires bit-identical digests.
	NoRecycle bool

	p sync.Pool

	// Counters live on an obs.Registry — a private one by default, or a
	// shared pipeline registry when AttachRegistry runs first (the
	// first-wins rule every component's AttachRegistry follows).
	metricsOnce sync.Once
	checkouts   *obs.Counter
	recycles    *obs.Counter
	discards    *obs.Counter
}

// DefaultPool backs the package-level Decode/Encode compatibility
// wrappers and any client without an explicit pool.
var DefaultPool = NewPool()

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// AttachRegistry binds the pool's counters onto r
// (dnswire_arena_checkouts_total, dnswire_arena_recycles_total,
// dnswire_arena_discards_total). Call it before the pool's first Get.
// The first registry attached wins: a later call, or one after first
// use bound a private registry, is a no-op, and a nil r changes nothing.
func (p *Pool) AttachRegistry(r *obs.Registry) {
	if r != nil {
		p.metricsOnce.Do(func() { p.bind(r) })
	}
}

func (p *Pool) metrics() {
	p.metricsOnce.Do(func() { p.bind(obs.NewRegistry()) })
}

func (p *Pool) bind(r *obs.Registry) {
	p.checkouts = r.Counter("dnswire_arena_checkouts_total")
	p.recycles = r.Counter("dnswire_arena_recycles_total")
	p.discards = r.Counter("dnswire_arena_discards_total")
}

// PoolStats is a snapshot of pool counters.
type PoolStats struct {
	// Checkouts counts Get calls; Recycles counts arenas returned to the
	// pool by Finish; Discards counts arenas Finish dropped for
	// exceeding the retention caps. Checkouts - Recycles - Discards is
	// the number of arenas currently checked out (plus any discarded by
	// NoRecycle, which counts neither recycle nor discard).
	Checkouts, Recycles, Discards uint64
}

// Stats returns the current counter snapshot.
func (p *Pool) Stats() PoolStats {
	p.metrics()
	return PoolStats{
		Checkouts: p.checkouts.Load(),
		Recycles:  p.recycles.Load(),
		Discards:  p.discards.Load(),
	}
}

// Get checks an arena out of the pool, allocating a fresh one when the
// pool is empty (or NoRecycle is set). Release it with Finish.
func (p *Pool) Get() *Arena {
	p.metrics()
	p.checkouts.Inc()
	if !p.NoRecycle {
		if a, ok := p.p.Get().(*Arena); ok && a != nil {
			a.pool = p
			return a
		}
	}
	return &Arena{pool: p}
}

// Finish releases the arena back to its pool, invalidating every message
// and name still borrowing it. Finish on nil or an already-finished
// arena is a no-op, so it is safe to defer unconditionally. Arenas whose
// buffers grew past the retention caps are discarded instead of pooled.
func (a *Arena) Finish() {
	if a == nil || a.pool == nil {
		return
	}
	p := a.pool
	a.pool = nil
	if p.NoRecycle {
		return
	}
	if cap(a.out) > maxRetainedBytes || cap(a.scratch) > maxRetainedBytes ||
		cap(a.rrs) > maxRetainedRRs || cap(a.qs) > maxRetainedQs ||
		!a.slabs.recycle() {
		p.discards.Inc()
		return
	}
	// Drop references into message payloads so a pooled arena doesn't
	// pin names and RDATA from its last exchange while idle. Only the
	// part used since the last Finish can hold any: an arena that once
	// decoded a large referral does not clear its whole array again on
	// every exchange after that, and one whose RRBuf was never lent
	// clears none of it.
	clear(a.rrs[:max(a.rrsHigh, len(a.rrs))])
	clear(a.qs[:max(a.qsHigh, len(a.qs))])
	clear(a.sec[:usedPrefix(a.sec[:])])
	a.rrs, a.qs = a.rrs[:0], a.qs[:0]
	a.rrsHigh, a.qsHigh = 0, 0
	a.qq[0] = Question{}
	a.qslot = Message{}
	a.rslot = Message{}
	p.recycles.Inc()
	p.p.Put(a)
}

// usedPrefix is how many leading records of an RRBuf backing array a
// caller appended: appends fill it from the front, and no record a
// response carries is the zero RR. A client arena never lends its
// RRBuf, so its Finish clears none of it.
func usedPrefix(sec []RR) int {
	for i := range sec {
		if sec[i] == (RR{}) {
			return i
		}
	}
	return len(sec)
}

// NewQuery is Message NewQuery built in the arena's query slot: no heap
// allocation, valid until the next NewQuery/NewResponse on this arena or
// Finish. The name is retained as given; callers own its lifetime.
func (a *Arena) NewQuery(id uint16, name dnsname.Name, qtype Type) *Message {
	a.qq[0] = Question{Name: name, Type: qtype, Class: ClassIN}
	a.qslot = Message{
		Header:    Header{ID: id, Opcode: OpcodeQuery},
		Questions: a.qq[:1],
	}
	return &a.qslot
}

// NewResponse is Message NewResponse built in the arena's query slot,
// sharing q's question section rather than copying it. On a server, q is
// the arena-decoded query (the decode slot), so both messages ride the
// same arena through the exchange.
func (a *Arena) NewResponse(q *Message) *Message {
	a.qslot = Message{
		Header: Header{
			ID:               q.Header.ID,
			Response:         true,
			Opcode:           q.Header.Opcode,
			RecursionDesired: q.Header.RecursionDesired,
		},
		Questions: q.Questions,
	}
	return &a.qslot
}

// OfType returns the records of rrs with type t, nil when none match,
// in the arena's record array after the decoded message's: the filtered
// section borrows a like the message itself, valid until the next
// Decode on a or Finish, and costs no allocation once the array has
// grown to the workload's size. rrs is typically a section of the
// message decoded on a.
func (a *Arena) OfType(rrs []RR, t Type) []RR {
	start := len(a.rrs)
	for _, rr := range rrs {
		if rr.Type() == t {
			a.rrs = append(a.rrs, rr)
		}
	}
	return sectionSlice(a.rrs, start, len(a.rrs))
}

// RRBuf lends the arena's record scratch for building a response's
// sections: an empty slice with room for a typical answer and its glue,
// borrowing the arena like everything else on it. Records appended past
// its capacity move to the heap.
func (a *Arena) RRBuf() []RR { return a.sec[:0] }
