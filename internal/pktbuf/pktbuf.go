// Package pktbuf is the process's one pool of datagram buffers: the
// receive buffers the batched UDP transport lends, the buffer the dial
// transport reads into, and the response buffer the simulated network
// renders each answer into. A transport that hands such a buffer to the
// resolver client implements resolver.ResponseReleaser, and the client
// returns it with Put once decoded (DESIGN.md § 10).
package pktbuf

import (
	"sync"
	"unsafe"
)

// Size is the datagram buffer size, the de-facto EDNS0 practical
// ceiling: udpx and UDPServer receive into buffers of this size.
const Size = 4096

// Array is the pooled buffer type. Pooling a pointer to a fixed-size
// array (rather than a *[]byte) keeps checkout and return
// allocation-free: the handed-out slice is (*arr)[:n], and return
// recovers the array pointer from the slice's data pointer.
type Array [Size]byte

var pool = sync.Pool{New: func() any { return new(Array) }}

// Get checks a full-capacity buffer out of the pool.
func Get() []byte {
	return pool.Get().(*Array)[:]
}

// Put returns a buffer obtained from Get to the pool. A buffer of any
// other capacity is foreign — a chaos replay or reflection copy, a
// response grown past Size, a caller-owned slice, a sub-slice — and is
// left to the GC; only slices still spanning their original array are
// reclaimed, so the pointer recovery below is sound. The caller must
// hold no other reference to buf.
func Put(buf []byte) {
	if cap(buf) != Size {
		return
	}
	pool.Put((*Array)(unsafe.Pointer(unsafe.SliceData(buf[:Size]))))
}
