package dnsname

import (
	"strings"
	"unsafe"
)

// This file is the borrow-aware construction path for Name. The wire
// decoder (internal/dnswire) builds canonical name bytes into a recycled
// arena and hands them out as Names without copying; the price is that
// such a Name aliases the arena and is only valid until the arena is
// recycled. The rules (see DESIGN.md §10):
//
//   - A borrowed Name is indistinguishable from an owned one in use:
//     comparison, Parent, map lookup, fmt formatting (which copies) all
//     work. Only *retention* is restricted.
//   - Anything that outlives the packet — cache keys, published
//     ZoneServers, trace span labels — must pass through Own at its
//     choke point.
//   - Own is idempotent in effect: owning an owned name is a plain small
//     copy, so choke points call it unconditionally.

// BorrowCanonical wraps b as a Name without copying. b must already hold
// a canonical name — lowercase, fully qualified, trailing dot — that the
// caller has validated against the same rules as Parse; BorrowCanonical
// itself performs no validation. The result aliases b's backing array
// and is only valid while that array is neither rewritten nor recycled.
func BorrowCanonical(b []byte) Name {
	if len(b) == 0 {
		return ""
	}
	return Name(unsafe.String(&b[0], len(b)))
}

// Own returns a Name backed by its own heap allocation, detached from
// any arena the receiver may borrow. It is the release half of the
// borrow contract: call it wherever a name must outlive the packet it
// was decoded from.
func (n Name) Own() Name {
	return Name(strings.Clone(string(n)))
}

// OwnAll is Own for a batch: it replaces every name in names, in place,
// with an owned copy, and one allocation backs all of them. A caller
// that retains a handful of names decoded from one packet pays for one
// string instead of one per name; any one of the copies keeps the whole
// block alive.
func OwnAll(names []Name) {
	n := 0
	for _, name := range names {
		n += len(name)
	}
	if n == 0 {
		return
	}
	var b strings.Builder
	b.Grow(n)
	for _, name := range names {
		b.WriteString(string(name))
	}
	block := b.String()
	for i, name := range names {
		names[i], block = Name(block[:len(name)]), block[len(name):]
	}
}

// CanonicalLabelByte maps c to its canonical (lowercase) form and
// reports whether it may appear inside an ordinary label: the LDH set
// plus underscore, exactly the characters checkLabel accepts. The "*"
// wildcard is valid only as a whole label and is the caller's special
// case.
func CanonicalLabelByte(c byte) (byte, bool) {
	switch {
	case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		return c, true
	case c >= 'A' && c <= 'Z':
		return c + ('a' - 'A'), true
	default:
		return c, false
	}
}
