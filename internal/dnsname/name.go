// Package dnsname provides domain-name parsing, validation, and algebra
// used throughout the measurement pipeline.
//
// Names are handled in canonical form: lowercase, fully qualified, with a
// trailing dot (e.g. "www.gov.br."). The root is the single dot ".".
package dnsname

import (
	"errors"
	"fmt"
	"strings"
)

// RFC 1035 size limits.
const (
	// MaxNameLen is the maximum length of a domain name in presentation
	// form, excluding the trailing dot.
	MaxNameLen = 253
	// MaxLabelLen is the maximum length of a single label.
	MaxLabelLen = 63
)

var (
	// ErrTooLong indicates the name exceeds MaxNameLen.
	ErrTooLong = errors.New("dnsname: name too long")
	// ErrBadLabel indicates a label that is empty, too long, or contains
	// forbidden characters.
	ErrBadLabel = errors.New("dnsname: bad label")
)

// Name is a canonical, fully qualified, lowercase domain name with a
// trailing dot. The zero value is invalid; use Parse or MustParse.
type Name string

// Root is the DNS root name.
const Root Name = "."

// Parse canonicalizes and validates s into a Name. It accepts names with
// or without a trailing dot and is case-insensitive. The root may be given
// as "." or "".
//
// A valid s that is already lowercase and ends in a dot is returned as
// s itself, without allocating; any other valid input, the root aside,
// comes back in a new string. A Name that is s shares s's bytes, which
// has two consequences for the caller:
//
//   - Retention: a Name parsed from a substring keeps the whole string
//     it was cut from alive for as long as the Name lives. Call Own on
//     a name that outlives a large text.
//   - Aliasing: a string that borrows an arena (BorrowCanonical) comes
//     back as the same borrowed view, not as an owned copy. Own it
//     first, or do not pass it to Parse.
func Parse(s string) (Name, error) {
	if s == "" || s == "." {
		return Root, nil
	}
	s = strings.ToLower(s) // s itself when it has no upper case
	trimmed := strings.TrimSuffix(s, ".")
	if len(trimmed) > MaxNameLen {
		return "", fmt.Errorf("%w: %q has %d bytes", ErrTooLong, s, len(trimmed))
	}
	for rest, more := trimmed, true; more; {
		var label string
		label, rest, more = strings.Cut(rest, ".")
		if err := checkLabel(label); err != nil {
			return "", fmt.Errorf("%w in %q", err, s)
		}
	}
	if len(trimmed) < len(s) {
		return Name(s), nil
	}
	return Name(trimmed + "."), nil
}

// MustParse is like Parse but panics on error. It is intended for
// compile-time constant names in tests and generators.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// checkLabel validates a single label. Per measurement practice we accept
// LDH labels plus underscore (seen in the wild for service records) and
// the bare "*" wildcard label of RFC 1034 §4.3.3.
func checkLabel(label string) error {
	if label == "" {
		return fmt.Errorf("%w: empty", ErrBadLabel)
	}
	if label == "*" {
		return nil
	}
	if len(label) > MaxLabelLen {
		return fmt.Errorf("%w: %q has %d bytes", ErrBadLabel, label, len(label))
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-' || c == '_':
		default:
			return fmt.Errorf("%w: %q contains %q", ErrBadLabel, label, c)
		}
	}
	return nil
}

// String returns the canonical presentation form, including the trailing dot.
func (n Name) String() string { return string(n) }

// Hash returns n's FNV-1a hash, the shard key of tables keyed by name.
func Hash(n Name) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(n); i++ {
		h = (h ^ uint32(n[i])) * 16777619
	}
	return h
}

// IsRoot reports whether n is the DNS root.
func (n Name) IsRoot() bool { return n == Root }

// Labels returns the labels of n from most to least specific. The root has
// no labels.
func (n Name) Labels() []string {
	s, ok := n.unrooted()
	if !ok {
		return nil
	}
	return strings.Split(s, ".")
}

// Level returns the number of labels in n. The root is level 0; "gov.br."
// is level 2; "www.gov.br." is level 3. The paper classifies domains by
// this DNS-hierarchy level.
func (n Name) Level() int {
	if n.IsRoot() || n == "" {
		return 0
	}
	return strings.Count(string(n), ".")
}

// Parent returns the name with the leftmost label removed. The parent of a
// top-level domain is the root; the parent of the root is the root, and
// so is the parent of a name without a dot, so that a walk up through a
// name's ancestors ends at the root whatever the name.
func (n Name) Parent() Name {
	if n.IsRoot() || n == "" {
		return Root
	}
	idx := strings.IndexByte(string(n), '.')
	if idx < 0 || idx == len(n)-1 {
		return Root
	}
	return n[idx+1:]
}

// IsSubdomainOf reports whether n is equal to or below ancestor.
// Every name is a subdomain of the root. It allocates nothing.
func (n Name) IsSubdomainOf(ancestor Name) bool {
	if ancestor.IsRoot() || n == ancestor {
		return true
	}
	cut := len(n) - len(ancestor)
	return cut > 0 && n[cut-1] == '.' && n[cut:] == ancestor
}

// Prepend returns label + "." + n, validating the new label.
func (n Name) Prepend(label string) (Name, error) {
	if err := checkLabel(strings.ToLower(label)); err != nil {
		return "", err
	}
	child := strings.ToLower(label) + "."
	if !n.IsRoot() && n != "" {
		child += string(n)
	}
	if len(child)-1 > MaxNameLen {
		return "", fmt.Errorf("%w: %q", ErrTooLong, child)
	}
	return Name(child), nil
}

// MustPrepend is like Prepend but panics on error.
func (n Name) MustPrepend(label string) Name {
	c, err := n.Prepend(label)
	if err != nil {
		panic(err)
	}
	return c
}

// AncestorAtLevel returns the ancestor of n with exactly level labels.
// It returns false if n has fewer labels than requested.
func (n Name) AncestorAtLevel(level int) (Name, bool) {
	cur := n.Level()
	if cur < level {
		return "", false
	}
	for cur > level {
		n = n.Parent()
		cur--
	}
	return n, true
}

// Compare orders names by their reversed label sequence (DNSSEC canonical
// ordering), which groups zones with their parents. It returns -1, 0, or 1.
//
// It walks both names label by label from the right and allocates
// nothing: sorting is the pipeline's most frequent name operation (a
// PDNS snapshot alone is millions of comparisons).
func Compare(a, b Name) int {
	as, aMore := a.unrooted()
	bs, bMore := b.unrooted()
	for aMore && bMore {
		i := strings.LastIndexByte(as, '.')
		j := strings.LastIndexByte(bs, '.')
		if c := strings.Compare(as[i+1:], bs[j+1:]); c != 0 {
			return c
		}
		// i < 0 means the label just compared was the name's leftmost.
		if aMore = i >= 0; aMore {
			as = as[:i]
		}
		if bMore = j >= 0; bMore {
			bs = bs[:j]
		}
	}
	switch {
	case aMore:
		return 1
	case bMore:
		return -1
	}
	return 0
}

// unrooted returns n without its trailing dot and whether n has any
// labels at all (the root and the zero Name have none).
func (n Name) unrooted() (string, bool) {
	if n.IsRoot() || n == "" {
		return "", false
	}
	return strings.TrimSuffix(string(n), "."), true
}
