package dnsname

import "strings"

// SuffixSet is a small public-suffix-style table. The study needs to answer
// two questions about a name: what its registered (registrable) domain is,
// and whether it falls under a suffix reserved for government use.
//
// The zero value is an empty set. SuffixSet is not safe for concurrent
// mutation; build it fully before sharing.
type SuffixSet struct {
	suffixes map[Name]bool
}

// NewSuffixSet builds a set from presentation-form suffixes
// (e.g. "com", "gov.br", "co.uk"). Invalid entries are skipped.
func NewSuffixSet(suffixes ...string) *SuffixSet {
	s := &SuffixSet{suffixes: make(map[Name]bool, len(suffixes))}
	for _, raw := range suffixes {
		n, err := Parse(raw)
		if err != nil {
			continue
		}
		s.suffixes[n] = true
	}
	return s
}

// Add inserts a suffix into the set.
func (s *SuffixSet) Add(n Name) {
	if s.suffixes == nil {
		s.suffixes = make(map[Name]bool)
	}
	s.suffixes[n] = true
}

// Contains reports whether n itself is a registered suffix.
func (s *SuffixSet) Contains(n Name) bool { return s.suffixes[n] }

// Len returns the number of suffixes in the set.
func (s *SuffixSet) Len() int { return len(s.suffixes) }

// LongestSuffix returns the longest suffix in the set that n is strictly
// below, and whether one exists. "gov.br." is not considered under suffix
// "gov.br." (a suffix is not under itself).
func (s *SuffixSet) LongestSuffix(n Name) (Name, bool) {
	best, found := Root, false
	for cur := n.Parent(); !cur.IsRoot(); cur = cur.Parent() {
		if s.suffixes[cur] {
			best, found = cur, true
			// Keep walking: a longer suffix is closer to n, and we walk
			// from n upward, so the first hit is the longest.
			return best, found
		}
	}
	return best, found
}

// RegisteredDomain returns the registrable domain of n with respect to the
// suffix set: the label immediately below the longest matching suffix, plus
// that suffix. If no suffix matches, the top two labels are used as a
// fallback (mirroring how the paper fell back to registered domains when a
// government suffix could not be verified). Returns false for names too
// short to have a registered domain.
func (s *SuffixSet) RegisteredDomain(n Name) (Name, bool) {
	if suffix, ok := s.LongestSuffix(n); ok {
		want := suffix.Level() + 1
		return n.AncestorAtLevel(want)
	}
	if n.Level() < 2 {
		return "", false
	}
	return n.AncestorAtLevel(2)
}

// TrimOrigin returns n relative to origin in presentation form without a
// trailing dot, or "@" when n equals origin. It reports false when n is
// not below origin. Used by the zone-file serialiser.
func TrimOrigin(n, origin Name) (string, bool) {
	if n == origin {
		return "@", true
	}
	if !n.IsSubdomainOf(origin) {
		return "", false
	}
	if origin.IsRoot() {
		return strings.TrimSuffix(string(n), "."), true
	}
	return strings.TrimSuffix(string(n), "."+string(origin)), true
}
