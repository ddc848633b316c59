package dnsname

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseCanonicalizes(t *testing.T) {
	tests := []struct {
		in   string
		want Name
	}{
		{"", Root},
		{".", Root},
		{"GOV.BR", "gov.br."},
		{"gov.br.", "gov.br."},
		{"WwW.Gov.Au.", "www.gov.au."},
		{"xn--p1ai", "xn--p1ai."},
		{"_dmarc.gov.uk", "_dmarc.gov.uk."},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("Parse(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	tests := []struct {
		in      string
		wantErr error
	}{
		{"bad..label", ErrBadLabel},
		{".leading.dot", ErrBadLabel},
		{"space in.label", ErrBadLabel},
		{"exclaim!.com", ErrBadLabel},
		{strings.Repeat("a", 64) + ".com", ErrBadLabel},
		{strings.Repeat("abcd.", 60) + "com", ErrTooLong},
	}
	for _, tt := range tests {
		if _, err := Parse(tt.in); !errors.Is(err, tt.wantErr) {
			t.Errorf("Parse(%q) error = %v, want %v", tt.in, err, tt.wantErr)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on invalid input")
		}
	}()
	MustParse("!!")
}

func TestLevelAndLabels(t *testing.T) {
	tests := []struct {
		name   Name
		level  int
		labels int
	}{
		{Root, 0, 0},
		{"br.", 1, 1},
		{"gov.br.", 2, 2},
		{"www.prefeitura.gov.br.", 4, 4},
	}
	for _, tt := range tests {
		if got := tt.name.Level(); got != tt.level {
			t.Errorf("%q.Level() = %d, want %d", tt.name, got, tt.level)
		}
		if got := len(tt.name.Labels()); got != tt.labels {
			t.Errorf("%q.Labels() has %d labels, want %d", tt.name, got, tt.labels)
		}
	}
}

func TestParent(t *testing.T) {
	tests := []struct {
		in, want Name
	}{
		{"www.gov.br.", "gov.br."},
		{"gov.br.", "br."},
		{"br.", Root},
		{Root, Root},
		{"gov", Root}, // not canonical, but an ancestor walk must end
	}
	for _, tt := range tests {
		if got := tt.in.Parent(); got != tt.want {
			t.Errorf("%q.Parent() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestIsSubdomainOf(t *testing.T) {
	tests := []struct {
		child, parent Name
		want          bool
	}{
		{"www.gov.br.", "gov.br.", true},
		{"gov.br.", "gov.br.", true},
		{"gov.br.", "www.gov.br.", false},
		{"notgov.br.", "gov.br.", false},
		{"xgov.br.", "gov.br.", false}, // suffix match must be label-aligned
		{"anything.example.", Root, true},
	}
	for _, tt := range tests {
		if got := tt.child.IsSubdomainOf(tt.parent); got != tt.want {
			t.Errorf("%q.IsSubdomainOf(%q) = %v, want %v", tt.child, tt.parent, got, tt.want)
		}
	}
}

func TestPrepend(t *testing.T) {
	n := MustParse("gov.br")
	child, err := n.Prepend("WWW")
	if err != nil {
		t.Fatalf("Prepend: %v", err)
	}
	if child != "www.gov.br." {
		t.Errorf("Prepend = %q", child)
	}
	if _, err := n.Prepend("bad label"); err == nil {
		t.Error("Prepend accepted a label with a space")
	}
	if tld := Root.MustPrepend("br"); tld != "br." {
		t.Errorf("Prepend on root = %q, want %q", tld, "br.")
	}
}

func TestAncestorAtLevel(t *testing.T) {
	n := MustParse("a.b.gov.cn")
	got, ok := n.AncestorAtLevel(2)
	if !ok || got != "gov.cn." {
		t.Errorf("AncestorAtLevel(2) = %q, %v", got, ok)
	}
	if _, ok := n.AncestorAtLevel(5); ok {
		t.Error("AncestorAtLevel(5) should fail for a 4-label name")
	}
	if got, _ := n.AncestorAtLevel(4); got != n {
		t.Errorf("AncestorAtLevel(own level) = %q, want %q", got, n)
	}
}

func TestCompare(t *testing.T) {
	if Compare("gov.br.", "gov.br.") != 0 {
		t.Error("Compare of equal names != 0")
	}
	if Compare("br.", "a.br.") != -1 {
		t.Error("parent should sort before child")
	}
	if Compare("a.br.", "a.cn.") != -1 {
		t.Error("expected br subtree before cn subtree")
	}
}

func TestCompareIsAntisymmetric(t *testing.T) {
	f := func(a, b uint8) bool {
		x := Name(strings.Repeat("a", int(a%5)+1) + ".example.")
		y := Name(strings.Repeat("b", int(b%5)+1) + ".example.")
		return Compare(x, y) == -Compare(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	// Any parsed name re-parses to itself.
	labels := []string{"gov", "www", "ns1", "example", "br", "cn", "x_y", "a-b"}
	f := func(i, j, k uint8) bool {
		s := labels[int(i)%len(labels)] + "." + labels[int(j)%len(labels)] + "." + labels[int(k)%len(labels)]
		n1, err := Parse(s)
		if err != nil {
			return false
		}
		n2, err := Parse(n1.String())
		return err == nil && n1 == n2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// compareByLabels is Compare's definition — lexicographic order on the
// label sequence read right to left — kept as the reference the
// allocation-free implementation is checked against.
func compareByLabels(a, b Name) int {
	al, bl := a.Labels(), b.Labels()
	i, j := len(al)-1, len(bl)-1
	for i >= 0 && j >= 0 {
		if al[i] != bl[j] {
			if al[i] < bl[j] {
				return -1
			}
			return 1
		}
		i--
		j--
	}
	switch {
	case i < 0 && j < 0:
		return 0
	case i < 0:
		return -1
	default:
		return 1
	}
}

func TestCompareMatchesLabelDefinition(t *testing.T) {
	// A small label alphabet makes shared suffixes, prefix-of-a-label
	// pairs ("a" vs "ab") and names differing only in length common.
	labels := []string{"a", "ab", "b", "a-b", "a_b", "0", "gov", "br", "*"}
	build := func(picks []uint8) Name {
		if len(picks) > 5 {
			picks = picks[:5]
		}
		n := Root
		for _, p := range picks {
			n = n.MustPrepend(labels[int(p)%len(labels)])
		}
		return n
	}
	f := func(x, y []uint8) bool {
		a, b := build(x), build(y)
		return Compare(a, b) == compareByLabels(a, b) && Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	for _, p := range [][2]Name{
		{Root, Root}, {Root, "br."}, {"br.", "a.br."}, {"a.br.", "ab.br."},
		{"a.b.", "a-b."}, {"x.gov.br.", "gov.br."}, {"b.a.", "a.b."}, {"", Root},
	} {
		if got, want := Compare(p[0], p[1]), compareByLabels(p[0], p[1]); got != want {
			t.Errorf("Compare(%q, %q) = %d, label definition says %d", p[0], p[1], got, want)
		}
	}
}

// FuzzCompare checks the same agreement on arbitrary strings, canonical
// or not: both sides split on the same dots.
func FuzzCompare(f *testing.F) {
	f.Add(".", "gov.br.")
	f.Add("a.gov.br.", "b.gov.br.")
	f.Add("gov.br.", "x.gov.br.")
	f.Add("a.b.", "a-b.")
	f.Add("a..b.", "a.b")
	f.Fuzz(func(t *testing.T, a, b string) {
		x, y := Name(a), Name(b)
		if got, want := Compare(x, y), compareByLabels(x, y); got != want {
			t.Errorf("Compare(%q, %q) = %d, label definition says %d", a, b, got, want)
		}
	})
}

func TestCompareAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	a, b := Name("ns1.agency.gov.br."), Name("ns2.agency.gov.br.")
	if allocs := testing.AllocsPerRun(100, func() { Compare(a, b) }); allocs != 0 {
		t.Errorf("Compare allocates %v times per call, want 0", allocs)
	}
}

// parseBySplit is Parse as it was before it scanned labels in place
// and returned a dotted lowercase input as itself: the reference for
// what Parse accepts and for its error text, byte for byte.
func parseBySplit(s string) (Name, error) {
	if s == "" || s == "." {
		return Root, nil
	}
	s = strings.ToLower(s)
	trimmed := strings.TrimSuffix(s, ".")
	if len(trimmed) > MaxNameLen {
		return "", fmt.Errorf("%w: %q has %d bytes", ErrTooLong, s, len(trimmed))
	}
	for _, label := range strings.Split(trimmed, ".") {
		if err := checkLabel(label); err != nil {
			return "", fmt.Errorf("%w in %q", err, s)
		}
	}
	return Name(trimmed + "."), nil
}

// FuzzParse checks Parse against the split-based reference: the same
// Name or the same error text, and an accepted name parses to itself.
func FuzzParse(f *testing.F) {
	label63 := strings.Repeat("a", 63)
	for _, s := range []string{
		"GOV.BR.", "Gov.Br", "gov.br", "gov.br.", "", ".", "a..", ".a.", "*", "*.", "*.gov.br.",
		"a*.gov.", "**.gov.", "_dmarc.gov.uk.", "xn--p1ai.",
		label63 + ".com.", label63 + "a.com.",
		strings.Repeat("abcd.", 50) + "abc.",  // 253 bytes before the dot
		strings.Repeat("abcd.", 50) + "abcd.", // 254
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Parse(s)
		want, wantErr := parseBySplit(s)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Parse(%q) = %q, %v; parseBySplit gives %q, %v", s, got, err, want, wantErr)
		}
		if err != nil {
			return
		}
		if again, err := Parse(string(got)); err != nil || again != got {
			t.Fatalf("Parse(%q) = %q, which parses to %q, %v", s, got, again, err)
		}
	})
}

func TestParseCanonicalAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := "ns1.agency.gov.br."
	var n Name
	if allocs := testing.AllocsPerRun(100, func() { n, _ = Parse(s) }); allocs != 0 {
		t.Errorf("Parse of a canonical name allocates %v times per call, want 0", allocs)
	}
	if n != Name(s) {
		t.Errorf("Parse(%q) = %q", s, n)
	}
}
