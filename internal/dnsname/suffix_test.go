package dnsname

import "testing"

func newTestSet() *SuffixSet {
	return NewSuffixSet("gov.br", "gov.cn", "gov.uk", "gob.mx", "com")
}

func TestSuffixSetContains(t *testing.T) {
	s := newTestSet()
	if !s.Contains("gov.br.") {
		t.Error("Contains(gov.br.) = false")
	}
	if s.Contains("www.gov.br.") {
		t.Error("Contains(www.gov.br.) = true for a non-suffix")
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
}

func TestLongestSuffix(t *testing.T) {
	s := newTestSet()
	got, ok := s.LongestSuffix("www.prefeitura.gov.br.")
	if !ok || got != "gov.br." {
		t.Errorf("LongestSuffix = %q, %v", got, ok)
	}
	// A suffix is not under itself.
	if _, ok := s.LongestSuffix("gov.br."); ok {
		t.Error("LongestSuffix(gov.br.) matched itself")
	}
	if _, ok := s.LongestSuffix("example.org."); ok {
		t.Error("LongestSuffix matched an unknown TLD")
	}
	// A name without a dot is not canonical, but the walk up still ends.
	if _, ok := s.LongestSuffix("gov"); ok {
		t.Error("LongestSuffix(gov) matched")
	}
}

func TestRegisteredDomain(t *testing.T) {
	s := newTestSet()
	tests := []struct {
		in   Name
		want Name
		ok   bool
	}{
		{"www.prefeitura.gov.br.", "prefeitura.gov.br.", true},
		{"deep.www.city.gov.cn.", "city.gov.cn.", true},
		{"ns1.example.com.", "example.com.", true},
		// Fallback: unknown suffix uses top two labels.
		{"a.b.example.org.", "example.org.", true},
		{"org.", "", false},
	}
	for _, tt := range tests {
		got, ok := s.RegisteredDomain(tt.in)
		if ok != tt.ok || got != tt.want {
			t.Errorf("RegisteredDomain(%q) = %q, %v; want %q, %v", tt.in, got, ok, tt.want, tt.ok)
		}
	}
}

func TestTrimOrigin(t *testing.T) {
	tests := []struct {
		n, origin Name
		want      string
		ok        bool
	}{
		{"gov.br.", "gov.br.", "@", true},
		{"www.gov.br.", "gov.br.", "www", true},
		{"a.b.gov.br.", "gov.br.", "a.b", true},
		{"gov.cn.", "gov.br.", "", false},
		{"example.com.", Root, "example.com", true},
	}
	for _, tt := range tests {
		got, ok := TrimOrigin(tt.n, tt.origin)
		if got != tt.want || ok != tt.ok {
			t.Errorf("TrimOrigin(%q, %q) = %q, %v; want %q, %v", tt.n, tt.origin, got, ok, tt.want, tt.ok)
		}
	}
}

func TestSuffixSetAddOnZeroValue(t *testing.T) {
	var s SuffixSet
	s.Add("gov.au.")
	if !s.Contains("gov.au.") {
		t.Error("Add on zero-value SuffixSet did not register the suffix")
	}
}
