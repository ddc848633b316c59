package analysis

// The per-(domain, year) NS-count mode's reference: count the active NS
// records day by day, then take the mode of the days that had any. The
// corpus computes the same number from record-window edges
// (sweepModes); TestCorpusDifferential and TestCorpusModeHandCrafted
// check the two against each other on every owner and year.

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
)

// nsDaily returns, for one domain's record sets and one year, the
// number of NS records active on each day that had any (the paper's
// Fig. 5 representation).
func nsDaily(sets []pdns.RecordSet, year int) []int {
	first, last := pdns.YearRange(year)
	counts := make([]int, int(last-first)+1)
	for i := range sets {
		rs := &sets[i]
		if rs.RRType != dnswire.TypeNS || !rs.Overlaps(first, last) {
			continue
		}
		for d := max(rs.FirstSeen, first); d <= min(rs.LastSeen, last); d++ {
			counts[d-first]++
		}
	}
	var active []int
	for _, c := range counts {
		if c > 0 {
			active = append(active, c)
		}
	}
	return active
}

// mode returns the most frequent value in vals, the smaller value on a
// tie; ok is false for an empty input.
func mode(vals []int) (best int, ok bool) {
	if len(vals) == 0 {
		return 0, false
	}
	counts := make(map[int]int, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	bestCount := -1
	for v, c := range counts {
		if c > bestCount || (c == bestCount && v < best) {
			best, bestCount = v, c
		}
	}
	return best, true
}

// nsModeForYear is the mode of nsDaily: a domain's representative
// nameserver count for the year. ok is false when the domain had no
// active NS record that year.
func nsModeForYear(sets []pdns.RecordSet, year int) (int, bool) {
	return mode(nsDaily(sets, year))
}

// domainIndex is a view's NS record sets grouped by owner.
type domainIndex struct {
	names []dnsname.Name // canonical order
	sets  map[dnsname.Name][]pdns.RecordSet
}

func indexByDomain(view *pdns.View) *domainIndex {
	idx := &domainIndex{sets: make(map[dnsname.Name][]pdns.RecordSet)}
	for _, rs := range view.Sets {
		if rs.RRType != dnswire.TypeNS {
			continue
		}
		if _, seen := idx.sets[rs.RRName]; !seen {
			idx.names = append(idx.names, rs.RRName)
		}
		idx.sets[rs.RRName] = append(idx.sets[rs.RRName], rs)
	}
	sort.Slice(idx.names, func(i, j int) bool { return dnsname.Compare(idx.names[i], idx.names[j]) < 0 })
	return idx
}

// checkModes asserts that the corpus compiled from view over
// [startYear, endYear] holds the reference mode for every owner and
// year.
func checkModes(t *testing.T, view *pdns.View, c *Corpus, startYear, endYear int) {
	t.Helper()
	idx := indexByDomain(view)
	for _, name := range idx.names {
		i := c.ownerID(name)
		for year := startYear; year <= endYear; year++ {
			want, ok := nsModeForYear(idx.sets[name], year)
			if !ok {
				want = 0
			}
			if got := int(c.modeAt(i, year-startYear)); got != want {
				t.Fatalf("mode(%s, %d) = %d, want %d", name, year, got, want)
			}
		}
	}
}

func TestMode(t *testing.T) {
	cases := []struct {
		in   []int
		want int
		ok   bool
	}{
		{nil, 0, false},
		{[]int{2}, 2, true},
		{[]int{1, 2, 2, 3}, 2, true},
		{[]int{3, 3, 1, 1}, 1, true}, // tie breaks to smaller value
		{[]int{1, 1, 2, 2, 2}, 2, true},
	}
	for _, tc := range cases {
		got, ok := mode(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("mode(%v) = %d, %v; want %d, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestModeIsAMember(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int, len(raw))
		present := make(map[int]bool)
		for i, r := range raw {
			vals[i] = int(r % 5)
			present[vals[i]] = true
		}
		m, ok := mode(vals)
		return ok && present[m]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNSDailyAndMode(t *testing.T) {
	// A domain with two NS records most of the year, one of which
	// disappears in November.
	sets := []pdns.RecordSet{
		{RRName: "x.gov.br.", RRType: dnswire.TypeNS, RData: "ns1.x.gov.br.",
			FirstSeen: day(2020, time.January, 1), LastSeen: day(2020, time.December, 31)},
		{RRName: "x.gov.br.", RRType: dnswire.TypeNS, RData: "ns2.x.gov.br.",
			FirstSeen: day(2020, time.January, 1), LastSeen: day(2020, time.October, 31)},
	}
	daily := nsDaily(sets, 2020)
	if len(daily) != 366 {
		t.Fatalf("active days = %d, want 366", len(daily))
	}
	m, ok := nsModeForYear(sets, 2020)
	if !ok || m != 2 {
		t.Errorf("mode = %d, %v; want 2", m, ok)
	}
	// Records outside the year are ignored.
	if _, ok := nsModeForYear(sets, 2010); ok {
		t.Error("mode reported for an inactive year")
	}
	// A record active only 10 days with a second active 300 days: the
	// mode is 1.
	sets2 := []pdns.RecordSet{
		{RRName: "y.gov.br.", RRType: dnswire.TypeNS, RData: "a.",
			FirstSeen: day(2019, time.January, 1), LastSeen: day(2019, time.December, 31)},
		{RRName: "y.gov.br.", RRType: dnswire.TypeNS, RData: "b.",
			FirstSeen: day(2019, time.June, 1), LastSeen: day(2019, time.June, 10)},
	}
	if m, _ := nsModeForYear(sets2, 2019); m != 1 {
		t.Errorf("mode = %d, want 1", m)
	}
}
