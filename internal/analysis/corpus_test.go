package analysis

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
)

// TestCorpusModeHandCrafted pins the event sweep on the windows that
// are easy to get wrong: year-boundary straddles, single-day records,
// mode ties (the mode breaks toward the smaller count), many
// concurrent records, windows clipped at either edge of the study
// span, a leap year, and windows that abut without overlapping.
func TestCorpusModeHandCrafted(t *testing.T) {
	s := pdns.NewStore()
	obs := func(name dnsname.Name, host string, from, to pdns.Day) {
		s.ObserveRange(name, dnswire.TypeNS, host, from, to)
	}

	// straddle.gov.br.: one record across the 2014/2015 boundary, one
	// only in 2015.
	obs("straddle.gov.br.", "ns1.gov.br.", pdns.Date(2014, time.November, 1), pdns.Date(2015, time.March, 1))
	obs("straddle.gov.br.", "ns2.gov.br.", pdns.Date(2015, time.January, 10), pdns.Date(2015, time.December, 31))

	// tie.gov.br.: 2016 split exactly between 1-NS and 2-NS days —
	// the mode must break toward 1.
	obs("tie.gov.br.", "ns1.gov.br.", pdns.Date(2016, time.January, 1), pdns.Date(2016, time.January, 20))
	obs("tie.gov.br.", "ns2.gov.br.", pdns.Date(2016, time.January, 11), pdns.Date(2016, time.January, 30))

	// singleday.gov.br.: a one-day record on December 31.
	obs("singleday.gov.br.", "ns1.gov.br.", pdns.Date(2017, time.December, 31), pdns.Date(2017, time.December, 31))

	// wide.gov.br.: 10 concurrent records.
	for i := 0; i < 10; i++ {
		obs("wide.gov.br.", fmt.Sprintf("ns%d.wide.gov.br.", i), pdns.Date(2018, time.March, 1), pdns.Date(2018, time.June, 1))
	}

	// outside.gov.br.: active only before the study span.
	obs("outside.gov.br.", "ns1.gov.br.", pdns.Date(2009, time.May, 1), pdns.Date(2010, time.May, 1))

	// clipped.gov.br.: one window over the whole span and beyond both
	// of its edges, one cut by the span's start, one by its end.
	obs("clipped.gov.br.", "ns1.gov.br.", pdns.Date(2009, time.June, 1), pdns.Date(2021, time.June, 30))
	obs("clipped.gov.br.", "ns2.gov.br.", pdns.Date(2010, time.January, 1), pdns.Date(2011, time.September, 1))
	obs("clipped.gov.br.", "ns3.gov.br.", pdns.Date(2020, time.March, 1), pdns.Date(2022, time.January, 1))

	// leap.gov.br.: two records for January 1 to July 1 of 2012 — 183
	// days, February 29 among them — and one for the 183 days left: a
	// tie, which a 365-day 2012 would give to the two-record count.
	obs("leap.gov.br.", "ns1.gov.br.", pdns.Date(2012, time.January, 1), pdns.Date(2012, time.December, 31))
	obs("leap.gov.br.", "ns2.gov.br.", pdns.Date(2012, time.January, 1), pdns.Date(2012, time.July, 1))

	// abut.gov.br.: one record ends the day before the next begins,
	// mid-year and across a year boundary; never two at once.
	obs("abut.gov.br.", "ns1.gov.br.", pdns.Date(2013, time.February, 1), pdns.Date(2013, time.June, 30))
	obs("abut.gov.br.", "ns2.gov.br.", pdns.Date(2013, time.July, 1), pdns.Date(2013, time.December, 31))
	obs("abut.gov.br.", "ns3.gov.br.", pdns.Date(2014, time.January, 1), pdns.Date(2014, time.January, 1))

	view := pdns.NewView(s.Snapshot())
	c := CompileCorpus(view, testMapper(), 2011, 2020)
	checkModes(t, view, c, 2011, 2020)
	if got := int(c.modeAt(c.ownerID("tie.gov.br."), 2016-2011)); got != 1 {
		t.Errorf("tie mode = %d, want 1 (smaller value wins ties)", got)
	}
	if got := int(c.modeAt(c.ownerID("wide.gov.br."), 2018-2011)); got != 10 {
		t.Errorf("wide mode = %d, want 10", got)
	}
	for _, want := range []struct {
		name dnsname.Name
		year int
		mode int32
	}{
		{"clipped.gov.br.", 2011, 2}, // ns2 until September 1: 244 days of two
		{"clipped.gov.br.", 2015, 1},
		{"clipped.gov.br.", 2020, 2}, // ns3 from March 1: 306 days of two
		{"leap.gov.br.", 2012, 1},
		{"abut.gov.br.", 2013, 1},
		{"abut.gov.br.", 2014, 1},
		{"abut.gov.br.", 2015, 0},
		{"outside.gov.br.", 2011, 0},
	} {
		if got := c.modeAt(c.ownerID(want.name), want.year-2011); got != want.mode {
			t.Errorf("mode(%s, %d) = %d, want %d", want.name, want.year, got, want.mode)
		}
	}
}

// TestCorpusOfUnorderedView: a view whose owners do not arrive in
// canonical order compiles to the same owner IDs and per-owner columns
// as the sorted view (per-owner record order follows the view's).
func TestCorpusOfUnorderedView(t *testing.T) {
	sorted := pdns.NewView(genStore(11).Snapshot())
	m := testMapper()
	want := CompileCorpus(sorted, m, 2011, 2020)

	// Reversing keeps each owner's records together but inverts both
	// the owner order and the order within an owner; interleaving two
	// halves also separates an owner's records.
	reversed := slices.Clone(sorted.Sets)
	slices.Reverse(reversed)
	var interleaved []pdns.RecordSet
	for i, half := 0, len(sorted.Sets)/2; i < half; i++ {
		interleaved = append(interleaved, sorted.Sets[half+i], sorted.Sets[i])
	}
	if len(sorted.Sets)%2 == 1 {
		interleaved = append(interleaved, sorted.Sets[len(sorted.Sets)-1])
	}
	for name, sets := range map[string][]pdns.RecordSet{"reversed": reversed, "interleaved": interleaved} {
		got := CompileCorpus(pdns.NewView(sets), m, 2011, 2020)
		if !slices.Equal(got.names, want.names) {
			t.Errorf("%s: owner names differ from the sorted view's", name)
		}
		if !slices.Equal(got.mode, want.mode) || !slices.Equal(got.nsOff, want.nsOff) || !slices.Equal(got.nsOwners, want.nsOwners) {
			t.Errorf("%s: per-owner columns differ from the sorted view's", name)
		}
		if !reflect.DeepEqual(got.Yearly(), want.Yearly()) || !reflect.DeepEqual(got.ActiveNamesPerYear(), want.ActiveNamesPerYear()) {
			t.Errorf("%s: yearly figures differ from the sorted view's", name)
		}
	}
}

// TestCorpusActiveNamesPerYear checks the pdnsq -counts series against
// the distinct owner names of the view's Between, across all record
// types.
func TestCorpusActiveNamesPerYear(t *testing.T) {
	store := genStore(99)
	view := pdns.NewView(store.Snapshot())
	c := CompileCorpus(view, nil, 2011, 2020)
	got := c.ActiveNamesPerYear()
	for year := 2011; year <= 2020; year++ {
		from, to := pdns.YearRange(year)
		names := make(map[dnsname.Name]bool)
		for _, rs := range view.Between(from, to).Sets {
			names[rs.RRName] = true
		}
		want := len(names)
		if got[year-2011] != want {
			t.Errorf("ActiveNamesPerYear[%d] = %d, want %d", year, got[year-2011], want)
		}
	}
}

// TestCorpusDeterministicAcrossGOMAXPROCS pins the index-ordered
// assembly discipline: the same view must compile to identical results
// at any parallelism.
func TestCorpusDeterministicAcrossGOMAXPROCS(t *testing.T) {
	store := genStore(5)
	view := pdns.NewView(store.Snapshot())
	m := testMapper()

	old := runtime.GOMAXPROCS(1)
	c1 := CompileCorpus(view, m, 2011, 2020)
	y1, n1, ch1 := c1.Yearly(), c1.NameserversPerYear(), c1.SingleNSChurn()
	runtime.GOMAXPROCS(4)
	c4 := CompileCorpus(view, m, 2011, 2020)
	y4, n4, ch4 := c4.Yearly(), c4.NameserversPerYear(), c4.SingleNSChurn()
	runtime.GOMAXPROCS(old)

	if !reflect.DeepEqual(y1, y4) {
		t.Errorf("Yearly differs across GOMAXPROCS:\n 1: %+v\n 4: %+v", y1, y4)
	}
	if !reflect.DeepEqual(n1, n4) {
		t.Errorf("NameserversPerYear differs across GOMAXPROCS")
	}
	if !reflect.DeepEqual(ch1, ch4) {
		t.Errorf("SingleNSChurn differs across GOMAXPROCS")
	}
}

// TestCorpusEmptyView checks the degenerate shapes.
func TestCorpusEmptyView(t *testing.T) {
	c := CompileCorpus(pdns.NewView(nil), testMapper(), 2011, 2020)
	if len(c.nsOwners) != 0 || len(c.names) != 0 || len(c.nsRData) != 0 {
		t.Errorf("empty view compiled to %d/%d/%d", len(c.names), len(c.nsOwners), len(c.nsRData))
	}
	years := c.Yearly()
	if len(years) != 10 {
		t.Fatalf("Yearly len = %d", len(years))
	}
	for _, y := range years {
		if y.Domains != 0 {
			t.Errorf("%d: domains = %d on empty view", y.Year, y.Domains)
		}
	}
	if got := c.ActiveNamesPerYear(); len(got) != 10 {
		t.Errorf("ActiveNamesPerYear len = %d", len(got))
	}
}

// TestCorpusYearIndexPanics: serving a year outside the compiled span
// must fail loudly, not return zeros.
func TestCorpusYearIndexPanics(t *testing.T) {
	c := CompileCorpus(pdns.NewView(nil), testMapper(), 2011, 2020)
	defer func() {
		if recover() == nil {
			t.Error("DomainsPerCountry(2021) did not panic")
		}
	}()
	c.DomainsPerCountry(2021)
}

// TestCorpusNilMapper: a corpus compiled without a mapper still serves
// the type-agnostic queries (the pdnsq -counts path).
func TestCorpusNilMapper(t *testing.T) {
	s := pdns.NewStore()
	s.ObserveRange("x.gov.br.", dnswire.TypeNS, "ns1.gov.br.", pdns.Date(2015, time.March, 1), pdns.Date(2015, time.June, 1))
	c := CompileCorpus(pdns.NewView(s.Snapshot()), nil, 2015, 2015)
	if got := c.ActiveNamesPerYear(); got[0] != 1 {
		t.Errorf("ActiveNamesPerYear = %v, want [1]", got)
	}
	if len(c.nsOwners) != 1 {
		t.Errorf("NS owners = %d", len(c.nsOwners))
	}
}

// TestProviderAnalysisMapperMismatchPanics guards the corpus provider
// paths against mixing mappers.
func TestProviderAnalysisMapperMismatchPanics(t *testing.T) {
	c := CompileCorpus(pdns.NewView(nil), testMapper(), 2011, 2020)
	pa := NewProviderAnalysis(nil, testMapper(), nil) // a different Mapper instance
	defer func() {
		if recover() == nil {
			t.Error("corpus path accepted a mismatched mapper")
		}
	}()
	pa.GovProviderShareCorpus(c, 2020, "br")
}

// ownerID finds an owner name's ID: names are interned in canonical
// order, so it is a binary search.
func (c *Corpus) ownerID(name dnsname.Name) int {
	i, ok := slices.BinarySearchFunc(c.names, name, dnsname.Compare)
	if !ok {
		panic(fmt.Sprintf("corpus has no owner %q", name))
	}
	return i
}

func buildTestPDNS() *pdns.Store {
	s := pdns.NewStore()
	// Stable 2-NS domain alive all decade.
	s.ObserveRange("a.gov.br.", dnswire.TypeNS, "ns1.a.gov.br.", day(2011, 1, 1), day(2020, 12, 31))
	s.ObserveRange("a.gov.br.", dnswire.TypeNS, "ns2.a.gov.br.", day(2011, 1, 1), day(2020, 12, 31))
	// Single-NS private domain, 2011-2015 only.
	s.ObserveRange("b.gov.br.", dnswire.TypeNS, "ns1.b.gov.br.", day(2011, 1, 1), day(2015, 6, 30))
	// Single-NS provider domain appearing in 2016.
	s.ObserveRange("c.gov.cn.", dnswire.TypeNS, "dns9.hichina.com.", day(2016, 3, 1), day(2020, 12, 31))
	// Domain that migrated from a local hoster to Cloudflare in 2018.
	s.ObserveRange("d.gob.mx.", dnswire.TypeNS, "ns1.hostmx1.com.", day(2012, 1, 1), day(2017, 12, 31))
	s.ObserveRange("d.gob.mx.", dnswire.TypeNS, "ns2.hostmx1.com.", day(2012, 1, 1), day(2017, 12, 31))
	s.ObserveRange("d.gob.mx.", dnswire.TypeNS, "art.ns.cloudflare.com.", day(2018, 1, 1), day(2020, 12, 31))
	s.ObserveRange("d.gob.mx.", dnswire.TypeNS, "amy.ns.cloudflare.com.", day(2018, 1, 1), day(2020, 12, 31))
	return s
}

func TestPDNSYearly(t *testing.T) {
	view := pdns.NewView(buildTestPDNS().Snapshot())
	m := testMapper()
	years := CompileCorpus(view, m, 2011, 2020).Yearly()
	if len(years) != 10 {
		t.Fatalf("years = %d", len(years))
	}
	y2011 := years[0]
	if y2011.Domains != 2 || y2011.Countries != 1 {
		t.Errorf("2011 = %+v", y2011)
	}
	if y2011.SingleNS != 1 || y2011.SingleNSPrivate != 1 {
		t.Errorf("2011 singles = %+v", y2011)
	}
	y2020 := years[9]
	if y2020.Domains != 3 || y2020.Countries != 3 {
		t.Errorf("2020 = %+v", y2020)
	}
	// c.gov.cn is single-NS but hosted at hichina (not private).
	if y2020.SingleNS != 1 || y2020.SingleNSPrivate != 0 {
		t.Errorf("2020 singles = %+v", y2020)
	}
	// ns1/ns2.a.gov.br, dns9.hichina.com, art/amy.ns.cloudflare.com.
	if y2020.Nameservers != 5 {
		t.Errorf("2020 nameservers = %d, want 5", y2020.Nameservers)
	}
	if y2020.PrivateAll != 1 {
		t.Errorf("2020 private = %d, want 1 (a.gov.br)", y2020.PrivateAll)
	}
}

func TestDomainsPerCountry(t *testing.T) {
	view := pdns.NewView(buildTestPDNS().Snapshot())
	c := CompileCorpus(view, testMapper(), 2011, 2020)
	counts := c.DomainsPerCountry(2020)
	if counts["br"] != 1 || counts["cn"] != 1 || counts["mx"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	counts2013 := c.DomainsPerCountry(2013)
	if counts2013["br"] != 2 || counts2013["cn"] != 0 {
		t.Errorf("2013 counts = %v", counts2013)
	}
}

func TestSingleNSChurn(t *testing.T) {
	s := pdns.NewStore()
	// Base-year single that survives as a single through 2013.
	s.ObserveRange("keep.gov.br.", dnswire.TypeNS, "ns1.keep.gov.br.", day(2011, 1, 1), day(2013, 12, 31))
	// Base-year single that dies after 2011.
	s.ObserveRange("gone.gov.br.", dnswire.TypeNS, "ns1.gone.gov.br.", day(2011, 1, 1), day(2011, 12, 31))
	// New single appearing in 2012.
	s.ObserveRange("new.gov.br.", dnswire.TypeNS, "ns1.new.gov.br.", day(2012, 2, 1), day(2013, 12, 31))

	churn := CompileCorpus(pdns.NewView(s.Snapshot()), testMapper(), 2011, 2013).SingleNSChurn()
	if len(churn) != 2 {
		t.Fatalf("churn entries = %d", len(churn))
	}
	c2012 := churn[0]
	if c2012.BaseTotal != 2 {
		t.Errorf("BaseTotal = %d", c2012.BaseTotal)
	}
	if c2012.Total != 2 || c2012.New != 1 || c2012.FromBase != 1 {
		t.Errorf("2012 churn = %+v", c2012)
	}
	if c2012.BaseGone != 1 {
		t.Errorf("2012 BaseGone = %d, want 1", c2012.BaseGone)
	}
	if c2012.NewPct() != 50 || c2012.FromBasePct() != 50 || c2012.BaseGonePct() != 50 {
		t.Errorf("2012 percentages: %v %v %v", c2012.NewPct(), c2012.FromBasePct(), c2012.BaseGonePct())
	}
}
