package govdns

// One benchmark per table and figure of the paper (see DESIGN.md § 3),
// plus the ablation benches for the design choices the paper motivates:
// the 7-day PDNS stability filter, the second measurement round, and the
// mode-of-daily-counts yearly representative. Each bench regenerates its
// experiment's rows from the shared study. Throughput, latency and
// per-layer costs are not measured here: that is the bench/ module
// (`make bench`).
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"sync"
	"testing"
	"time"

	"govdns/internal/analysis"
	"govdns/internal/chaos"
	"govdns/internal/dnswire"
	"govdns/internal/measure"
	"govdns/internal/pdns"
	"govdns/internal/resolver"
	"govdns/internal/stats"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
)

// study returns the shared, fully scanned benchmark study.
func study(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		s := New(Options{Seed: 42, Scale: 0.02, QueryTimeout: 10 * time.Millisecond, Concurrency: 128})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		if err := s.RunActive(ctx); err != nil {
			panic(err)
		}
		benchStudy = s
	})
	return benchStudy
}

func BenchmarkFig2PDNSGrowth(b *testing.B) {
	// Call the corpus directly: the Study memoizes Fig2And3, and this
	// bench must measure the per-call aggregation, not the cache. The
	// corpus itself is compiled outside the timer — that one-time cost
	// is bench/'s analysis.corpus_compile_ms.
	s := study(b)
	c := s.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		years := c.Yearly()
		if years[len(years)-1].Domains == 0 {
			b.Fatal("empty final year")
		}
	}
}

func BenchmarkFig3NameserverGrowth(b *testing.B) {
	s := study(b)
	c := s.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hosts := c.NameserversPerYear()
		for i, n := range hosts {
			if n == 0 {
				b.Fatalf("no nameservers in %d", s.StartYear()+i)
			}
		}
	}
}

func BenchmarkFig4DomainsPerCountry(b *testing.B) {
	s := study(b)
	s.Corpus() // compiled outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Fig4()) == 0 {
			b.Fatal("no countries")
		}
	}
}

func BenchmarkFig6SingleNSChurn(b *testing.B) {
	s := study(b)
	s.Corpus() // compiled outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn := s.Fig6()
		if len(churn) == 0 {
			b.Fatal("no churn data")
		}
	}
}

func BenchmarkFig7PrivateDeployment(b *testing.B) {
	s := study(b)
	c := s.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, y := range c.Yearly() {
			if y.PrivateSinglePct() < y.PrivateAllPct() {
				b.Fatalf("%d: private singles (%.1f%%) below all-domain private (%.1f%%)",
					y.Year, y.PrivateSinglePct(), y.PrivateAllPct())
			}
		}
	}
}

func BenchmarkFig8StaleSingleNS(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar := analysis.ReplicationActive(s.Results, s.Mapper)
		if len(ar.SingleStaleByCountry) == 0 {
			b.Fatal("no per-country stale data")
		}
	}
}

func BenchmarkFig9ReplicationCDF(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar := analysis.ReplicationActive(s.Results, s.Mapper)
		if last := ar.NSCountCDF[len(ar.NSCountCDF)-1]; last.Fraction != 1 {
			b.Fatalf("CDF does not close: %v", last)
		}
	}
}

// The active-figure benches below call the analysis functions on the
// stored results, as BenchmarkFig2PDNSGrowth calls the corpus: the
// Study's accessors are memoized until the next RunActive, and a loop
// over one would time the memo.

func BenchmarkTable1Diversity(b *testing.B) {
	s := study(b)
	top10 := s.Top10()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Diversity(s.Results, s.Active.Geo, s.Mapper, top10)
		if len(rows) != 11 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable2MajorProviders(b *testing.B) {
	s := study(b)
	s.Corpus() // compiled outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, year := range []int{s.StartYear(), s.EndYear()} {
			if len(s.Table2(year)) != 8 {
				b.Fatal("major provider rows != 8")
			}
		}
	}
}

func BenchmarkTable3TopProviders(b *testing.B) {
	s := study(b)
	s.Corpus() // compiled outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, year := range []int{s.StartYear(), s.EndYear()} {
			if len(s.Table3(year, 11)) == 0 {
				b.Fatal("no top providers")
			}
		}
	}
}

func BenchmarkFig10DefectiveDelegations(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := analysis.Delegations(s.Results, s.Mapper)
		if ds.AnyDefect == 0 {
			b.Fatal("no defects found")
		}
	}
}

func BenchmarkFig11HijackableDomains(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hr := analysis.HijackRisks(s.Results, s.Mapper, s.Active.Reg)
		if len(hr.AvailableNSDomains) == 0 {
			b.Fatal("no hijackable domains")
		}
	}
}

func BenchmarkFig12RegistrationCost(b *testing.B) {
	s := study(b)
	hr, err := s.Fig11And12()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prices := s.Active.Reg.Quote(hr.AvailableNSDomains)
		if len(prices) != len(hr.AvailableNSDomains) {
			b.Fatal("quote length mismatch")
		}
	}
}

func BenchmarkFig13Consistency(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := analysis.Consistency(s.Results, s.Mapper)
		if cs.Responsive == 0 {
			b.Fatal("no responsive domains")
		}
		analysis.InconsistencyHijacks(s.Results, s.Mapper, s.Active.Reg)
	}
}

func BenchmarkFig14DisagreementDistribution(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := analysis.Consistency(s.Results, s.Mapper)
		rates := make([]float64, 0, len(cs.DisagreementPerCountry))
		for _, pct := range cs.DisagreementPerCountry {
			rates = append(rates, pct)
		}
		if _, ok := stats.Percentile(rates, 90); !ok {
			b.Fatal("no disagreement distribution")
		}
	}
}

// --- Ablations ---

// BenchmarkAblationStabilityFilter compares the PDNS analyses with and
// without the 7-day stability filter; without it, transient records
// inflate the population (§ III-C's motivation).
func BenchmarkAblationStabilityFilter(b *testing.B) {
	s := study(b)
	rawCorpus, stableCorpus := s.RawCorpus(), s.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := rawCorpus.Yearly()
		filtered := stableCorpus.Yearly()
		last := len(raw) - 1
		if raw[last].Domains < filtered[last].Domains {
			b.Fatal("filter added domains")
		}
	}
	raw := rawCorpus.Yearly()
	filtered := stableCorpus.Yearly()
	last := len(raw) - 1
	b.ReportMetric(float64(raw[last].Domains-filtered[last].Domains), "transient-domains")
}

// BenchmarkAblationSecondRound measures the lame-delegation
// overestimation when the second measurement round is disabled, over a
// sample of domains (the paper re-ran queries to rule out transient
// failures).
func BenchmarkAblationSecondRound(b *testing.B) {
	s := study(b)
	sample := s.Active.QueryList
	if len(sample) > 300 {
		sample = sample[:300]
	}
	ctx := context.Background()
	// The simulated network loses nothing, so the transient failures the
	// second round exists to rule out are injected: 30% loss on the first
	// two exchanges of every query flow, same seed for both scanners.
	loss := chaos.Transient(chaos.Drop, 2)
	loss.Prob = 0.3
	newScanner := func(secondRound bool) *measure.Scanner {
		client := resolver.NewClient(chaos.Wrap(s.Active.Net, 1, loss))
		client.Timeout = 10 * time.Millisecond
		client.Retries = 1
		sc := measure.NewScanner(resolver.NewIterator(client, s.Active.Roots))
		sc.Concurrency = 128
		sc.SecondRound = secondRound
		return sc
	}
	b.ResetTimer()
	full1, full2 := 0, 0
	for i := 0; i < b.N; i++ {
		withRetry := newScanner(true).Scan(ctx, sample)
		withoutRetry := newScanner(false).Scan(ctx, sample)
		full1, full2 = 0, 0
		for j := range sample {
			if withRetry[j].FullyDefective() {
				full1++
			}
			if withoutRetry[j].FullyDefective() {
				full2++
			}
		}
		if full2 < full1 {
			b.Fatal("second round increased defect count")
		}
	}
	b.ReportMetric(float64(full2-full1), "overcounted-defective-domains")
}

// BenchmarkAblationModeVsMax compares the paper's mode-of-daily-counts
// yearly NS representative with a max-based alternative: max overcounts
// replication whenever a domain briefly carried extra records.
func BenchmarkAblationModeVsMax(b *testing.B) {
	s := study(b)
	first, last := pdns.YearRange(s.EndYear())
	stable := pdns.NewView(s.World.PDNS.Snapshot()).Stable(pdns.StabilityFilterDays)
	byDomain := make(map[string][]pdns.RecordSet)
	for _, rs := range stable.Sets {
		if rs.RRType == dnswire.TypeNS && rs.Overlaps(first, last) {
			byDomain[string(rs.RRName)] = append(byDomain[string(rs.RRName)], rs)
		}
	}
	daily := make([]int, int(last-first)+1)
	b.ResetTimer()
	var overcounted int
	for i := 0; i < b.N; i++ {
		overcounted = 0
		for _, sets := range byDomain {
			// NS records active on each day of the year.
			clear(daily)
			for _, rs := range sets {
				for d := max(rs.FirstSeen, first); d <= min(rs.LastSeen, last); d++ {
					daily[d-first]++
				}
			}
			// The mode over the days with any record (the smaller count
			// on a tie), and the max.
			days := make(map[int]int)
			maxVal := 0
			for _, n := range daily {
				if n > 0 {
					days[n]++
					maxVal = max(maxVal, n)
				}
			}
			mode := 0
			for n, d := range days {
				if d > days[mode] || d == days[mode] && n < mode {
					mode = n
				}
			}
			if maxVal < mode {
				b.Fatal("max below mode")
			}
			// Domains whose replication a max-based representative
			// would overcount: migration cache tails briefly double
			// the visible NS set.
			if maxVal > mode {
				overcounted++
			}
		}
	}
	b.ReportMetric(float64(overcounted), "max-overcounted-domains")
}
